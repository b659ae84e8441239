package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// config is one run's settings, from the flags.
type config struct {
	seed    int64
	seconds float64 // measured time; split into the segments
	smoke   bool
	outDir  string        // where trace files go
	probe   time.Duration // how long each layer probe measures
}

// result is one run of one workload, untraced or traced.
type result struct {
	w         *workload
	traced    bool
	attempted int64
	failed    int64
	problems  []string // what made the run incorrect; empty when correct
	notes     []string // printed under the table
	metrics   []metric
	spans     []span // traced run: everything recorded, until analysed

	per     map[string][]float64 // metric → one value per measured segment (or one in all)
	samples map[string]int64     // metric → timings behind it
}

func (r *result) add(name string, v float64) { r.per[name] = append(r.per[name], v) }

// addQ adds a latency quantile in microseconds and counts its samples.
func (r *result) addQ(name string, h *hist, p float64) {
	r.add(name, h.quantile(p)/1e3)
	r.samples[name] += h.n
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// setupRepeats is how many times a run sets the system up: setup_s is
// the median, because a single process spawn is too noisy to gate on.
// The in-process set-up takes a millisecond, so it is repeated more.
func setupRepeats(w *workload, smoke bool) int {
	switch {
	case smoke:
		return 1
	case w.net:
		return 15
	default:
		return 25
	}
}

// runWorkload sets the system up, checks it against a MemTransport
// replay, drives the workload through its phases and turns what was
// counted into metrics. The untraced run yields the end-to-end metrics,
// the traced run the per-layer ones.
func runWorkload(w *workload, cfg config, traced bool) (*result, error) {
	in := generate(w, cfg.seed)
	res := &result{w: w, traced: traced, per: map[string][]float64{}, samples: map[string]int64{}}

	var rec *recorder
	if traced {
		folded := in.names
		if w.gate {
			folded = make([]core.Port, ports)
			for p, name := range in.names {
				folded[p] = core.Port("dev/" + string(name))
			}
		}
		rec = newRecorder(4<<20, in.names, folded, w.gate)
	}

	// Set up several times; the last one is the system the run uses.
	var e *env
	var setups [5][]float64 // whole, then the four parts
	for i := 0; i < setupRepeats(w, cfg.smoke); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
		}
		var err error
		if e, err = setup(w, in, rec); err != nil {
			return nil, err
		}
		setups[0] = append(setups[0], float64(e.setupNs())/1e9)
		for p, ns := range e.partsNs {
			setups[p+1] = append(setups[p+1], float64(ns)/1e9)
		}
	}
	defer e.close()

	if w.net {
		n := replayOps
		if cfg.smoke {
			n = 1000
		}
		if err := replayCheck(e, n); err != nil {
			return nil, fmt.Errorf("mem = net replay: %w", err)
		}
	}

	seg := time.Duration(cfg.seconds / segments * float64(time.Second))
	r := &runner{e: e, rec: rec, phases: []phase{{dur: warmup}}}
	if cfg.smoke {
		r.phases[0].dur = 200 * time.Millisecond
	}
	for i := 0; i < segments; i++ {
		// The traced run keeps its first segment untraced: the base of
		// trace.overhead_ratio, measured in the same process.
		r.phases = append(r.phases, phase{dur: seg, measured: true, traced: traced && i > 0})
	}
	r.run()

	res.collect(r, setups)
	if traced {
		res.spans = rec.recorded()
		if err := res.layers(r, cfg); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		path, err := writeTrace(cfg.outDir, w.name, cfg.seed, res.spans)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("trace: %d spans, the first %d written to %s", len(res.spans), min(len(res.spans), traceFileSpans), path))
		res.spans = nil // 128 MB of recorder, not needed again
	}
	res.finish()

	procs := e.procs
	if err := e.close(); err != nil {
		res.problems = append(res.problems, "tear down: "+err.Error())
	}
	for _, p := range procs {
		if !errors.Is(syscall.Kill(p.Pid, 0), syscall.ESRCH) {
			res.problems = append(res.problems, fmt.Sprintf("shard process %d outlived the run", p.Pid))
		}
	}
	return res, nil
}

// answer is what a replayed locate returned, as far as both sides of
// the edge report it.
type answer struct {
	addr     graph.NodeID
	serverID uint64
	time     uint64
	err      bool
}

// replayCheck replays the first n generated operations one at a time on
// the live system and on a fresh MemTransport set up the same way, and
// requires identical answers and an identical pass total: the repo's
// mem = net invariant, checked on this run's own inputs.
func replayCheck(e *env, n int) error {
	twinW := *e.w
	twinW.net, twinW.gate, twinW.open = false, false, false
	twin, err := setup(&twinW, e.in, nil)
	if err != nil {
		return err
	}
	defer twin.close()
	live, livePasses := replay(e, n)
	ref, refPasses := replay(twin, n)
	for i := range live {
		if live[i] != ref[i] {
			return fmt.Errorf("operation %d: %s answered %+v, mem %+v", i, e.w.name, live[i], ref[i])
		}
	}
	if livePasses != refPasses {
		return fmt.Errorf("%d operations charged %d passes on %s, %d on mem", n, livePasses, e.w.name, refPasses)
	}
	return nil
}

// replay runs the operations at the Transport seam (through the edge on
// gate_open), below the hint cache: which ports share a hint generation
// is decided by a hash seeded per transport, so hinted pass totals are
// not comparable between two transports, and the invariant is the
// transports'.
func replay(e *env, n int) ([]answer, int64) {
	r := &runner{e: e, base: time.Now()}
	var sink segStats
	locate := e.tr.Locate
	if e.w.gate {
		locate = e.locate
	}
	before := e.tr.Passes()
	out := make([]answer, 0, n)
	for i := 0; i < n; i++ {
		c := i % callers
		k := e.pos[c].k
		e.pos[c].k++
		if e.w.churn && k%churnEvery == churnEvery-1 {
			r.migrate(c, &sink)
			out = append(out, answer{err: sink.failed > 0})
			continue
		}
		q := e.in.reqs[(k*callers+c)%streamLen]
		ent, err := locate(q.client, e.in.names[q.port])
		out = append(out, answer{ent.Addr, ent.ServerID, ent.Time, err != nil})
	}
	e.homes.settle() // the run's clock starts afresh
	return out, e.tr.Passes() - before
}
