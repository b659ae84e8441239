package main

import (
	"fmt"
	"math"
	"os"
)

// metricDef names a metric. bound is how far the median may worsen
// before it is a regression, as a share of the median; only end-to-end
// metrics have one. The tables below are BENCHMARK.json's end_to_end
// and per_layer lists (bench_test.go holds the two together).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The timing bounds are the widest the benchmark contract allows: on
// the 2-vCPU VM this was written on, ten 20 s runs of one binary spread
// (quartile to quartile) by 5-20% of their median on these metrics
// (README.md, "Noise"), so a tighter bound would call noise a
// regression. locate_p99_us spread by more than any allowed bound on
// net_flood and is therefore a per-layer metric (driver.locate_p99_us).
// passes_per_locate repeats to 0.06% on four workloads; its bound is
// net_hint_churn's, where hint generations collide by a per-process
// hash seed and ten runs ranged over 2.4%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"locate_p50_us", "us", "lower", 0.25},
	{"locates_per_s", "1/s", "higher", 0.25},
	{"passes_per_locate", "passes", "lower", 0.02},
}

var perLayer = []metricDef{
	{name: "driver.attempted", unit: "count", better: "higher"},
	{name: "driver.ok", unit: "count", better: "higher"},
	{name: "driver.failed", unit: "count", better: "lower"},
	{name: "driver.wrong", unit: "count", better: "lower"},
	{name: "driver.shed", unit: "count", better: "lower"},
	{name: "driver.migrate_missed", unit: "count", better: "lower"},
	{name: "driver.fail_ratio", unit: "ratio", better: "lower"},
	{name: "driver.locate_p99_us", unit: "us", better: "lower"},
	{name: "driver.late_p99_us", unit: "us", better: "lower"},
	{name: "driver.post_p50_us", unit: "us", better: "lower"},
	{name: "cluster.self_us", unit: "us", better: "lower"},
	{name: "cluster.hint_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.hint_stale", unit: "count", better: "lower"},
	{name: "cluster.hint_probe_fails", unit: "count", better: "lower"},
	{name: "cluster.coalesced_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.shed", unit: "count", better: "lower"},
	{name: "cluster.seam_calls_per_locate", unit: "count", better: "lower"},
	{name: "cluster.memtransport.locate_ns", unit: "ns", better: "lower"},
	{name: "cluster.memtransport.probe_ns", unit: "ns", better: "lower"},
	{name: "cluster.memtransport.migrate_us", unit: "us", better: "lower"},
	{name: "cluster.nettransport.locate_us", unit: "us", better: "lower"},
	{name: "cluster.nettransport.probe_us", unit: "us", better: "lower"},
	{name: "cluster.nettransport.migrate_us", unit: "us", better: "lower"},
	{name: "cluster.nettransport.floods_per_locate", unit: "count", better: "lower"},
	{name: "cluster.nettransport.coalesced_per_flood", unit: "ratio", better: "higher"},
	{name: "cluster.nettransport.over_rtt_us", unit: "us", better: "lower"},
	{name: "cluster.netnode.cpu_us_per_locate", unit: "us", better: "lower"},
	{name: "cluster.netnode.ops_per_locate", unit: "count", better: "lower"},
	{name: "cluster.store.get_ns", unit: "ns", better: "lower"},
	{name: "cluster.store.put_ns", unit: "ns", better: "lower"},
	{name: "netwire.echo_rtt_us", unit: "us", better: "lower"},
	{name: "netwire.frame_ns", unit: "ns", better: "lower"},
	{name: "netwire.allocs_per_call", unit: "count", better: "lower"},
	{name: "netwire.shard_frames_per_locate", unit: "count", better: "lower"},
	{name: "netwire.shard_bytes_per_locate", unit: "bytes", better: "lower"},
	{name: "netwire.gate_frames_per_locate", unit: "count", better: "lower"},
	{name: "netwire.gate_bytes_per_locate", unit: "bytes", better: "lower"},
	{name: "gate.noop_wire_us", unit: "us", better: "lower"},
	{name: "gate.noop_http_us", unit: "us", better: "lower"},
	{name: "gate.handler_self_us", unit: "us", better: "lower"},
	{name: "gate.client_self_us", unit: "us", better: "lower"},
	{name: "setup.spawn_s", unit: "s", better: "lower"},
	{name: "setup.transport_s", unit: "s", better: "lower"},
	{name: "setup.register_s", unit: "s", better: "lower"},
	{name: "setup.gate_s", unit: "s", better: "lower"},
	{name: "runtime.allocs_per_locate", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_locate", unit: "bytes", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.rss_mb", unit: "MB", better: "lower"},
	{name: "proc.driver_cpu_us_per_locate", unit: "us", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.attribution_gap", unit: "ratio", better: "lower"},
}

// metric is one reported metric of one run: the median over the run's
// segments, their spread, and how many timings lie behind it. A layer
// metric the workload does not exercise has n = 0 and reads 0.
type metric struct {
	metricDef
	summary
	samples    int64
	unresolved bool // its own segments disagree by more than its bound
}

// collect turns the counted phases into metrics: the end-to-end ones,
// and in the traced run the driver's counts and the program's public
// counters per locate.
func (res *result) collect(r *runner, setups [5][]float64) {
	w := r.e.w
	var total segStats
	for i, ph := range r.phases {
		var st segStats
		for wk := range r.stats {
			st.merge(&r.stats[wk][i])
		}
		total.merge(&st) // the warm-up's answers are checked too
		if !ph.measured {
			continue
		}
		a, b := r.snaps[i], r.snaps[i+1]
		locates := float64(b.m.Locates - a.m.Locates)
		if ph.traced != res.traced { // the traced run's untraced segment
			res.addQ("base.locate_p50_us", &st.lat, 0.5)
			res.add("base.passes_per_locate", ratio(float64(b.m.Passes-a.m.Passes), locates))
			res.add("base.allocs_per_locate", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), locates))
			continue
		}
		dur := b.at.Sub(a.at).Seconds()
		if w.open {
			dur = ph.dur.Seconds() // arrivals are binned by when they were due
		}
		res.addQ("locate_p50_us", &st.lat, 0.5)
		res.addQ("driver.locate_p99_us", &st.lat, 0.99)
		res.add("locates_per_s", float64(st.ok)/dur)
		res.add("passes_per_locate", ratio(float64(b.m.Passes-a.m.Passes), locates))
		if !res.traced {
			continue
		}
		res.add("driver.attempted", float64(st.attempted()))
		res.add("driver.ok", float64(st.ok))
		res.add("driver.failed", float64(st.failed))
		res.add("driver.wrong", float64(st.wrong))
		res.add("driver.shed", float64(st.shed))
		res.add("driver.migrate_missed", float64(st.missed))
		res.add("driver.fail_ratio", ratio(float64(st.failed+st.wrong+st.shed), float64(st.attempted())))
		if w.open {
			res.addQ("driver.late_p99_us", &st.late, 0.99)
		}
		if w.churn {
			res.addQ("driver.post_p50_us", &st.post, 0.5)
		}
		res.add("cluster.hint_hit_ratio", ratio(float64(b.m.HintHits-a.m.HintHits), locates))
		res.add("cluster.hint_stale", float64(b.m.HintStale-a.m.HintStale))
		res.add("cluster.hint_probe_fails", float64(b.m.HintProbeFails-a.m.HintProbeFails))
		res.add("cluster.coalesced_ratio", ratio(float64(b.m.Coalesced-a.m.Coalesced), locates))
		res.add("cluster.shed", float64(b.m.Shed-a.m.Shed))
		floods := float64(b.seam[spSeamLocate] - a.seam[spSeamLocate])
		res.add("cluster.seam_calls_per_locate", ratio(floods+float64(b.seam[spSeamProbe]-a.seam[spSeamProbe]), locates))
		if w.net {
			res.add("cluster.nettransport.floods_per_locate", ratio(floods, locates))
			res.add("cluster.nettransport.coalesced_per_flood", ratio(float64(b.coalesced-a.coalesced), floods))
			res.add("cluster.netnode.cpu_us_per_locate", ratio(float64(b.shardTicks-a.shardTicks)*clockTickUs, locates))
			sw := b.shardWire.Sub(a.shardWire)
			res.add("netwire.shard_frames_per_locate", ratio(float64(sw.FramesSent+sw.FramesRecv), locates))
			res.add("netwire.shard_bytes_per_locate", ratio(float64(sw.BytesSent+sw.BytesRecv), locates))
		}
		if w.gate {
			gw := b.gateWire.Sub(a.gateWire)
			res.add("netwire.gate_frames_per_locate", ratio(float64(gw.FramesSent+gw.FramesRecv), locates))
			res.add("netwire.gate_bytes_per_locate", ratio(float64(gw.BytesSent+gw.BytesRecv), locates))
		}
		res.add("runtime.allocs_per_locate", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), locates))
		res.add("runtime.bytes_per_locate", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), locates))
		res.add("runtime.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
		res.add("proc.driver_cpu_us_per_locate", ratio(float64((b.driverCPU-a.driverCPU).Microseconds()), locates))
	}
	res.attempted, res.failed = total.attempted(), total.failed+total.wrong+total.shed
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d operations failed (%d errors, %d wrong, %d shed); first: %v",
			res.failed, res.attempted, total.failed, total.wrong, total.shed, total.firstErr))
	}
	res.per["setup_s"] = setups[0]
	for p, name := range partNames {
		res.per[name] = setups[p+1]
	}
	if res.traced {
		rss := rssMB(os.Getpid())
		for _, p := range r.e.procs {
			rss += rssMB(p.Pid)
		}
		res.add("runtime.rss_mb", rss)
	}
}

// layers adds what only the traced run knows: the span times per
// layer, the reconciliation of their sum against the whole, the
// comparison with the untraced segment, and the layer probes.
func (res *result) layers(r *runner, cfg config) error {
	w, in := r.e.w, r.e.in
	root := uint8(spClusterLocate)
	if w.open {
		root = spDriverLocate
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for i, ph := range r.phases {
		if !ph.traced {
			continue
		}
		ts := analyse(res.spans, root, int64(r.snaps[i].at.Sub(r.base)), int64(r.snaps[i+1].at.Sub(r.base)))
		if ts.requests == 0 {
			continue
		}
		var sum float64
		for _, self := range ts.self {
			sum += self
		}
		res.add("trace.attribution_gap", math.Abs(sum-ts.rootP50)/ts.rootP50)
		res.samples["trace.attribution_gap"] += int64(ts.requests)
		if w.gate {
			res.add("gate.client_self_us", us(ts.self[spGateClient]))
			res.add("gate.handler_self_us", us(ts.self[spGateHandler]))
		} else {
			res.add("cluster.self_us", us(ts.self[spClusterLocate]))
		}
		if w.net {
			res.add("cluster.nettransport.locate_us", us(ts.dur[spSeamLocate]))
			res.add("cluster.nettransport.probe_us", us(ts.dur[spSeamProbe]))
		} else {
			res.add("cluster.memtransport.locate_ns", ts.dur[spSeamLocate])
			res.add("cluster.memtransport.probe_ns", ts.dur[spSeamProbe])
		}
	}
	if !spansNest(res.spans) {
		res.problems = append(res.problems, "trace: a span lies outside its parent or carries another request id")
	}
	if gap := medianOf(res.per["trace.attribution_gap"]); gap > 0.10 {
		res.notes = append(res.notes, fmt.Sprintf("attribution: FAILED — the layers' self times sum to %.1f%% off the traced locate_p50_us; the attribution is wrong, not the system", gap*100))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("attribution: ok — the layers' self times sum to within %.1f%% of the traced locate_p50_us", gap*100))
	}

	// Traced against untraced, in this process: the wrappers must not
	// have changed the path taken (same passes, same allocations), and
	// what they cost is the overhead ratio.
	res.add("trace.overhead_ratio", ratio(medianOf(res.per["locate_p50_us"]), medianOf(res.per["base.locate_p50_us"])))
	basePasses, passes := medianOf(res.per["base.passes_per_locate"]), medianOf(res.per["passes_per_locate"])
	if !cfg.smoke && math.Abs(passes-basePasses) > 0.02*basePasses { // a smoke segment is too short to compare
		res.problems = append(res.problems, fmt.Sprintf("trace: passes_per_locate %.4f traced against %.4f untraced: the traced run took another path", passes, basePasses))
	}
	res.notes = append(res.notes, fmt.Sprintf("traced vs untraced segment: passes_per_locate %.4f vs %.4f, allocs per locate %.4f vs %.4f",
		passes, basePasses, medianOf(res.per["runtime.allocs_per_locate"]), medianOf(res.per["base.allocs_per_locate"])))

	// The probes run after the last segment, with the callers stopped.
	get, put := probeStore(in, cfg.probe)
	res.add("cluster.store.get_ns", get)
	res.add("cluster.store.put_ns", put)
	payload := 24 // bytes; a query frame of this workload when there is a wire
	if s := r.snaps[len(r.snaps)-1].shardWire; s.FramesSent > 0 {
		payload = int(s.BytesSent / s.FramesSent)
	}
	rtt, allocs, frame, err := probeWire(payload, cfg.probe)
	if err != nil {
		return err
	}
	res.add("netwire.echo_rtt_us", us(rtt))
	res.add("netwire.allocs_per_call", allocs)
	res.add("netwire.frame_ns", frame)
	wire, http, err := probeGate(in, cfg.probe)
	if err != nil {
		return err
	}
	res.add("gate.noop_wire_us", us(wire))
	res.add("gate.noop_http_us", us(http))
	if w.net {
		res.add("cluster.nettransport.over_rtt_us", medianOf(res.per["cluster.nettransport.locate_us"])-us(rtt))
		ops, err := probeNodeOps(w, in)
		if err != nil {
			return err
		}
		res.add("cluster.netnode.ops_per_locate", ops)
		res.add("cluster.nettransport.migrate_us", us(probeMigrate(r.e, cfg.probe)))
	} else {
		res.add("cluster.memtransport.migrate_us", us(probeMigrate(r.e, cfg.probe)))
	}
	return nil
}

// finish fixes the run's metric list from what was added.
func (res *result) finish() {
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := metric{metricDef: d, summary: summarize(res.per[d.name]), samples: res.samples[d.name]}
		m.unresolved = d.bound > 0 && m.spread() > d.bound
		res.metrics = append(res.metrics, m)
	}
}
