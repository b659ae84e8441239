package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/gate"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// phase is one stretch of a run: the warm-up, or a segment that is
// measured, and in the traced run recorded.
type phase struct {
	dur      time.Duration
	measured bool
	traced   bool
}

// segStats is what one driver goroutine saw in one phase.
type segStats struct {
	ok, failed, wrong, shed, missed int64 // missed: not found while the port was migrating; retried
	lat, post, late                 hist
	firstErr                        error
}

// note keeps the first error of a phase for the failure report.
func (s *segStats) note(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *segStats) attempted() int64 { return s.ok + s.failed + s.wrong + s.shed + s.missed }

func (s *segStats) merge(o *segStats) {
	s.ok += o.ok
	s.failed += o.failed
	s.wrong += o.wrong
	s.shed += o.shed
	s.missed += o.missed
	s.lat.merge(&o.lat)
	s.post.merge(&o.post)
	s.late.merge(&o.late)
	s.note(o.firstErr)
}

// counters is a snapshot, taken at every phase boundary, of the
// program's public counters; a phase's figures are differences.
type counters struct {
	at         time.Time
	m          cluster.MetricsSnapshot
	shardWire  netwire.Stats // coordinator ↔ shards
	gateWire   netwire.Stats // client ↔ gate
	coalesced  int64
	seam       [numSpanNames]int64
	shardTicks int64 // shards' utime+stime, clock ticks
	driverCPU  time.Duration
	mem        runtime.MemStats // traced run only: ReadMemStats stops the world
}

// runner drives one workload through its phases.
type runner struct {
	e      *env
	rec    *recorder // nil in the untraced run
	phases []phase
	stats  [][]segStats // [driver goroutine][phase]
	snaps  []counters   // [phase boundary]
	seg    atomic.Int32
	stop   atomic.Bool
	base   time.Time
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

func (r *runner) snapshot() counters {
	c := counters{at: time.Now(), m: r.e.c.Metrics()}
	if r.e.net != nil {
		c.shardWire = r.e.net.WireStats()
		c.coalesced, _ = r.e.net.CoalesceStats()
	}
	if r.e.gwc != nil {
		c.gateWire = r.e.gwc.WireStats()
	}
	for _, p := range r.e.procs {
		c.shardTicks += procTicks(p.Pid)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.driverCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if r.rec != nil {
		for i := range c.seam {
			c.seam[i] = r.rec.calls[i].Load()
		}
		runtime.ReadMemStats(&c.mem)
	}
	return c
}

// run executes the phases. The loops never read the clock to find the
// phase: the coordinator below publishes it.
func (r *runner) run() {
	workers := callers
	if r.e.w.open {
		workers = openWorkers
	}
	r.stats = make([][]segStats, workers)
	for i := range r.stats {
		r.stats[i] = make([]segStats, len(r.phases))
	}
	r.snaps = make([]counters, len(r.phases)+1)
	r.base = time.Now()
	if r.rec != nil {
		r.rec.t0 = r.base // one clock for the driver's spans and the seams'
	}
	if r.e.w.open {
		r.openLoop()
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.closedCaller(c)
		}()
	}
	for i, ph := range r.phases {
		r.enter(i, ph)
		time.Sleep(ph.dur)
	}
	r.snaps[len(r.phases)] = r.snapshot()
	r.stop.Store(true)
	wg.Wait()
}

func (r *runner) enter(i int, ph phase) {
	r.snaps[i] = r.snapshot()
	if r.rec != nil {
		r.rec.on.Store(ph.traced)
	}
	r.seg.Store(int32(i))
}

// closedCaller is one closed-loop caller: its next request goes out
// when the last returns.
func (r *runner) closedCaller(c int) {
	w, in, pos := r.e.w, r.e.in, &r.e.pos[c]
	sampleEvery, traceEvery := 1, 1
	if !w.net {
		sampleEvery, traceEvery = memSampleEvery, memTraceEvery
	}
	for !r.stop.Load() {
		st := &r.stats[c][r.seg.Load()]
		k := pos.k
		pos.k++
		if w.churn && k%churnEvery == churnEvery-1 {
			r.migrate(c, st)
			continue
		}
		q := in.reqs[(k*callers+c)%streamLen]
		// While spans are recorded every request is published as in
		// flight, the untimed ones with span 0, so that a seam call is
		// never credited to the other caller's request for the same pair.
		tracing := r.rec != nil && r.rec.on.Load()
		if k%sampleEvery != 0 {
			if tracing {
				r.rec.driver.set(c, q.client, q.port, 0, 0)
			}
			e, err := r.e.c.Locate(q.client, in.names[q.port])
			if tracing {
				r.rec.driver.clear(c)
			}
			// Untimed: a static table needs no times to judge the answer.
			r.judge(st, q, e, err, 0, 0)
			continue
		}
		for {
			var id uint32
			if tracing {
				if k/sampleEvery%traceEvery == 0 {
					id = r.rec.reserve()
				}
				r.rec.driver.set(c, q.client, q.port, id, id)
			}
			start := r.now()
			e, err := r.e.c.Locate(q.client, in.names[q.port])
			end := r.now()
			if tracing {
				r.rec.driver.clear(c)
				r.rec.put(id, spClusterLocate, id, 0, start, end)
			}
			st.lat.add(end - start)
			if !r.judge(st, q, e, err, start, end) {
				break
			}
		}
	}
}

// joinSlack widens the window an answer is judged in, backwards. A
// locate that joins another caller's flight for the same (client, port)
// gets a result sampled when that flight started (Cluster.Locate
// documents this), so just after a Migrate returns it may still report
// the old home, or nothing; the flight is at most one locate older, and
// 50 ms is far beyond any locate seen here.
const joinSlack = int64(50 * time.Millisecond)

// judge counts one answer and reports whether the locate must be
// retried: it found nothing while the driver's own Migrate of that
// port was in flight, which the transports document as a transient
// miss (tombstone posted, new posting not yet).
func (r *runner) judge(st *segStats, q request, e core.Entry, err error, start, end int64) (retry bool) {
	start -= joinSlack
	switch {
	case err == nil && r.e.homes.right(q.port, e.Addr, start, end):
		st.ok++
	case err == nil:
		st.wrong++
		st.note(fmt.Errorf("locate %s from %d answered node %d, never its home during the call", r.e.in.names[q.port], q.client, e.Addr))
	case errors.Is(err, cluster.ErrOverload) || errors.Is(err, gate.ErrShed):
		st.shed++
	case errors.Is(err, core.ErrNotFound) && r.e.homes.migrating(q.port, start, end):
		st.missed++
		return true
	default:
		st.failed++
		st.note(err)
	}
	return false
}

// migrate is net_hint_churn's write: move one of the caller's own ports.
func (r *runner) migrate(c int, st *segStats) {
	pos := &r.e.pos[c]
	m := r.e.in.migs[c][pos.j%len(r.e.in.migs[c])]
	pos.j++
	to := (r.e.homes.current(m.port) + graph.NodeID(m.step)) % nodes
	var id uint32
	if r.rec != nil {
		if id = r.rec.reserve(); id != 0 {
			r.rec.driver.set(c, migrateClient, m.port, id, id)
		}
	}
	start := r.now()
	r.e.homes.moving(m.port, to, start)
	err := r.e.refs[m.port].Migrate(to)
	end := r.now()
	r.e.homes.moved(m.port, end)
	if id != 0 {
		r.rec.driver.clear(c)
		r.rec.put(id, spClusterMigrate, id, 0, start, end)
	}
	st.post.add(end - start)
	if err != nil {
		st.failed++
		st.note(err)
	}
}

// openLoop issues requests on the generated absolute schedule whatever
// the system does: a dispatcher releases each arrival into the
// due-queue when it is due, openWorkers goroutines drain it, and a
// request is timed from its release, so a stall is charged to every
// request that waited behind it. The queue holds the whole schedule:
// the dispatcher never waits for the system.
//
// Release is the due time as the dispatcher's timer delivers it. Where
// timers are precise the two coincide; on a VM whose timers tick at
// about 1 ms a sleeping dispatcher wakes up to a tick late, and timing
// from the due time itself would bury a 200 us locate under the
// generator's own 550 us mean lateness. That lateness is reported on
// its own (driver.late_p99_us) and leaves the system's latency
// readable.
func (r *runner) openLoop() {
	var total time.Duration
	ends := make([]int64, len(r.phases))
	for i, ph := range r.phases {
		total += ph.dur
		ends[i] = int64(total)
	}
	due := r.e.in.arrivals(total)
	released := make([]int64, len(due))
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for wk := 0; wk < openWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				seg := 0
				for due[i] >= ends[seg] { // binned by when it was due
					seg++
				}
				r.openRequest(wk, seg, i, due[i], released[i])
			}
		}()
	}
	seg := 0
	r.enter(0, r.phases[0])
	for i, d := range due {
		for d >= ends[seg] {
			seg++
			r.enter(seg, r.phases[seg])
		}
		if wait := time.Duration(d - r.now()); wait > 0 {
			time.Sleep(wait)
		}
		released[i] = r.now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	for seg++; seg < len(r.phases); seg++ {
		r.enter(seg, r.phases[seg])
	}
	r.snaps[len(r.phases)] = r.snapshot()
}

func (r *runner) openRequest(wk, seg, i int, due, released int64) {
	st := &r.stats[wk][seg]
	q := r.e.in.reqs[i%streamLen]
	var root, child uint32
	if r.rec != nil && r.phases[seg].traced {
		if root = r.rec.reserve(); root != 0 {
			child = r.rec.reserve()
			r.rec.driver.set(wk, q.client, q.port, child, root)
		}
	}
	issued := r.now()
	e, err := r.e.locate(q.client, r.e.in.names[q.port])
	end := r.now()
	if root != 0 {
		r.rec.driver.clear(wk)
		r.rec.put(child, spGateClient, root, root, issued, end)
		r.rec.put(root, spDriverLocate, root, 0, released, end)
	}
	st.late.add(released - due)
	st.lat.add(end - released)
	r.judge(st, q, e, err, released, end)
}

// procTicks is a process's utime+stime in clock ticks (USER_HZ, 100 on
// Linux), from /proc/<pid>/stat; 0 when it cannot be read.
func procTicks(pid int) int64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields resume after its ")".
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st
}

const clockTickUs = 1e6 / 100

// rssMB is a process's resident set from /proc/<pid>/statm.
func rssMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
