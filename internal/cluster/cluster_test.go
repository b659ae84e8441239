package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestClusterRegisterLocate: a cluster resolves a port from every
// client, misses an unknown one and follows a migration, counting it all.
func TestClusterRegisterLocate(t *testing.T) {
	r := runHistory(t, "world complete 16\ncolumns model mem+cluster\nregister svc 5\nlocate 0-15 svc,nope\nmigrate svc 11\nlocate 0-15 svc")
	if m := r.cols[1].cl.Metrics(); m.Locates != 48 || m.Posts != 1 || m.PassesPerLocate <= 0 {
		t.Fatalf("metrics = %+v; want 48 locates, 1 post", m)
	}
}

// TestClusterMetricsBeforeLocates: a cluster that has timed no locate
// has no latency histogram yet, and its snapshot reads zero latency,
// before and after a reset; 8 × 16 locates time at least one on some
// lane, which installs it.
func TestClusterMetricsBeforeLocates(t *testing.T) {
	c := New(must(NewMemTransport(topology.Complete(4), rendezvous.Checkerboard(4), 0)), Options{})
	defer c.Close()
	for _, step := range []func(){func() {}, c.ResetMetrics} {
		step()
		if m := c.Metrics(); m.P50 != 0 || m.P99 != 0 || m.Max != 0 || c.metrics.latency.Load() != nil {
			t.Fatalf("metrics = %+v; want zero latency and no histogram before any locate", m)
		}
	}
	for range 8 * stats.CounterStripes {
		c.Locate(0, "nope")
	}
	if m := c.Metrics(); c.metrics.latency.Load() == nil || m.Locates != 8*stats.CounterStripes {
		t.Fatalf("metrics = %+v; want %d locates, some timed", m, 8*stats.CounterStripes)
	}
}

// TestClusterConcurrentLocates: eight concurrent sweeps at a time, one
// per port, answer as the model does, every locate counted.
func TestClusterConcurrentLocates(t *testing.T) {
	var b strings.Builder
	for p := range 8 {
		fmt.Fprintf(&b, "register svc-%d %d\n", p, p*7)
	}
	for i := range 64 {
		fmt.Fprintf(&b, "%slocate 0-63 svc-%d\n", map[bool]string{true: "& "}[i%8 > 0], i%8)
	}
	if r := runHistory(t, "world complete 64\ncolumns model mem+cluster\n"+b.String()); r.cols[1].cl.Metrics().Locates != 8*8*64 {
		t.Fatalf("metrics.Locates = %d; want %d", r.cols[1].cl.Metrics().Locates, 8*8*64)
	}
}

// blockingTransport wraps a Transport and holds every Locate until
// released, to force flights to overlap.
type blockingTransport struct {
	Transport
	gate    chan struct{}
	inCalls atomic.Int64
}

func (b *blockingTransport) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	b.inCalls.Add(1)
	<-b.gate
	return b.Transport.Locate(client, port)
}

func TestClusterCoalescing(t *testing.T) {
	tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
	bt := &blockingTransport{Transport: tr, gate: make(chan struct{})}
	c := New(bt, Options{})
	defer c.Close()
	must(c.Register("svc", 3))

	// Leader first: its flight is registered before it blocks inside the
	// transport, so every locate started while it is blocked coalesces.
	var wg sync.WaitGroup
	results := make([]error, 1+coalesceFollowers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[0] = c.Locate(2, "svc")
	}()
	for bt.inCalls.Load() == 0 {
		runtime.Gosched()
	}
	var started atomic.Int64
	for i := 1; i <= coalesceFollowers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Add(1)
			_, results[i] = c.Locate(2, "svc")
		}(i)
	}
	for started.Load() < coalesceFollowers {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond) // let followers reach the flight table
	close(bt.gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	m := c.Metrics()
	if m.Coalesced == 0 {
		t.Fatalf("no locates coalesced across %d concurrent callers for one key", 1+coalesceFollowers)
	}
}

const coalesceFollowers = 7

// TestInProcessLocatesChargePerCall pins the in-process transports'
// contract: a locate never shares a flood, so eight callers hammering
// the same four (client, port) pairs are charged exactly the sum of
// their calls' single-locate costs — on mem and on sim alike — and
// nothing is counted as coalesced. A wrapper that embeds *MemTransport
// stays in-process; an interface-typed wrapper (blockingTransport)
// hides the capability and keeps sharing.
func TestInProcessLocatesChargePerCall(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
	)
	gr := must(topology.NewGrid(4, 4))
	strat := strategy.Manhattan(gr)
	pairs := []LocateReq{{Client: 0, Port: "svc-a"}, {Client: 5, Port: "svc-b"}, {Client: 10, Port: "svc-c"}, {Client: 15, Port: "svc-a"}}
	homes := map[core.Port]graph.NodeID{"svc-a": 3, "svc-b": 12, "svc-c": 6}

	run := func(tr Transport) int64 {
		c := New(tr, Options{})
		defer c.Close()
		for port, node := range homes {
			must(c.Register(port, node))
		}
		var sum int64
		for _, p := range pairs {
			tr.ResetPasses()
			if e, err := c.Locate(p.Client, p.Port); err != nil || e.Addr != homes[p.Port] {
				t.Fatalf("%s: locate %+v = %+v, %v", tr.Name(), p, e, err)
			}
			sum += tr.Passes()
		}
		tr.ResetPasses()
		c.ResetMetrics()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					p := pairs[(w+i)%len(pairs)]
					if e, err := c.Locate(p.Client, p.Port); err != nil || e.Addr != homes[p.Port] {
						t.Errorf("%s: locate %+v = %+v, %v", tr.Name(), p, e, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if want := workers * rounds * sum / int64(len(pairs)); tr.Passes() != want {
			t.Errorf("%s: %d concurrent locates charged %d passes; their single-locate costs add up to %d", tr.Name(), workers*rounds, tr.Passes(), want)
		}
		if m := c.Metrics(); m.Coalesced != 0 {
			t.Errorf("%s: Coalesced = %d; an in-process locate never shares", tr.Name(), m.Coalesced)
		}
		return tr.Passes()
	}
	memT := must(NewMemTransport(gr.G, strat, 0))
	simT := must(NewSimTransport(gr.G, strat))
	if m, s := run(memT), run(simT); m != s {
		t.Errorf("mem charged %d passes, sim %d for the same calls", m, s)
	}

	wrapped := must(NewMemTransport(gr.G, strat, 0))
	c := New(struct{ *MemTransport }{wrapped}, Options{})
	defer c.Close()
	if !c.opts.DisableCoalescing {
		t.Error("a struct embedding *MemTransport shares floods; want it in-process")
	}
	bc := New(&blockingTransport{Transport: wrapped, gate: make(chan struct{})}, Options{})
	defer bc.Close()
	if bc.opts.DisableCoalescing {
		t.Error("blockingTransport over mem does not share floods; an interface-typed wrapper must hide the capability")
	}
}

func TestClusterSubmit(t *testing.T) {
	c, _ := newMemCluster(t, 32, Options{Shards: 4, WorkersPerShard: 2})
	must(c.Register("svc", 9))
	const jobs = 200
	var done sync.WaitGroup
	var bad atomic.Int64
	done.Add(jobs)
	for i := 0; i < jobs; i++ {
		err := c.Submit(graph.NodeID(i%32), "svc", func(e core.Entry, err error) {
			if err != nil || e.Addr != 9 {
				bad.Add(1)
			}
			done.Done()
		})
		if err != nil {
			// Shed under a tiny queue is allowed; complete the waiter.
			if !errors.Is(err, ErrOverload) {
				t.Fatal(err)
			}
			done.Done()
		}
	}
	done.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d async locates failed", n)
	}
}

func TestClusterOverloadSheds(t *testing.T) {
	tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
	bt := &blockingTransport{Transport: tr, gate: make(chan struct{})}
	c := New(bt, Options{Shards: 1, WorkersPerShard: 1, QueueDepth: 2, DisableCoalescing: true})
	defer c.Close()
	must(c.Register("svc", 3))
	// One task occupies the worker (blocked at the gate); fill the queue
	// and then some — the excess must shed, not block.
	shed := 0
	for i := 0; i < 10; i++ {
		if err := c.Submit(0, "svc", nil); errors.Is(err, ErrOverload) {
			shed++
		}
	}
	close(bt.gate)
	if shed == 0 {
		t.Fatal("no submissions shed past a full queue")
	}
	if m := c.Metrics(); m.Shed == 0 {
		t.Fatal("metrics did not count shed submissions")
	}
}

func TestClusterClose(t *testing.T) {
	tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
	c := New(tr, Options{})
	must(c.Register("svc", 3))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.Locate(0, "svc"); !errors.Is(err, ErrClosed) {
		t.Fatalf("locate after close: %v; want ErrClosed", err)
	}
	if err := c.Submit(0, "svc", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v; want ErrClosed", err)
	}
	if _, err := c.Register("svc2", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v; want ErrClosed", err)
	}
}

// TestClusterChurnCrashRestore: a crash drops a node's cache, a repost
// heals it, and a port re-registered elsewhere resolves there.
func TestClusterChurnCrashRestore(t *testing.T) {
	runHistory(t, `
world complete 36
columns model mem+cluster
register svc 7
crash 7
restore 7
repost svc
locate 0-35/5 svc
deregister svc
register svc 20
locate 0-35/5 svc`)
}

// TestMemTransportCrashedOriginParity: as on the simulator, a crashed
// client cannot query, a crashed origin cannot register, and a server
// migrates away from a crashed host — the fresh posting wins even though
// the tombstone could not be sent.
func TestMemTransportCrashedOriginParity(t *testing.T) {
	runHistory(t, `
world complete 16
columns model sim mem
register svc 3
crash 5
locate 5 svc
locate-all 5 svc
register svc2 5
register mover 2
crash 2
migrate mover 9
locate 0 mover`)
}

// TestClusterCloseDuringLocates closes the cluster while synchronous
// locates are in flight on the sim transport: in-flight calls must
// finish (or fail cleanly with ErrClosed), never panic into the closing
// network.
func TestClusterCloseDuringLocates(t *testing.T) {
	tr := must(NewSimTransport(topology.Complete(16), rendezvous.Checkerboard(16)))
	c := New(tr, Options{})
	must(c.Register("svc", 5))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := c.Locate(graph.NodeID((w+i)%16), "svc"); errors.Is(err, ErrClosed) {
					return
				} else if err != nil {
					t.Errorf("locate during close: %v", err)
					return
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestClusterSimTransport: a cluster over the simulator serves
// concurrent sweeps as the model answers, and charges passes.
func TestClusterSimTransport(t *testing.T) {
	sweeps := "locate 0-15 a\n& locate 0-15 b\n& locate 0-15 c\n& locate 0-15 d\n"
	r := runHistory(t, "world complete 16\ncolumns model sim+cluster\npost-batch a@5 b@5 c@9 d@12\n"+sweeps+sweeps)
	if m := r.cols[1].cl.Metrics(); m.Passes == 0 {
		t.Fatal("sim transport charged no passes")
	}
	// Hash Locate on every column: with "s"'s primary address (10) down, attempt 1 answers.
	t.Run("hash", func(t *testing.T) {
		runHistory(t, "world complete 16 hash=1 r=3\ncolumns model sim mem net\nregister s 5\ncrash 10\nlocate 0-15 s\nlocate-replica 1 0-15 s\nderegister s\nlocate 0-15 s")
	})
	// §3.1's exact counts on a 5×5 Manhattan grid: a post floods its row
	// (q−1 = 4 hops); a locate floods the client's column (p−1 = 4) and
	// the crossing replies (2). §5's on a complete graph: hash locate
	// posts one message to "s"'s one address (node 10) and a locate is
	// query + reply. Each charge is carried hop for hop.
	gr := must(topology.NewGrid(5, 5))
	lay := must(FixedLayout(16, rendezvous.Central(16, 0), 1))
	lay.Hash = 1
	grid, hash := must(NewSimTransport(gr.G, strategy.Manhattan(gr))), must(NewLayoutSimTransport(topology.Complete(16), lay))
	defer grid.Close()
	defer hash.Close()
	for i, tr := range []*SimTransport{grid, grid, hash, hash} {
		tr.ResetPasses()
		hops, err := tr.Hops(), error(nil)
		if i%2 == 0 {
			_, err = tr.Register("s", []graph.NodeID{gr.At(2, 2), 3}[i/2])
		} else {
			_, err = tr.Locate([]graph.NodeID{gr.At(4, 0), 9}[i/2], "s")
		}
		if want := []int64{4, 6, 1, 2}[i]; err != nil || tr.Passes() != want || tr.Hops()-hops != tr.Passes() {
			t.Errorf("op %d: charged %d passes, carried %d hops, %v; want %d", i, tr.Passes(), tr.Hops()-hops, err, want)
		}
	}
}

// gatedOp runs the i-th of the gated operations other than Locate and
// Submit on c for caller w; the caller's own registrations go to ports
// nobody locates. It returns ErrClosed when the gate was shut, nil when
// the operation went through as it should, and what went wrong
// otherwise.
func gatedOp(c *Cluster, client graph.NodeID, w, i int) error {
	switch own := core.Port(fmt.Sprintf("own-%d", w)); i % 7 {
	case 0:
		all, err := c.LocateAll(client, "svc")
		if err == nil && (len(all) != 1 || all[0].Addr != 5) {
			err = fmt.Errorf("locate-all = %+v", all)
		}
		return err
	case 1:
		res := make([]LocateRes, 2)
		err := c.LocateBatch([]LocateReq{{Client: client, Port: "svc"}, {Client: 0, Port: "svc"}}, res)
		for _, r := range res {
			if err == nil && (r.Err != nil || r.Entry.Addr != 5) {
				err = fmt.Errorf("batch locate = %+v, %v", r.Entry, r.Err)
			}
		}
		return err
	case 2:
		_, err := c.Register(own, client)
		return err
	case 3:
		_, err := c.PostBatch([]Registration{{Port: own, Node: client}, {Port: own, Node: 0}})
		return err
	case 4:
		if _, err := c.Resize(nil); !errors.Is(err, ErrNotElastic) {
			return err
		}
	case 5:
		if err := c.FinishResize(); !errors.Is(err, ErrNotElastic) {
			return err
		}
	case 6:
		if _, err := c.ReconcileRound(); !errors.Is(err, ErrNoAntiEntropy) {
			return err
		}
	}
	return nil
}

// closeWatchTransport fails the test if an operation overlaps or follows
// the transport's Close — what the cluster's close gate exists to
// prevent.
type closeWatchTransport struct {
	Transport
	t        *testing.T
	inFlight atomic.Int64
	closed   atomic.Bool
}

// watch marks one operation in flight until the returned func runs.
func (w *closeWatchTransport) watch(op string) func() {
	w.inFlight.Add(1)
	if w.closed.Load() {
		w.t.Errorf("%s reached the transport after it was closed", op)
	}
	return func() { w.inFlight.Add(-1) }
}

func (w *closeWatchTransport) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	defer w.watch("locate")()
	return w.Transport.Locate(client, port)
}

func (w *closeWatchTransport) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	defer w.watch("locate-all")()
	return w.Transport.LocateAll(client, port)
}

func (w *closeWatchTransport) LocateBatch(reqs []LocateReq, res []LocateRes) {
	defer w.watch("locate-batch")()
	w.Transport.LocateBatch(reqs, res)
}

func (w *closeWatchTransport) Register(port core.Port, node graph.NodeID) (ServerRef, error) {
	defer w.watch("register")()
	return w.Transport.Register(port, node)
}

func (w *closeWatchTransport) PostBatch(regs []Registration) ([]ServerRef, error) {
	defer w.watch("post-batch")()
	return w.Transport.PostBatch(regs)
}

func (w *closeWatchTransport) Close() error {
	w.closed.Store(true)
	if n := w.inFlight.Load(); n != 0 {
		w.t.Errorf("transport closed with %d operations in flight", n)
	}
	return w.Transport.Close()
}

// TestClusterCloseRacesCallers closes a cluster under eight goroutines
// of Locate, Submit and, in turn, every other gated operation —
// LocateAll, LocateBatch, Register, PostBatch, Resize, FinishResize,
// ReconcileRound — many times over: every call returns the right answer
// or ErrClosed (a send on a closed Submit queue would panic), Close
// returns only after the last admitted call and every accepted
// submission's callback, and a second Close is a no-op. Run it with
// -race -count=20.
func TestClusterCloseRacesCallers(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	for round := 0; round < rounds; round++ {
		tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
		c := New(&closeWatchTransport{Transport: tr, t: t}, Options{Shards: 2, QueueDepth: 8})
		must(c.Register("svc", 5))
		var (
			wg                 sync.WaitGroup
			calls              atomic.Int64
			accepted, answered atomic.Int64
			closeReturned      atomic.Bool
		)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					client := graph.NodeID((w*5 + i) % 16)
					calls.Add(1)
					e, err := c.Locate(client, "svc")
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil || e.Addr != 5 {
						t.Errorf("locate during close = %+v, %v", e, err)
						return
					}
					err = c.Submit(client, "svc", func(e core.Entry, err error) {
						if err != nil || e.Addr != 5 {
							t.Errorf("submitted locate during close = %+v, %v", e, err)
						}
						if closeReturned.Load() {
							t.Error("a submission's callback ran after Close returned")
						}
						answered.Add(1)
					})
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrClosed):
						return
					case !errors.Is(err, ErrOverload):
						t.Errorf("submit during close: %v", err)
						return
					}
					if err := gatedOp(c, client, w, i); errors.Is(err, ErrClosed) {
						return
					} else if err != nil {
						t.Errorf("during close: %v", err)
						return
					}
				}
			}(w)
		}
		for calls.Load() < int64(8+round%64) {
			runtime.Gosched() // close at a different depth into the traffic each round
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		closeReturned.Store(true)
		if err := c.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		wg.Wait()
		if a, d := accepted.Load(), answered.Load(); a != d {
			t.Fatalf("round %d: %d submissions accepted, %d answered", round, a, d)
		}
		if t.Failed() {
			return
		}
	}
}

// TestFlightTableCollisionAndSharing drives the flight table with a
// constant hash, so every pair lands on one stripe: two different pairs
// both resolve correctly without either joining the other's flight, and
// callers of one pair behind a blocked transport still share one flood.
func TestFlightTableCollisionAndSharing(t *testing.T) {
	const h = 7
	tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
	bt := &blockingTransport{Transport: tr, gate: make(chan struct{})}
	c := New(bt, Options{})
	defer c.Close()
	for port, node := range map[core.Port]graph.NodeID{"svc-a": 3, "svc-b": 9} {
		must(c.Register(port, node))
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	type answer struct {
		e   core.Entry
		err error
	}
	locate := func(wg *sync.WaitGroup, out *answer, client graph.NodeID, port core.Port) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.e, _, out.err = c.locateFlight(0, h, client, port, 0)
		}()
	}

	// Two pairs, one stripe: the second must flood for itself.
	var wg sync.WaitGroup
	var a, b answer
	locate(&wg, &a, 2, "svc-a")
	waitFor("the first pair's flood", func() bool { return bt.inCalls.Load() == 1 })
	locate(&wg, &b, 2, "svc-b")
	waitFor("the colliding pair's own flood (it joined the other pair's flight?)", func() bool { return bt.inCalls.Load() == 2 })
	bt.gate <- struct{}{}
	bt.gate <- struct{}{}
	wg.Wait()
	if a.err != nil || a.e.Addr != 3 || b.err != nil || b.e.Addr != 9 {
		t.Fatalf("colliding pairs resolved to %+v, %v and %+v, %v; want addresses 3 and 9", a.e, a.err, b.e, b.err)
	}
	if m := c.Metrics(); m.Coalesced != 0 {
		t.Fatalf("Coalesced = %d after two different pairs; want 0", m.Coalesced)
	}

	// One pair, many callers: the followers join the leader's flight.
	const followers = 6
	res := make([]answer, 1+followers)
	locate(&wg, &res[0], 4, "svc-a")
	waitFor("the leader's flood", func() bool { return bt.inCalls.Load() == 3 })
	for i := 1; i <= followers; i++ {
		locate(&wg, &res[i], 4, "svc-a")
	}
	st := &c.flights.stripes[h&(flightStripes-1)]
	waitFor("the followers to join", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.f != nil && st.f.refs.Load() == 1+followers
	})
	close(bt.gate)
	wg.Wait()
	for i, r := range res {
		if r.err != nil || r.e.Addr != 3 {
			t.Fatalf("caller %d = %+v, %v; want address 3", i, r.e, r.err)
		}
	}
	if n := bt.inCalls.Load(); n != 3 {
		t.Fatalf("%d floods reached the transport; want 3 (the followers share the leader's)", n)
	}
	if m := c.Metrics(); m.Coalesced != followers {
		t.Fatalf("Coalesced = %d; want %d", m.Coalesced, followers)
	}
}
