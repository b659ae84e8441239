package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestLaneAccountingExact checks that moving every per-operation
// counter from a client-keyed stripe to the caller's lane moved no
// count: eight goroutines run a script of every metered operation —
// Register, Locate as a flood, a hint hit and a stale hint, LocateBatch
// both ways, LocateAll, Submit — while twice as many lanes as there are
// stripes are held in flight, so stripes are shared between concurrent
// operations throughout. Afterwards Locates, HintHits, HintStale and
// Posts are the script's own numbers, Passes equals the same scripts
// run one after the other on a second cluster, every in-flight stripe
// reads zero and Close returns. Run it with -race -count=10.
func TestLaneAccountingExact(t *testing.T) {
	const (
		workers    = 8
		perWorker  = 3 // ports
		clientsPer = 4
	)
	newCluster := func() (*Cluster, *MemTransport) {
		gr := must(topology.NewGrid(8, 8))
		tr := must(NewMemTransport(gr.G, strategy.Manhattan(gr), 0))
		return New(tr, Options{Hints: true, Shards: 2}), tr
	}
	conc, concTr := newCluster()
	seq, seqTr := newCluster()
	defer seq.Close()

	// A registration bumps its port's generation shard, and with it the
	// hints of any port hashing to the same shard: the scripts are only
	// independent of each other — and of the order they run in — on
	// ports that share no shard, on either cluster's index.
	var ports []core.Port
	taken := [2]map[int]bool{{}, {}}
	for i := 0; len(ports) < workers*perWorker; i++ {
		p := core.Port(fmt.Sprintf("lane-%03d", i))
		a, b := concTr.gens.idx(p), seqTr.gens.idx(p)
		if !taken[0][a] && !taken[1][b] {
			taken[0][a], taken[1][b] = true, true
			ports = append(ports, p)
		}
	}

	var locates, hits, stale, posts int64 // what one script must add
	script := func(c *Cluster, w int, count bool) error {
		mine := ports[w*perWorker : (w+1)*perWorker]
		var pairs []LocateReq
		for _, p := range mine {
			for k := 0; k < clientsPer; k++ {
				pairs = append(pairs, LocateReq{Client: graph.NodeID(w*8 + k), Port: p})
			}
		}
		n := int64(len(pairs))
		res := make([]LocateRes, len(pairs))
		each := func(what string, want graph.NodeID) error {
			for _, r := range pairs {
				if e, err := c.Locate(r.Client, r.Port); err != nil || e.Addr != want {
					return fmt.Errorf("worker %d: %s locate of %q from %d = %+v, %v", w, what, r.Port, r.Client, e, err)
				}
			}
			return nil
		}
		batch := func(what string, want graph.NodeID) error {
			if err := c.LocateBatch(pairs, res); err != nil {
				return err
			}
			for i, r := range res {
				if r.Err != nil || r.Entry.Addr != want {
					return fmt.Errorf("worker %d: %s batch locate %d = %+v, %v", w, what, i, r.Entry, r.Err)
				}
			}
			return nil
		}
		first, second := graph.NodeID(63-w), graph.NodeID(32+w)
		for _, p := range mine {
			if _, err := c.Register(p, first); err != nil {
				return err
			}
		}
		if err := each("flood", first); err != nil { // no hint yet
			return err
		}
		if err := each("hit", first); err != nil {
			return err
		}
		if err := batch("hit", first); err != nil {
			return err
		}
		for _, p := range mine {
			if all, err := c.LocateAll(pairs[0].Client, p); err != nil || len(all) != 1 {
				return fmt.Errorf("worker %d: locate-all of %q = %v, %v", w, p, all, err)
			}
		}
		done := make(chan error, 1)
		for _, r := range pairs { // one at a time: a worker's locate of the pair must not overlap the next step's
			err := c.Submit(r.Client, r.Port, func(e core.Entry, err error) {
				if err == nil && e.Addr != first {
					err = fmt.Errorf("worker %d: submitted locate = %+v", w, e)
				}
				done <- err
			})
			if err == nil {
				err = <-done
			}
			if err != nil {
				return err
			}
		}
		for _, p := range mine { // a fresher instance elsewhere: every hint of the port goes stale
			if _, err := c.Register(p, second); err != nil {
				return err
			}
		}
		if err := batch("stale", second); err != nil {
			return err
		}
		if err := each("hit", second); err != nil {
			return err
		}
		if count {
			locates += 6*n + perWorker
			hits += 4 * n
			stale += n
			posts += 2 * perWorker
		}
		return nil
	}

	for w := 0; w < workers; w++ {
		if err := script(seq, w, true); err != nil {
			t.Fatal(err)
		}
	}

	held := make([]int, 2*stats.CounterStripes)
	for i := range held {
		stripe, ok := conc.enter()
		if !ok {
			t.Fatal("gate shut on an open cluster")
		}
		held[i] = stripe
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := script(conc, w, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, stripe := range held {
		conc.exit(stripe)
	}
	if t.Failed() {
		return
	}

	got, want := conc.Metrics(), seq.Metrics()
	if got.Locates != locates || got.HintHits != hits || got.HintStale != stale || got.Posts != posts {
		t.Errorf("concurrent: locates=%d hint hits=%d stale=%d posts=%d, the scripts add up to %d / %d / %d / %d",
			got.Locates, got.HintHits, got.HintStale, got.Posts, locates, hits, stale, posts)
	}
	if got.Errors != 0 || got.HintProbeFails != 0 {
		t.Errorf("concurrent: %d errors, %d failed probes", got.Errors, got.HintProbeFails)
	}
	if got.Passes != want.Passes || got.Locates != want.Locates || got.HintHits != want.HintHits {
		t.Errorf("concurrent run: %d passes, %d locates, %d hint hits; the same scripts in sequence: %d, %d, %d",
			got.Passes, got.Locates, got.HintHits, want.Passes, want.Locates, want.HintHits)
	}
	for s := 0; s < stats.CounterStripes; s++ {
		if n := conc.inflight.Stripe(s); n != 0 {
			t.Errorf("in-flight stripe %d reads %d with nothing in flight", s, n)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- conc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the gate still counts an operation in flight")
	}
}
