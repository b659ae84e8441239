package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestLocateBatchMatchesSequential checks the fast path's request-grouped
// batch against the one-at-a-time path on the same transport: identical
// answers and an identical total pass charge. Locates do not mutate the
// store, so running both back to back compares like with like.
func TestLocateBatchMatchesSequential(t *testing.T) {
	gr, err := topology.NewGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewMemTransport(gr.G, strategy.Manhattan(gr), 0)
	if err != nil {
		t.Fatal(err)
	}
	ports := []core.Port{"alpha", "beta", "missing"}
	if _, err := tr.Register("alpha", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register("beta", 29); err != nil {
		t.Fatal(err)
	}

	var reqs []LocateReq
	for c := 0; c < gr.G.N(); c += 4 {
		for _, p := range ports {
			reqs = append(reqs, LocateReq{Client: graph.NodeID(c), Port: p})
		}
	}
	seq := make([]LocateRes, len(reqs))
	before := tr.Passes()
	for i, r := range reqs {
		seq[i].Entry, seq[i].Err = tr.Locate(r.Client, r.Port)
	}
	seqCost := tr.Passes() - before

	res := make([]LocateRes, len(reqs))
	before = tr.Passes()
	tr.LocateBatch(reqs, res)
	batchCost := tr.Passes() - before

	if batchCost != seqCost {
		t.Fatalf("batch charged %d passes, sequential %d", batchCost, seqCost)
	}
	for i := range reqs {
		if (seq[i].Err == nil) != (res[i].Err == nil) {
			t.Fatalf("req %d (%+v): sequential err=%v batch err=%v", i, reqs[i], seq[i].Err, res[i].Err)
		}
		if seq[i].Err == nil && seq[i].Entry != res[i].Entry {
			t.Fatalf("req %d (%+v): sequential %+v != batch %+v", i, reqs[i], seq[i].Entry, res[i].Entry)
		}
	}
}

// TestPostBatchMatchesSequential prepares two identical transports, one
// via sequential Registers and one via a single PostBatch, and demands
// the same pass charge and the same visible postings everywhere.
func TestPostBatchMatchesSequential(t *testing.T) {
	const n = 36
	regs := []Registration{
		{Port: "alpha", Node: 3},
		{Port: "beta", Node: 35},
		{Port: "gamma", Node: 0},
		{Port: "alpha", Node: 17},
	}
	seqT, err := NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if _, err := seqT.Register(r.Port, r.Node); err != nil {
			t.Fatal(err)
		}
	}
	batchT, err := NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := batchT.PostBatch(regs)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(regs) {
		t.Fatalf("PostBatch returned %d refs, want %d", len(refs), len(regs))
	}
	for i, ref := range refs {
		if ref.Port() != regs[i].Port || ref.Node() != regs[i].Node {
			t.Fatalf("ref %d: (%s, %d), want (%s, %d)", i, ref.Port(), ref.Node(), regs[i].Port, regs[i].Node)
		}
	}
	if seqT.Passes() != batchT.Passes() {
		t.Fatalf("sequential registers charged %d passes, batch %d", seqT.Passes(), batchT.Passes())
	}
	for c := 0; c < n; c += 3 {
		for _, port := range []core.Port{"alpha", "beta", "gamma"} {
			e1, err1 := seqT.Locate(graph.NodeID(c), port)
			e2, err2 := batchT.Locate(graph.NodeID(c), port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("locate %q from %d: seq err=%v batch err=%v", port, c, err1, err2)
			}
			if err1 == nil && (e1.Addr != e2.Addr || e1.Active != e2.Active) {
				t.Fatalf("locate %q from %d: seq %+v != batch %+v", port, c, e1, e2)
			}
		}
	}
	// ServerRefs from a batch drive the normal lifecycle.
	if err := refs[1].Deregister(); err != nil {
		t.Fatal(err)
	}
	if _, err := batchT.Locate(1, "beta"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("locate after batch-ref deregister: %v; want ErrNotFound", err)
	}
}

// TestPostBatchValidation checks the all-or-nothing contract: one bad
// registration fails the batch before any effect.
func TestPostBatchValidation(t *testing.T) {
	tr, err := NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PostBatch([]Registration{
		{Port: "ok", Node: 1},
		{Port: "bad", Node: 99},
	}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("PostBatch with out-of-range node: %v; want ErrNodeRange", err)
	}
	if tr.Passes() != 0 {
		t.Fatalf("failed batch charged %d passes, want 0", tr.Passes())
	}
	if _, err := tr.Locate(2, "ok"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("failed batch left postings behind: %v", err)
	}
}

// TestClusterLocateBatch exercises the serving-layer wrapper with hints
// enabled: the second identical batch is answered entirely by probes.
func TestClusterLocateBatch(t *testing.T) {
	c, _ := newHintedMemCluster(t, 64, Options{Hints: true})
	names := make([]core.Port, 8)
	regs := make([]Registration, 8)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		regs[p] = Registration{Port: names[p], Node: graph.NodeID(p * 5)}
	}
	if _, err := c.PostBatch(regs); err != nil {
		t.Fatal(err)
	}
	var reqs []LocateReq
	for cl := 0; cl < 16; cl++ {
		reqs = append(reqs, LocateReq{Client: graph.NodeID(cl), Port: names[cl%len(names)]})
	}
	res := make([]LocateRes, len(reqs))
	if err := c.LocateBatch(reqs, res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("first batch req %d: %v", i, res[i].Err)
		}
	}
	res2 := make([]LocateRes, len(reqs))
	if err := c.LocateBatch(reqs, res2); err != nil {
		t.Fatal(err)
	}
	for i := range res2 {
		if res2[i].Err != nil {
			t.Fatalf("second batch req %d: %v", i, res2[i].Err)
		}
		if res2[i].Entry.Addr != res[i].Entry.Addr {
			t.Fatalf("req %d: hinted batch %+v != flooded batch %+v", i, res2[i].Entry, res[i].Entry)
		}
	}
	if m := c.Metrics(); m.HintHits != int64(len(reqs)) {
		t.Fatalf("HintHits = %d, want %d (whole second batch)", m.HintHits, len(reqs))
	}
}

// TestLocateBatchConcurrent hammers the batch path from several
// goroutines (with churn in the background) so the race detector sees
// the pooled floods and the store's copy-on-write rows under contention.
func TestLocateBatchConcurrent(t *testing.T) {
	c, tr := newHintedMemCluster(t, 64, Options{Hints: true})
	names := make([]core.Port, 8)
	refs := make([]ServerRef, 8)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		ref, err := c.Register(names[p], graph.NodeID(p*7))
		if err != nil {
			t.Fatal(err)
		}
		refs[p] = ref
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reqs := make([]LocateReq, 16)
			res := make([]LocateRes, 16)
			for iter := 0; iter < 50; iter++ {
				for i := range reqs {
					reqs[i] = LocateReq{
						Client: graph.NodeID((w*16 + i + iter) % 64),
						Port:   names[(i+iter)%len(names)],
					}
				}
				if err := c.LocateBatch(reqs, res); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 25; iter++ {
			p := iter % len(refs)
			_ = refs[p].Migrate(graph.NodeID((iter * 13) % 64))
			_ = tr.Crash(graph.NodeID((iter * 29) % 64))
			_ = tr.Restore(graph.NodeID((iter * 29) % 64))
		}
	}()
	wg.Wait()
}
