package cluster

import (
	"fmt"
	"sync"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// TestPostBatchValidation checks the all-or-nothing contract: one bad
// registration fails the batch before any effect (the runner checks a
// refused batch charges nothing and leaves nothing behind).
func TestPostBatchValidation(t *testing.T) {
	runHistory(t, "world complete 16\ncolumns model mem\npost-batch ok@1 bad@99\nlocate 2 ok")
}

// TestClusterLocateBatch exercises the serving-layer wrapper with hints
// enabled: the second identical batch is answered entirely by probes.
func TestClusterLocateBatch(t *testing.T) {
	const batch = "locate-batch 0-15 s0,s1,s2,s3,s4,s5,s6,s7\n"
	r := runHistory(t, "world complete 64\ncolumns model mem+hints\npost-batch s0@0 s1@5 s2@10 s3@15 s4@20 s5@25 s6@30 s7@35\n"+batch+batch)
	if m := r.cols[1].cl.Metrics(); m.HintHits != 16*8 {
		t.Fatalf("HintHits = %d, want %d (the whole second batch)", m.HintHits, 16*8)
	}
}

// TestLocateBatchConcurrent hammers the batch path from several
// goroutines (with churn in the background) so the race detector sees
// the pooled floods and the store's copy-on-write rows under contention.
func TestLocateBatchConcurrent(t *testing.T) {
	c, tr := newMemCluster(t, 64, Options{Hints: true})
	names := make([]core.Port, 8)
	refs := make([]ServerRef, 8)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		ref := must(c.Register(names[p], graph.NodeID(p*7)))
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
