package matchmake

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// bringUp is the benchmark's in-process set-up at n nodes: the complete
// graph, the checkerboard, a MemTransport (routing and set tables), a
// Cluster over it and one PostBatch announcing one server per node.
func bringUp(tb testing.TB, n int, regs []cluster.Registration) {
	tr, err := cluster.NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		tb.Fatal(err)
	}
	c := cluster.New(tr, cluster.Options{})
	if _, err := c.PostBatch(regs); err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

func bringUpRegs(n int) []cluster.Registration {
	regs := make([]cluster.Registration, n)
	for i := range regs {
		regs[i] = cluster.Registration{Port: core.Port(fmt.Sprintf("svc-%d", i)), Node: graph.NodeID(i)}
	}
	return regs
}

// BenchmarkBringUp times bringUp as the network grows: the work is
// O(n²) — the routing tables and the set tables are n² entries each —
// so each 4× in n should cost about 16× in time. CI writes its table to
// the job summary.
func BenchmarkBringUp(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		regs := bringUpRegs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bringUp(b, n, regs)
			}
		})
	}
}

// bringUpAllocCeilings bound the allocations of the benchmark's
// bring-up at n = 64 and at n = 256. They stand at the highest count
// measured when a posting stopped owning heap objects — 339 to 351 at
// n = 64 and 1 157 to 1 189 at n = 256 over 300 runs of this test's
// 5-run average; 2 331 and 14 703 before, when every new (node, port)
// row allocated its own entry list — plus 7. The count moves with the
// store's random hash seed, which spreads the ports over its shards and
// so decides how many shard tables a batch clones. A posted server's
// rows grow as n·√n, so the n = 256 ceiling catches a slide back to
// per-row allocation that n = 64 would hide. Lower them when bring-up
// allocates less; raise them only with a reason.
var bringUpAllocCeilings = []struct{ n, allocs int }{{64, 358}, {256, 1196}}

// TestBringUpAllocs is the deterministic ratchet on bringUp: a count of
// allocations, not a time, so a noisy machine cannot trip it.
func TestBringUpAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's sync.Pool drops Puts at random, so the count is not the program's")
	}
	for _, c := range bringUpAllocCeilings {
		regs := bringUpRegs(c.n)
		got := testing.AllocsPerRun(5, func() { bringUp(t, c.n, regs) })
		t.Logf("bring-up at n = %d: %.0f allocs", c.n, got)
		if got > float64(c.allocs) {
			t.Errorf("bring-up at n = %d made %.0f allocations, ceiling %d", c.n, got, c.allocs)
		}
	}
}
