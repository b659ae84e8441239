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

// bringUpAllocCeiling bounds the allocations of the benchmark's 64-node
// bring-up. It stands at the count measured when bring-up became O(n²)
// — 2 331 to 2 333, 4 613 to 4 615 before — plus 7: the count moves by
// a few with the store's random hash seed, which spreads the ports over
// its shards and so sizes the shard maps it clones. Lower it when
// bring-up allocates less; raise it only with a reason.
const bringUpAllocCeiling = 2340

// TestBringUpAllocs is the deterministic ratchet on bringUp at n = 64:
// a count of allocations, not a time, so a noisy machine cannot trip it.
func TestBringUpAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's sync.Pool drops Puts at random, so the count is not the program's")
	}
	regs := bringUpRegs(64)
	got := testing.AllocsPerRun(5, func() { bringUp(t, 64, regs) })
	t.Logf("bring-up at n = 64: %.0f allocs", got)
	if got > bringUpAllocCeiling {
		t.Errorf("bring-up at n = 64 made %.0f allocations, ceiling %d", got, bringUpAllocCeiling)
	}
}
