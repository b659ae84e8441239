package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"matchmake/internal/topology"
)

// TestNetCorruptionChaos is the chaos gate on the socket backend: waves
// of deterministic adversarial corruption hit a live replicated (r = 2)
// 3-process loopback cluster and the in-process fast path with identical
// plans, anti-entropy repairs both within one round at identical repair
// counts and charges (the next round repairing nothing), and after every
// wave a full locate sweep agrees and misses nowhere.
func TestNetCorruptionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n = 60
	g, lay := topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2))
	addrs, _ := spawnNetCluster(t, n, 3)
	memT := must(NewLayoutMemTransport(g, lay, 0))
	netT, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const sweep = "locate 0-59/4 alpha,beta,gamma"
	r := runHistory(t, "world complete 60 r=2\npost-batch alpha@7 beta@29 gamma@51\n"+sweep,
		frontColumn("mem", memT, "", false), frontColumn("net", netT, "", true))
	for wave := range 3 {
		r.more(fmt.Sprintf("corrupt %d 25\nreconcile\n%s", 100+wave, sweep))
		everyFound(t, r)
	}
	if s := netT.ReconcileStats(); s.Injected != 3*25 || s.Repaired == 0 {
		t.Fatalf("net reconcile stats %+v, want 75 injected and repairs", s)
	}
}

// TestNetDualEpochRepairConsistent is the regression gate for the
// repairRange epoch race: a repair running mid-resize (dual-epoch phase)
// must re-post against the same set tables it used for its in-range
// check — one postSets load serving both — so its re-posts land exactly
// on the dual-epoch union ground truth. The reconcile round is the
// oracle: it recomputes every node's expected row from the live tables,
// so a posting the repair placed against another epoch's tables (or
// skipped) would show up as a repair.
func TestNetDualEpochRepairConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const universe = 48
	g, lay := topology.Complete(universe), elasticOf(mkEpoch(1, universe, 36, 1))
	addrs, _ := spawnNetCluster(t, universe, 3)
	memT := must(NewLayoutMemTransport(g, lay, 0))
	netT, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := runHistory(t, "world complete 48 active=36\ncolumns model\nregister alpha 12\nregister beta 35\nregister gamma 0\nreconcile",
		frontColumn("mem", memT, "", false), frontColumn("net", netT, "", true))
	quiet := func(stage string) {
		t.Helper()
		if out := r.last[1][0].out; !strings.HasPrefix(out, "repaired 0 then 0") {
			t.Fatalf("%s: net %s, want nothing to repair", stage, out)
		}
	}
	quiet("epoch 1")
	r.more("resize 2 48 1\nreconcile")
	quiet("dual phase")
	// Run the repair exactly as the repair loop would for a restarted
	// middle process, under the same lifeMu fence.
	ps := netT.wire.procs.Load()
	netT.lifeMu.RLock()
	netT.repairRange(netT.wire.hosts(ps.ranges[1][0], ps.ranges[1][1]))
	netT.lifeMu.RUnlock()
	r.more("reconcile")
	quiet("dual phase after repairRange")
	// Corruption mid-dual heals against the union ground truth in a round.
	r.more("corrupt 5 10\nreconcile\nfinish-resize\nreconcile")
	quiet("epoch 2")
	r.more("locate 0-47/3 alpha,beta,gamma")
	everyFound(t, r)
}
