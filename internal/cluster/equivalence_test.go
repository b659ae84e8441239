package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// The equivalence suites: each is a history the runner executes on
// every column it names, checking answers call by call against the
// model and across columns, exact pass charges between columns with one
// front, and the runner's invariants (history_test.go). A net column is
// the wire substrate over in-process node servers, so none of these
// spawns a process.

// eqWorlds are the two geometries the transport suites run on, both 36
// nodes: a complete graph under the checkerboard, a grid under Manhattan.
var eqWorlds = map[string]string{"complete-checkerboard": "complete 36", "grid-manhattan": "grid 6 6"}

func runWorlds(t *testing.T, cols, steps string) {
	for name, w := range eqWorlds {
		t.Run(name, func(t *testing.T) { runHistory(t, "world "+w+"\ncolumns "+cols+"\n"+steps) })
	}
}

// lifecycle registers three servers, then migrates one and
// deregisters another, sweeping the clients after each.
const lifecycle = `
register alpha 12
register beta 35
register gamma 0
locate 0-35/3 alpha,beta,gamma
migrate alpha 18
locate 0-35/3 alpha,beta,gamma
deregister beta
locate 0-35/3 alpha,beta,gamma`

// probes: 2×Dist for an answered probe, live or stale, and 1×Dist for
// one a crashed address swallows — while live rendezvous nodes still
// hand out the crashed address.
const probes = `
register alpha 12
locate 1 alpha
probe 0-35/4 alpha 12
migrate alpha 35
probe 1 alpha 12
crash 35
locate 1 alpha
probe 1 alpha 35`

const batches = "post-batch alpha@12 beta@35\nlocate-batch 0-35/5 alpha,beta,nope"

func TestTransportEquivalence(t *testing.T)      { runWorlds(t, "model sim mem", lifecycle) }
func TestNetTransportEquivalence(t *testing.T)   { runWorlds(t, "model mem net", lifecycle) }
func TestTransportEquivalenceProbe(t *testing.T) { runWorlds(t, "model sim mem", probes) }
func TestNetTransportEquivalenceProbe(t *testing.T) {
	runHistory(t, "world grid 6 6\ncolumns model mem net\n"+probes)
}
func TestTransportEquivalenceBatch(t *testing.T)    { runWorlds(t, "model sim mem", batches) }
func TestNetTransportEquivalenceBatch(t *testing.T) { runWorlds(t, "model mem net", batches) }

// TestTransportEquivalenceRegisterCost: a posting's multicast-tree cost
// equals the simulator's hops, from every fifth origin.
func TestTransportEquivalenceRegisterCost(t *testing.T) {
	var b strings.Builder
	for v := 0; v < 36; v += 5 {
		fmt.Fprintf(&b, "register cost %d\n", v)
	}
	runWorlds(t, "model sim mem", b.String())
}

// TestNetTransportCrashEquivalence: a crashed rendezvous node is silent
// and its cache lost; after restore a registration there resolves.
func TestNetTransportCrashEquivalence(t *testing.T) {
	runHistory(t, `
world complete 36
columns model mem net
register alpha 25
register beta 26
crash 2
locate 0-35/2 alpha,beta
restore 2
register gamma 2
locate 0 gamma`)
}

// TestNetTransportHintedCluster: a hinted cluster over the wire answers
// as the model does, from hints after the first round.
func TestNetTransportHintedCluster(t *testing.T) {
	r := runHistory(t, `
world complete 36
columns model mem net+hints
register alpha 18
locate 0-35/4 alpha
locate 0-35/4 alpha
locate 0-35/4 alpha`)
	if m := r.cols[2].cl.Metrics(); m.HintHits == 0 {
		t.Fatalf("no hint hits over the net transport: %+v", m)
	}
}

// TestNetTransportWeightedEquivalence: promotion, hot locates, demotion
// and the sticky union postings on the weighted mem and net transports.
func TestNetTransportWeightedEquivalence(t *testing.T) {
	runHistory(t, `
world complete 36 weighted
columns model mem net
register hot 7
register cold 29
locate 0-35/5 hot,cold
set-hot-ports hot
locate 0-35/5 hot,cold
set-hot-ports
locate 0-35/5 hot,cold`)
}

// TestAntiEntropyCorruptEquivalence: three waves of seeded corruption,
// each healed within one round at equal repair counts and charges.
func TestAntiEntropyCorruptEquivalence(t *testing.T) {
	runWorlds(t, "model sim mem", `
post-batch alpha@12 beta@35 gamma@0
corrupt 1 24
reconcile
locate 0-35/4 alpha,beta,gamma
corrupt 42 24
reconcile
locate 0-35/4 alpha,beta,gamma
corrupt 1985 24
reconcile
locate 0-35/4 alpha,beta,gamma`)
}

// elasticCycle is a grow-then-shrink epoch cycle — the delta re-posts,
// the dual-epoch phase with old and new members locating, a
// registration on a new-only node, the retirement, a shrink refused
// while a server sits outside it, and a deregistration after the shrink
// that no stale posting may outlive.
const elasticCycle = `
world complete 48 active=36
register alpha 12
register beta 35
register gamma 0
locate 0-35/3 alpha,beta,gamma
resize 2 48 1
locate 0-47/3 alpha,beta,gamma
register delta 40
locate 0-47/3 alpha,beta,gamma,delta
finish-resize
locate 0-47/3 alpha,beta,gamma,delta
resize 3 36 1
migrate delta 20
resize 3 36 1
locate 0-47/3 alpha,beta,gamma,delta
finish-resize
locate 0-35/3 alpha,beta,gamma,delta
deregister delta
locate 0-35/5 delta
`

func TestElasticSimMemEquivalence(t *testing.T) {
	if r := runHistory(t, elasticCycle+"columns model sim mem"); r.tally.dual == 0 {
		t.Fatal("no locate was resolved by a retiring epoch: the dual-epoch path never engaged")
	}
}

// TestNetElasticResizeEquivalence: the grow half of the cycle over the
// wire.
func TestNetElasticResizeEquivalence(t *testing.T) {
	runHistory(t, elasticCycle[:strings.Index(elasticCycle, "resize 3")]+"columns model mem net")
}

// TestElasticReplicatedResizeEquivalence: an r = 2 transition with a
// crashed family-0 rendezvous of the new epoch (node 8, for alpha seen
// from client 7), bridged by the fallthrough on both.
func TestElasticReplicatedResizeEquivalence(t *testing.T) {
	runHistory(t, `
world complete 48 active=36 r=2
columns model sim mem
register alpha 7
register beta 29
locate 0-35/3 alpha,beta
resize 2 48 2
crash 8
locate 7 alpha
locate 0-47/3 alpha,beta
restore 8
finish-resize
locate 0-47/3 alpha,beta`)
}

// TestElasticHintedUnhintedAcrossResize: hinted answers equal unhinted
// ones across a resize cycle — the moved ports' generation bump makes
// hints re-resolve rather than serve the old epoch's view.
func TestElasticHintedUnhintedAcrossResize(t *testing.T) {
	r := runHistory(t, `
world complete 48 active=36
columns model mem+hints mem
post-batch a@2 b@13 c@24
locate 0-35/2 a,b,c
locate 0-35/2 a,b,c
resize 2 48 1
locate 0-47/2 a,b,c
locate 0-47/2 a,b,c
finish-resize
locate 0-47/2 a,b,c
locate 0-47/2 a,b,c`)
	if m := r.cols[1].cl.Metrics(); !m.Elastic || m.Epoch != 2 || m.MigratedPosts == 0 || m.HintHits == 0 {
		t.Fatalf("hinted metrics: elastic=%v epoch=%d migrated=%d hint hits=%d", m.Elastic, m.Epoch, m.MigratedPosts, m.HintHits)
	}
}

// TestReplicatedSimMemEquivalence: r = 2 healthy floods, then with
// alpha's replica-0 rendezvous for client 1 (node 6) crashed: the base
// flood paid in vain, the replica-1 flood and its replies, alike.
func TestReplicatedSimMemEquivalence(t *testing.T) {
	runHistory(t, `
world complete 36 r=2
columns model sim mem
register alpha 7
register beta 29
locate 0-35/3 alpha,beta
crash 6
locate 0-35/3 alpha,beta`)
}

// TestReplicatedLocateBatchFallthrough: a batch falls through per
// request, as the simulator's sequence of single locates does.
func TestReplicatedLocateBatchFallthrough(t *testing.T) {
	runHistory(t, `
world complete 36 r=2
columns model sim mem
register alpha 7
crash 6
locate-batch 0-35/4 alpha,nope`)
}

// byzHistory registers three servers in three thirds of a 36-node
// universe, so a three-process partition spreads them.
const byzHistory = `
world complete 36 r=3
post-batch alpha@7 beta@19 gamma@31
`

// TestByzantineVoteSimMemEquivalence: for every forgery class, voted
// locates on the simulator and the fast path believe no lie, fail
// nowhere, charge alike and quarantine alike.
func TestByzantineVoteSimMemEquivalence(t *testing.T) {
	for _, class := range forgeClassNames {
		t.Run(class, func(t *testing.T) {
			r := runHistory(t, byzHistory+"columns model sim+vote mem+vote\narm 1985 1 "+class+"\nlocate 0-35 alpha,beta,gamma")
			if r.tally.closed != 0 {
				t.Fatalf("%d voted locates failed closed with one liar among three families", r.tally.closed)
			}
		})
	}
}

// TestByzantineFloodAttribution: one flood of one family returns the
// same entry from the same rendezvous node on the simulator and the fast
// path, sweep after sweep. On the simulator a lie's reply is part of the
// locate's own message count; one sent past it would race the locate's
// return and surface here as a miss.
func TestByzantineFloodAttribution(t *testing.T) {
	sweep := "locate-replica 0 0-35 alpha,beta,gamma\nlocate-replica 1 0-35 alpha,beta,gamma\nlocate-replica 2 0-35 alpha,beta,gamma\n"
	for _, class := range forgeClassNames {
		t.Run(class, func(t *testing.T) {
			runHistory(t, byzHistory+"columns model sim mem\narm 1985 1 "+class+"\n"+strings.Repeat(sweep, 2))
		})
	}
}

// TestByzantineVoteNetEquivalence: the same plans over the wire vote to
// the same answers, charges and suspect sets, singly and in batches,
// with one cluster per column across all four classes.
func TestByzantineVoteNetEquivalence(t *testing.T) {
	var b strings.Builder
	for class := range 4 {
		fmt.Fprintf(&b, "arm %d 1 %s\nlocate 0-35/4 alpha,beta,gamma\nlocate-batch 1-35/13 alpha,beta,gamma\n", 64+class, forgeClassNames[ForgeClass(class)])
	}
	if r := runHistory(t, byzHistory+"columns model mem+vote net+vote\n"+b.String()); r.tally.closed != 0 {
		t.Fatalf("%d voted locates failed closed", r.tally.closed)
	}
}

// TestOneGeometryOneTransport pins that the constructor is not part of
// the geometry: a fixed layout and the equivalent seq-1 elastic epoch at
// full membership serve one P, Q pair, on either substrate — the same
// answers, charges and forged answers, through register, locate-replica,
// locate-all, migrate, deregister, crash, restore and an armed
// adversary. The adversary is the step that told them apart: it aimed
// its lies with a replica geometry only the strategy-built transports
// had, so the epoch-built ones' family filter discarded some.
func TestOneGeometryOneTransport(t *testing.T) {
	for _, rf := range []int{1, 3} {
		t.Run(fmt.Sprintf("r=%d", rf), func(t *testing.T) {
			var replicas, armed strings.Builder
			for k := range rf {
				fmt.Fprintf(&replicas, "locate-replica %d 0-35/5 beta\n", k)
				fmt.Fprintf(&armed, "locate-replica %d 0-35/3 alpha,beta,gamma\n", k)
			}
			sweep := "locate 0-35/3 alpha,beta,gamma,delta\n"
			r := runHistory(t, fmt.Sprintf("world complete 36 r=%d\ncolumns model mem mem/elastic net net/elastic\n", rf)+
				"post-batch alpha@7 beta@17 gamma@35\nregister delta 12\n"+sweep+replicas.String()+
				"locate-all 3 alpha,beta,gamma,delta\nmigrate alpha 23\nderegister delta\n"+sweep+
				"crash 1,17,20\n"+sweep+"restore 1,17,20\nrepost alpha\nrepost beta\nrepost gamma\n"+sweep+
				"arm 1 6 fabricate,stale\n"+armed.String()+"disarm\n"+sweep)
			if r.tally.forged == 0 {
				t.Fatal("no lie surfaced: the adversary is armed wrong")
			}
			suffix := map[int]string{1: "", 3: "-r3"}[rf]
			for i, want := range []string{"mem" + suffix, "mem-elastic", "net" + suffix, "net-elastic"} {
				if got := r.cols[i+1].tr.Name(); got != want {
					t.Errorf("transport names itself %q, want %q", got, want)
				}
			}
		})
	}
}

// TestLocateBatchMatchesSequential: the fast path's request-grouped
// batch answers and charges as the simulator's sequence of single
// locates does.
func TestLocateBatchMatchesSequential(t *testing.T) {
	runHistory(t, `
world grid 6 6
columns model sim mem
register alpha 10
register beta 29
locate-batch 0-35/4 alpha,beta,missing`)
}

// TestPostBatchMatchesSequential: one PostBatch charges and posts what
// the simulator's sequence of Registers does, and its ServerRefs drive
// the normal lifecycle.
func TestPostBatchMatchesSequential(t *testing.T) {
	runHistory(t, `
world complete 36
columns model sim mem
post-batch alpha@3 beta@35 gamma@0 alpha@17
locate 0-35/3 alpha,beta,gamma
deregister beta
locate 1 beta`)
}

// TestHintedUnhintedEquivalence: a churny workload — migrations, a
// deregistration and re-registration, a crash and restore — answers the
// same hinted and unhinted, the hinted cluster spending fewer passes.
func TestHintedUnhintedEquivalence(t *testing.T) {
	sweep := "locate 0-35/5 svc-0,svc-1,svc-2,svc-3\n"
	r := runHistory(t, "world complete 36\ncolumns model mem+hints mem+cluster\n"+
		"register svc-0 0\nregister svc-1 7\nregister svc-2 14\nregister svc-3 21\n"+sweep+"migrate svc-0 13\n"+sweep+
		"migrate svc-0 24\nderegister svc-1\nregister svc-1 20\ncrash 30\nrestore 30\n"+sweep+"migrate svc-0 35")
	hm, um := r.cols[1].cl.Metrics(), r.cols[2].cl.Metrics()
	if hm.HintHits == 0 || hm.Passes >= um.Passes {
		t.Fatalf("hinted run: %d hint hits, %d passes against %d unhinted", hm.HintHits, hm.Passes, um.Passes)
	}
}

// TestClusterReplicatedFallthroughMetrics: a hinted cluster over an
// r = 2 fast path with a dead rendezvous node answers as the model does,
// fully available, through fallthroughs and hints.
func TestClusterReplicatedFallthroughMetrics(t *testing.T) {
	sweep := "locate 0-4/2,8-34/2 alpha\n"
	r := runHistory(t, "world complete 36 r=2\ncolumns model mem+hints mem\nregister alpha 7\ncrash 6\n"+strings.Repeat(sweep, 3))
	if m := r.cols[1].cl.Metrics(); m.Errors != 0 || m.Availability != 1 || m.ReplicaFallthroughs == 0 || m.HintHits == 0 {
		t.Fatalf("degraded cluster lost availability, fell through nowhere or hit no hint: %+v", m)
	}
}

// TestLocatesRaceResize races every resize of a grow-shrink cycle with
// six full locate sweeps over the wire, outside the parallel histories
// so the race has both CPUs. A locate that counted the families before the new
// table was published, and missed on the new epoch's still-empty family
// after, must fall through to the old epoch's: it is found, as the model
// says, never not-found. Without the recount this history fails.
func TestLocatesRaceResize(t *testing.T) {
	var b strings.Builder
	for i := range 36 {
		fmt.Fprintf(&b, " p%d@%d", i, i)
	}
	for i := range 8 {
		fmt.Fprintf(&b, "\nresize %d %d 1", i+2, 36+12*(1-i%2))
		for j := range 6 {
			fmt.Fprintf(&b, "\n& locate 0-35/2 p%d", (i*6+j)%36)
		}
		b.WriteString("\nfinish-resize")
	}
	h := mustHistory(t, "world complete 48 active=36\ncolumns model net\npost-batch"+b.String())
	r := newRunner(t, h) // not runHistory, which would run it in parallel
	t.Cleanup(r.close)
	if err := r.try(h.steps); err != nil {
		t.Fatal(err)
	}
}
