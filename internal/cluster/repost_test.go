package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
)

// loopbackServers serves an n-node cluster from procs in-process
// NodeServers on ephemeral loopback ports and returns their addresses
// in partition order, with the servers behind them.
func loopbackServers(t testing.TB, n, procs int) ([]string, []*NodeServer) {
	t.Helper()
	addrs, servers := make([]string, procs), make([]*NodeServer, procs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := PartitionRange(n, procs, i)
		s, err := NewNodeServer(n, lo, hi, ln)
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		addrs[i], servers[i] = ln.Addr().String(), s
	}
	return addrs, servers
}

// loopbackNodes is loopbackServers for callers that only dial.
func loopbackNodes(t testing.TB, n, procs int) []string {
	t.Helper()
	addrs, _ := loopbackServers(t, n, procs)
	return addrs
}

// TestRepostNeverResurrects races the owners' lifecycle operations
// (Migrate, Deregister, Register) against every system-driven re-poster
// — reconciliation rounds plus hot-port promotion on a weighted
// transport, reconciliation rounds plus epoch resizes on an elastic one
// — on both substrates. A system re-post carries a fresh timestamp, so
// one that slips past a lifecycle operation's tombstone resurrects a
// server; repostLocked is what forbids it. At quiescence no locate may
// name a deregistered instance or an address a server has left (a
// racing reconciliation round may legitimately have expired a fresh
// posting it took for an orphan, so a miss is tolerated there, a wrong
// answer never); one reconciliation round then heals such misses, the
// next finds nothing to do, and every locate succeeds.
func TestRepostNeverResurrects(t *testing.T) {
	const (
		universe = 36
		homes    = 25 // every server stays inside the smaller epoch
		ports    = 6
		churners = 4
		opsEach  = 120
	)
	worlds := map[string]string{"weighted": "complete 36 weighted", "elastic": "complete 36 active=25 r=2"}
	builds := map[string]func(t *testing.T) system{}
	for _, kind := range []string{"mem", "net"} {
		for mode, w := range worlds {
			builds[kind+"/"+mode] = func(t *testing.T) system {
				g, lay, err := buildWorld(strings.Fields(w))
				if err != nil {
					t.Fatal(err)
				}
				return newColumn(t, g, lay, kind).tr
			}
		}
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			tr := build(t)
			defer tr.Close()
			portName := func(i int) core.Port { return core.Port(fmt.Sprintf("svc-%d", i)) }

			// The system side: reconciliation rounds, and the mode's own
			// re-poster, until the churn is done.
			stop := make(chan struct{})
			var system sync.WaitGroup
			loop := func(step func(i int)) {
				system.Add(1)
				go func() {
					defer system.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							step(i)
						}
					}
				}()
			}
			loop(func(int) {
				if _, err := tr.ReconcileRound(); err != nil {
					t.Errorf("reconcile: %v", err)
				}
			})
			if et, ok := tr.(ElasticTransport); ok && et.Elastic() {
				seq := uint64(1)
				loop(func(i int) {
					seq++
					active := homes
					if i%2 == 0 {
						active = universe
					}
					ep, err := strategy.NewEpoch(seq, universe, rendezvous.Checkerboard(active), 2)
					if err != nil {
						t.Errorf("epoch %d: %v", seq, err)
						return
					}
					if _, err := et.Resize(ep); err != nil {
						t.Errorf("resize to %d: %v", active, err)
					}
					if err := et.FinishResize(); err != nil {
						t.Errorf("finish resize: %v", err)
					}
				})
			} else {
				hr := tr.(HotReclassifier)
				loop(func(i int) {
					var hot []core.Port
					for p := 0; p < ports; p++ {
						if (p+i)%2 == 0 {
							hot = append(hot, portName(p))
						}
					}
					if err := hr.SetHotPorts(hot); err != nil {
						t.Errorf("set hot ports: %v", err)
					}
				})
			}

			// The owners' side: each churner owns its servers outright, so
			// lifecycle operations on one server never race each other —
			// only the system.
			type owned struct {
				ref  ServerRef
				node graph.NodeID
			}
			var (
				mu   sync.Mutex
				live = make(map[core.Port]map[uint64]graph.NodeID)
			)
			var churn sync.WaitGroup
			for w := 0; w < churners; w++ {
				churn.Add(1)
				go func() {
					defer churn.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					home := func() graph.NodeID { return graph.NodeID(rng.Intn(homes)) }
					mine := make([]owned, 0, ports)
					register := func(port core.Port) {
						node := home()
						ref, err := tr.Register(port, node)
						if err != nil {
							t.Errorf("register %q at %d: %v", port, node, err)
							return
						}
						mine = append(mine, owned{ref: ref, node: node})
					}
					for p := 0; p < ports; p++ {
						register(portName(p))
					}
					for op := 0; op < opsEach && len(mine) > 0; op++ {
						i := rng.Intn(len(mine))
						if rng.Intn(4) > 0 {
							to := home()
							if err := mine[i].ref.Migrate(to); err != nil {
								t.Errorf("migrate %q to %d: %v", mine[i].ref.Port(), to, err)
							}
							mine[i].node = to
							continue
						}
						port := mine[i].ref.Port()
						if err := mine[i].ref.Deregister(); err != nil {
							t.Errorf("deregister %q: %v", port, err)
						}
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						register(port)
					}
					mu.Lock()
					defer mu.Unlock()
					for _, o := range mine {
						byID := live[o.ref.Port()]
						if byID == nil {
							byID = make(map[uint64]graph.NodeID)
							live[o.ref.Port()] = byID
						}
						byID[o.ref.(*server).id] = o.node
					}
				}()
			}
			churn.Wait()
			close(stop)
			system.Wait()

			clients := universe
			if et, ok := tr.(ElasticTransport); ok && et.Elastic() {
				clients = homes // members of whichever epoch ended up serving
			}
			legit := func(stage string, port core.Port, e core.Entry) {
				if node, ok := live[port][e.ServerID]; !ok {
					t.Errorf("%s: locate %q named instance %d, which is not registered (resurrected)", stage, port, e.ServerID)
				} else if node != e.Addr {
					t.Errorf("%s: locate %q named instance %d at %d, but it lives at %d (pre-migration address)", stage, port, e.ServerID, e.Addr, node)
				}
			}
			sweep := func(stage string, mustFind bool) {
				for p := 0; p < ports; p++ {
					port := portName(p)
					for c := 0; c < clients; c++ {
						e, err := tr.Locate(graph.NodeID(c), port)
						switch {
						case err == nil:
							legit(stage, port, e)
						case mustFind || !errors.Is(err, core.ErrNotFound):
							t.Errorf("%s: locate %q from %d: %v", stage, port, c, err)
						}
						all, err := tr.LocateAll(graph.NodeID(c), port)
						if err != nil && (mustFind || !errors.Is(err, core.ErrNotFound)) {
							t.Errorf("%s: locate-all %q from %d: %v", stage, port, c, err)
						}
						for _, e := range all {
							legit(stage, port, e)
						}
					}
				}
			}
			sweep("at quiescence", false)
			if _, err := tr.ReconcileRound(); err != nil {
				t.Fatal(err)
			}
			if r, err := tr.ReconcileRound(); err != nil || r != 0 {
				t.Fatalf("second quiescent reconcile repaired %d (err=%v), want 0", r, err)
			}
			sweep("after reconcile", true)
		})
	}
}
