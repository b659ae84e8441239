package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

func TestStorePutGetSupersede(t *testing.T) {
	s := NewStore(8, 0)
	node := graph.NodeID(3)
	s.Put(node, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 5, Active: true})
	s.Put(node, core.Entry{Port: "p", Addr: 2, ServerID: 1, Time: 9, Active: true})
	// Stale posting for the same instance must be ignored.
	s.Put(node, core.Entry{Port: "p", Addr: 7, ServerID: 1, Time: 4, Active: true})

	e, ok := s.Get(node, "p")
	if !ok || e.Addr != 2 || e.Time != 9 {
		t.Fatalf("Get = %+v, %v; want addr 2 time 9", e, ok)
	}
	if _, ok := s.Get(node, "other"); ok {
		t.Fatal("Get(other) hit on empty port")
	}
	if _, ok := s.Get(graph.NodeID(4), "p"); ok {
		t.Fatal("Get hit on wrong node")
	}
}

func TestStoreTombstone(t *testing.T) {
	s := NewStore(8, 0)
	node := graph.NodeID(0)
	s.Put(node, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 1, Active: true})
	s.Put(node, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 2, Active: false})
	if _, ok := s.Get(node, "p"); ok {
		t.Fatal("tombstoned entry still visible")
	}
	// A second live instance keeps the port resolvable.
	s.Put(node, core.Entry{Port: "p", Addr: 5, ServerID: 2, Time: 3, Active: true})
	e, ok := s.Get(node, "p")
	if !ok || e.ServerID != 2 {
		t.Fatalf("Get = %+v, %v; want live instance 2", e, ok)
	}
	all := s.GetAll(node, "p")
	if len(all) != 1 || all[0].ServerID != 2 {
		t.Fatalf("GetAll = %v; want only instance 2", all)
	}
}

func TestStoreTombstonePruning(t *testing.T) {
	s := NewStore(4, 0)
	node := graph.NodeID(1)
	// Churn far past the tombstone cap: every instance dies.
	for i := 1; i <= 10*maxSlotTombstones; i++ {
		id := uint64(i)
		s.Put(node, core.Entry{Port: "p", Addr: 0, ServerID: id, Time: s.NextTime(), Active: true})
		s.Put(node, core.Entry{Port: "p", Addr: 0, ServerID: id, Time: s.NextTime(), Active: false})
	}
	sl := s.Rows("p").slot(node)
	if sl == nil {
		t.Fatal("slot missing")
	}
	if n := len(*sl.entries.Load()); n > maxSlotTombstones+1 {
		t.Fatalf("slot grew to %d entries; want ≤ %d", n, maxSlotTombstones+1)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	s := NewStore(64, 0)
	const (
		writers = 8
		ports   = 16
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := core.Port(fmt.Sprintf("port-%d", r%ports))
				node := graph.NodeID(r % 64)
				s.Put(node, core.Entry{
					Port: p, Addr: graph.NodeID(w), ServerID: uint64(w + 1),
					Time: s.NextTime(), Active: true,
				})
				s.Get(node, p)
				s.GetAll(node, p)
			}
		}(w)
	}
	wg.Wait()
	// Every port written at node 0 must resolve to some live instance.
	for i := 0; i < ports; i++ {
		p := core.Port(fmt.Sprintf("port-%d", i))
		found := false
		for v := graph.NodeID(0); v < 64 && !found; v++ {
			_, found = s.Get(v, p)
		}
		if !found {
			t.Fatalf("port %s lost after concurrent writes", p)
		}
	}
}

func TestStoreClearNode(t *testing.T) {
	s := NewStore(8, 0)
	s.Put(2, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 1, Active: true})
	s.Put(3, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 1, Active: true})
	s.ClearNode(2)
	if _, ok := s.Get(2, "p"); ok {
		t.Fatal("cleared node still answers")
	}
	if _, ok := s.Get(3, "p"); !ok {
		t.Fatal("untouched node lost its entry")
	}
	if s.NodeSize(3) != 1 {
		t.Fatalf("NodeSize(3) = %d; want 1", s.NodeSize(3))
	}
}

// TestStoreClearNodeIsolation clears one node of a store whose rows span
// several ports and shards: exactly that node's rows go, and NodeSize,
// Get and DumpRange of every other node read as before.
func TestStoreClearNodeIsolation(t *testing.T) {
	const n = 8
	ports := []core.Port{"alpha", "beta", "gamma", "delta", "epsilon"}
	// held[p] lists the nodes holding a row for ports[p]: overlapping,
	// disjoint and single-node sets, and a tombstone-only row.
	held := [][]graph.NodeID{{0, 2, 5}, {2, 3}, {5}, {0, 1, 2, 3, 4, 5, 6, 7}, {2, 6}}
	build := func() *Store {
		for {
			s := NewStore(n, 4)
			for p, nodes := range held {
				for _, v := range nodes {
					s.Put(v, core.Entry{Port: ports[p], Addr: v, ServerID: uint64(p + 1), Time: s.NextTime(), Active: true})
				}
			}
			s.Put(6, core.Entry{Port: "epsilon", Addr: 6, ServerID: 5, Time: s.NextTime(), Active: false})
			// The shard hash is seeded per store: rebuild in the rare case
			// all five ports landed in one shard.
			spans := make(map[uint64]bool)
			for _, p := range ports {
				spans[s.shard(p)] = true
			}
			if len(spans) >= 2 {
				return s
			}
		}
	}
	type view struct {
		size int
		get  map[core.Port]core.Entry
		dump []string
	}
	look := func(s *Store, v graph.NodeID) view {
		w := view{size: s.NodeSize(v), get: make(map[core.Port]core.Entry)}
		for _, p := range ports {
			if e, ok := s.Get(v, p); ok {
				w.get[p] = e
			}
		}
		for _, ne := range s.DumpRange(int(v), int(v)+1) {
			if ne.Node != v {
				t.Fatalf("DumpRange(%d, %d) returned a row of node %d", v, v+1, ne.Node)
			}
			w.dump = append(w.dump, fmt.Sprintf("%s#%d@%dt%d/%v", ne.E.Port, ne.E.ServerID, ne.E.Addr, ne.E.Time, ne.E.Active))
		}
		slices.Sort(w.dump)
		return w
	}
	for v := graph.NodeID(0); v < n; v++ {
		t.Run(fmt.Sprintf("clear=%d", v), func(t *testing.T) {
			s := build()
			before := make([]view, n)
			for u := graph.NodeID(0); u < n; u++ {
				before[u] = look(s, u)
			}
			if len(before[v].dump) == 0 {
				t.Fatalf("node %d holds nothing to clear", v)
			}
			s.ClearNode(v)
			if got := look(s, v); got.size != 0 || len(got.get) != 0 || len(got.dump) != 0 {
				t.Errorf("cleared node %d still holds %+v", v, got)
			}
			for u := graph.NodeID(0); u < n; u++ {
				if u == v {
					continue
				}
				if got := look(s, u); !reflect.DeepEqual(got, before[u]) {
					t.Errorf("clearing node %d changed node %d:\n  before %+v\n  after  %+v", v, u, before[u], got)
				}
			}
			// The cleared node takes postings again.
			s.Put(v, core.Entry{Port: "alpha", Addr: v, ServerID: 9, Time: s.NextTime(), Active: true})
			if e, ok := s.Get(v, "alpha"); !ok || e.ServerID != 9 {
				t.Errorf("post after clear: Get = %+v, %v", e, ok)
			}
		})
	}
}

// TestStoreHammerAgainstReference runs every Store operation from many
// goroutines at once and, at quiescence, compares the store with a
// mutex-guarded reference map. Each goroutine writes only the nodes it
// owns — so every (node, port) slot has one writer and the reference is
// exact — while all of them share the ports, and with them the shard
// tables and the per-port rows the writers reshape under each other's
// reads. Run it with -race.
func TestStoreHammerAgainstReference(t *testing.T) {
	const (
		workers = 8
		perW    = 4 // nodes owned per worker
		n       = workers * perW
		nports  = 12
		ids     = 4 // server instances per slot: tombstones stay under the cap
		rounds  = 3000
	)
	s := NewStore(n, 4)
	ports := make([]core.Port, nports)
	for p := range ports {
		ports[p] = core.Port(fmt.Sprintf("port-%d", p))
	}
	type slotKey struct {
		node graph.NodeID
		port core.Port
	}
	var (
		refMu sync.Mutex
		ref   = make(map[slotKey]map[uint64]core.Entry)
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var buf []core.Entry
			for r := 0; r < rounds; r++ {
				node := graph.NodeID(w*perW + rng.Intn(perW))
				port := ports[rng.Intn(nports)]
				k := slotKey{node, port}
				e := core.Entry{Port: port, Addr: graph.NodeID(rng.Intn(n)), ServerID: uint64(1 + rng.Intn(ids)), Active: rng.Intn(4) > 0}
				switch op := rng.Intn(100); {
				case op < 40: // Put, sometimes with a stale timestamp
					e.Time = s.NextTime()
					if rng.Intn(8) == 0 {
						e.Time = 1
					}
					s.Put(node, e)
					refMu.Lock()
					if ref[k] == nil {
						ref[k] = make(map[uint64]core.Entry)
					}
					if cur, ok := ref[k][e.ServerID]; !ok || e.Time > cur.Time {
						ref[k][e.ServerID] = e
					}
					refMu.Unlock()
				case op < 55:
					s.Get(graph.NodeID(rng.Intn(n)), port) // anyone's node: a racing read
				case op < 70:
					buf = s.GetAllInto(graph.NodeID(rng.Intn(n)), port, buf[:0])
				case op < 80:
					s.Drop(node, port, e.ServerID)
					refMu.Lock()
					delete(ref[k], e.ServerID)
					refMu.Unlock()
				case op < 90: // Inject ignores the merge rule
					e.Time = uint64(1 + rng.Intn(50))
					s.Inject(node, e)
					refMu.Lock()
					if ref[k] == nil {
						ref[k] = make(map[uint64]core.Entry)
					}
					ref[k][e.ServerID] = e
					refMu.Unlock()
				case op < 93:
					s.ClearNode(node)
					refMu.Lock()
					for rk := range ref {
						if rk.node == node {
							delete(ref, rk)
						}
					}
					refMu.Unlock()
				default:
					lo := rng.Intn(n)
					for _, ne := range s.DumpRange(lo, lo+perW) {
						if int(ne.Node) < lo || int(ne.Node) >= lo+perW {
							t.Errorf("DumpRange(%d, %d) returned node %d", lo, lo+perW, ne.Node)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	got := make(map[slotKey]map[uint64]core.Entry)
	for _, ne := range s.DumpRange(0, n) {
		k := slotKey{ne.Node, ne.E.Port}
		if got[k] == nil {
			got[k] = make(map[uint64]core.Entry)
		}
		if _, dup := got[k][ne.E.ServerID]; dup {
			t.Errorf("slot %v holds instance %d twice", k, ne.E.ServerID)
		}
		got[k][ne.E.ServerID] = ne.E
	}
	for k, want := range ref {
		if len(want) == 0 {
			delete(ref, k) // a slot emptied by Drop dumps nothing
		}
	}
	if !reflect.DeepEqual(got, ref) {
		for k, want := range ref {
			if !reflect.DeepEqual(got[k], want) {
				t.Errorf("slot %v = %v, reference says %v", k, got[k], want)
			}
		}
		for k := range got {
			if _, ok := ref[k]; !ok {
				t.Errorf("slot %v = %v, reference holds nothing", k, got[k])
			}
		}
	}
	for v := graph.NodeID(0); v < n; v++ {
		size := 0
		for _, port := range ports {
			var best core.Entry
			found := false
			for _, e := range ref[slotKey{v, port}] {
				if e.Active && (!found || e.Time > best.Time) {
					best, found = e, true
				}
			}
			if found {
				size++
			}
			e, ok := s.Get(v, port)
			if ok != found || (found && e.Time != best.Time) {
				t.Errorf("Get(%d, %s) = %+v, %v; reference freshest %+v, %v", v, port, e, ok, best, found)
			}
		}
		if got := s.NodeSize(v); got != size {
			t.Errorf("NodeSize(%d) = %d; reference says %d", v, got, size)
		}
	}
}

// TestStoreSharedList pins the one-list-per-post rule: a post to k fresh
// rows hands all k slots the same list, and a later write to one row —
// Drop, Inject, a tombstone, a re-post — gives that row a list of its
// own, so the other k−1 rows still share and read the posting. A reader
// scans every row throughout, for the race detector.
func TestStoreSharedList(t *testing.T) {
	const k, w = 16, graph.NodeID(5)
	m := newMemSubstrate(k, 0)
	e := core.Entry{Port: "p", Addr: 3, ServerID: 1, Time: 1, Active: true}
	keys := make([]rowKey, k)
	for v := range keys {
		keys[v].node = graph.NodeID(v)
	}
	m.post([]core.Entry{e}, keys)
	rs := m.store.Rows("p")
	shared := rs.slot(0).entries.Load()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for v := range graph.NodeID(k) {
				rs.slot(v).readFreshestIn(scope{}, v)
			}
		}
	}()
	writes := []func(){
		func() { m.store.Drop(w, "p", 1) },
		func() { m.store.Inject(w, core.Entry{Port: "p", Addr: 9, ServerID: 1, Time: 1, Active: true}) },
		func() { m.store.Put(w, core.Entry{Port: "p", Addr: 9, ServerID: 1, Time: 2}) },
		func() { m.post([]core.Entry{{Port: "p", Addr: 7, ServerID: 2, Time: 3, Active: true}}, keys[w:w+1]) },
	}
	for i, write := range append([]func(){func() {}}, writes...) {
		write()
		for v := range graph.NodeID(k) {
			got, ok := m.store.Get(v, "p")
			if v != w && (rs.slot(v).entries.Load() != shared || !ok || got != e) {
				t.Fatalf("after write %d to row %d, row %d reads %+v, %v from its own list; want %+v from the post's", i, w, v, got, ok, e)
			}
		}
	}
	close(stop)
	<-done
	if got, ok := m.store.Get(w, "p"); !ok || got.ServerID != 2 || got.Addr != 7 {
		t.Fatalf("row %d reads %+v, %v; want the re-post of server 2 at 7", w, got, ok)
	}
}

// TestStoreSharedListConcurrentBatches races post batches that create
// rows in the same shards and ports, each writer skipping a quarter of
// the ports so that later batches add ports to tables earlier ones
// grew: every writer's entry must land in every row of its batch, and
// nowhere else, whichever batch made the row.
func TestStoreSharedListConcurrentBatches(t *testing.T) {
	const writers, ports, n = 4, 24, 16
	m := newMemSubstrate(n, 4)
	posts := func(w, p int, v graph.NodeID) bool { return p%writers != w && (int(v)+p+w)%3 != 0 }
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var entries []core.Entry
			var keys []rowKey
			for p := range ports {
				entries = append(entries, core.Entry{Port: core.Port(fmt.Sprint("p", p)), ServerID: uint64(w + 1), Time: 1, Active: true})
				for v := range graph.NodeID(n) {
					if posts(w, p, v) {
						keys = append(keys, rowKey{req: int32(p), node: v})
					}
				}
			}
			m.post(entries, keys)
		}()
	}
	wg.Wait()
	for w := range writers {
		for p := range ports {
			for v := range graph.NodeID(n) {
				all := m.store.GetAll(v, core.Port(fmt.Sprint("p", p)))
				if held := slices.ContainsFunc(all, func(e core.Entry) bool { return e.ServerID == uint64(w+1) }); held != posts(w, p, v) {
					t.Fatalf("row (%d, p%d) holds writer %d's entry: %v; rows %v", v, p, w, held, all)
				}
			}
		}
	}
}
