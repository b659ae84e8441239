package cluster

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
)

// MemTransport is the in-process fast path: the coordinator over a
// sharded Store, with no per-message goroutines, channels or timeouts.
// It still charges the exact message-pass cost the simulator would on a
// healthy network — see coordinator; this file only holds the rows.
type MemTransport struct {
	*coordinator
	mem *memSubstrate
}

// NewMemTransport builds the fast path over g with strategy strat at
// full, fixed membership. The strategy's universe must match the graph
// size; shards sizes the backing store (0 picks a default).
func NewMemTransport(g *graph.Graph, strat rendezvous.Strategy, shards int) (*MemTransport, error) {
	lay, err := FixedLayout(g.N(), strat, 1)
	if err != nil {
		return nil, err
	}
	return NewLayoutMemTransport(g, lay, shards)
}

// NewLayoutMemTransport builds the fast path over g serving lay —
// replicated, weighted or elastic as the layout says.
func NewLayoutMemTransport(g *graph.Graph, lay Layout, shards int) (*MemTransport, error) {
	c, err := newCoordinator(g, lay)
	if err != nil {
		return nil, err
	}
	m := newMemSubstrate(g.N(), shards)
	c.sub = m
	return &MemTransport{coordinator: c, mem: m}, nil
}

// Store exposes the backing rendezvous cache (for tests and reports).
func (t *MemTransport) Store() *Store { return t.mem.store }

func (t *MemTransport) inProcess() {}

// memSubstrate is the in-process substrate: rows in a port-major Store,
// liveness records in a copy-on-write table, armed lies in an atomically
// swapped table consulted on every read.
type memSubstrate struct {
	store *Store

	// live is the table probes answer from: a copy-on-write snapshot
	// (rebuilt under liveMu when an instance appears or disappears, a
	// rare heavyweight event) whose records republish their home
	// atomically, so the probe hot path is one atomic load and a map
	// read — no lock, no allocation, no reader contention — and a
	// migration costs one atomic store.
	liveMu sync.Mutex
	live   atomic.Pointer[map[uint64]*memLive]

	// forge is the armed Byzantine lie table (nil when disarmed): an
	// armed node forges or suppresses its answer instead of reading its
	// (healthy) rows.
	forge atomic.Pointer[forgeTable]
}

// memLive is one instance's liveness record.
type memLive struct {
	port core.Port
	node atomic.Int64
}

func newMemSubstrate(n, shards int) *memSubstrate {
	m := &memSubstrate{store: NewStore(n, shards)}
	empty := make(map[uint64]*memLive)
	m.live.Store(&empty)
	return m
}

func (m *memSubstrate) kind() string { return "mem" }

func (m *memSubstrate) close() {}

// requestRun returns the end of the run of keys starting at lo that
// belong to one request — the unit a substrate resolves a port for once.
func requestRun(keys []rowKey, lo int) int {
	hi := lo + 1
	for hi < len(keys) && keys[hi].req == keys[lo].req {
		hi++
	}
	return hi
}

// post creates the batch's missing rows, then merges each run's entry
// into its rows; every row of a run that holds nothing shares one list.
func (m *memSubstrate) post(entries []core.Entry, rows []rowKey) {
	m.store.addRows(entries, rows)
	for lo, hi := 0, 0; lo < len(rows); lo = hi {
		hi = requestRun(rows, lo)
		e := entries[rows[lo].req]
		rs := m.store.Rows(e.Port)
		var list *[]core.Entry
		for _, k := range rows[lo:hi] {
			list = rs.slot(k.node).merge(e, list)
		}
	}
}

func (m *memSubstrate) readFreshest(fl *flood) {
	ft := m.lies()
	for lo, hi := 0, 0; lo < len(fl.keys); lo = hi {
		hi = requestRun(fl.keys, lo)
		port := fl.reqs[fl.keys[lo].req].Port
		rs := m.store.Rows(port)
		for i := lo; i < hi; i++ {
			node, a := fl.keys[i].node, &fl.ans[i]
			if rec, armed := ft.lieFor(node, port); armed {
				// An armed node never consults its rows: it forges or
				// suppresses. The forged entry faces the same family
				// filter an honest answer would.
				if !rec.silent {
					a.e, a.ok = rec.e, fl.scope.admits(rec.e.Addr, node)
				}
			} else if sl := rs.slot(node); sl != nil {
				a.e, a.ok = sl.readFreshestIn(fl.scope, node)
			}
		}
	}
}

func (m *memSubstrate) readAll(fl *flood) {
	ft := m.lies()
	var buf [8]core.Entry
	for i, k := range fl.keys {
		port := fl.reqs[k.req].Port
		var entries []core.Entry
		if rec, armed := ft.lieFor(k.node, port); armed {
			// Armed node: its locate-all answer is the single forged
			// entry (or nothing under selective silence), never its rows.
			if rec.silent {
				continue
			}
			entries = append(buf[:0], rec.e)
		} else {
			entries = m.store.GetAllInto(k.node, port, buf[:0])
		}
		for _, e := range entries {
			if fl.scope.admits(e.Addr, k.node) {
				fl.all = append(fl.all, keyedEntry{key: int32(i), e: e})
			}
		}
	}
}

func (m *memSubstrate) probe(_ graph.NodeID, port core.Port, addr graph.NodeID, id uint64) probeAnswer {
	if rec := (*m.live.Load())[id]; rec != nil && rec.port == port && graph.NodeID(rec.node.Load()) == addr {
		return probeHit
	}
	return probeMiss
}

// register republishes a known instance's home in place and, for the
// new ones, clones the table and allocates their records once per batch.
func (m *memSubstrate) register(recs []liveReg) error {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	next, fresh := *m.live.Load(), []memLive(nil)
	for _, r := range recs {
		rec := next[r.id]
		if rec == nil {
			if fresh == nil {
				grown := make(map[uint64]*memLive, len(next)+len(recs))
				maps.Copy(grown, next)
				next, fresh = grown, make([]memLive, len(recs))
			}
			rec, fresh = &fresh[0], fresh[1:]
			rec.port = r.port
			next[r.id] = rec
		}
		rec.node.Store(int64(r.node))
	}
	m.live.Store(&next)
	return nil
}

func (m *memSubstrate) deregister(id uint64, _ graph.NodeID) {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	cur := *m.live.Load()
	rec := cur[id]
	if rec == nil {
		return
	}
	rec.node.Store(int64(noNode)) // a probe holding the old snapshot misses too
	next := maps.Clone(cur)
	delete(next, id)
	m.live.Store(&next)
}

// liveIn returns the liveness records homed in [lo, hi) — the section of
// a node process's snapshot a partition transfer replays.
func (m *memSubstrate) liveIn(lo, hi int) (recs []liveReg) {
	for id, rec := range *m.live.Load() {
		if node := int(rec.node.Load()); node >= lo && node < hi {
			recs = append(recs, liveReg{id: id, port: rec.port, node: graph.NodeID(node), from: noNode})
		}
	}
	return recs
}

func (m *memSubstrate) crash(node graph.NodeID) { m.store.ClearNode(node) }

func (m *memSubstrate) restore(graph.NodeID) {}

func (m *memSubstrate) expire(rows []rowID) {
	for _, r := range rows {
		m.store.Drop(r.node, r.port, r.id)
	}
}

func (m *memSubstrate) digests(dg []uint64, ok []bool) {
	for v := range ok {
		ok[v] = true
	}
	for _, ne := range m.store.DumpRange(0, len(dg)) {
		if ne.E.Active {
			dg[ne.Node] ^= postingDigest(ne.E.Port, ne.E.ServerID, ne.E.Addr)
		}
	}
}

func (m *memSubstrate) dump(nodes []graph.NodeID) map[graph.NodeID][]core.Entry {
	out := make(map[graph.NodeID][]core.Entry, len(nodes))
	for _, v := range nodes {
		out[v] = nil
	}
	if len(nodes) == 0 {
		return out // a quiescent reconcile round reads no rows
	}
	for _, ne := range m.store.DumpRange(0, math.MaxInt) {
		if rows, ok := out[ne.Node]; ok {
			out[ne.Node] = append(rows, ne.E)
		}
	}
	return out
}

func (m *memSubstrate) corrupt(plan []corruptOp) error {
	for _, op := range plan {
		if op.drop {
			m.store.Drop(op.node, op.port, op.id)
		} else {
			m.store.Inject(op.node, op.e)
		}
	}
	return nil
}

func (m *memSubstrate) arm(plan []forgeOp) error {
	if len(plan) == 0 {
		m.forge.Store(nil)
		return nil
	}
	ft := buildForgeTable(plan)
	m.forge.Store(&ft)
	return nil
}

// lies returns the armed lie table, or a nil table when disarmed
// (nil-safe for lookups).
func (m *memSubstrate) lies() forgeTable {
	if p := m.forge.Load(); p != nil {
		return *p
	}
	return nil
}
