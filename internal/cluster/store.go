package cluster

import (
	"cmp"
	"hash/maphash"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Store is the concurrent rendezvous cache behind MemTransport and the
// node processes: the (port, address) postings of every node, port-major.
// A shard, picked by hash(port) alone, maps each of its ports to the
// port's rows — the slots of the nodes that hold a posting for it, kept
// sparse and sorted by node — and each slot holds an immutable entry
// slice. All three levels are copy-on-write behind atomic pointers (the
// hintShard pattern), so a read takes no lock and writes no shared cache
// line. A locate always reads one port at the ~√n nodes of Q(client),
// and the layout prices exactly that: one shard pick and one port lookup
// for the whole flood (Store.Rows), then per node a search of the port's
// few rows and an atomic load — where a (node, port)-keyed table hashed
// the port and took a lock per node. Only a port's or a row's first
// posting, and ClearNode, take the shard's mutex and clone.
//
// Entry semantics match internal/core's cache (§2.1): entries are kept
// per (port, server instance); within an instance the newest timestamp
// wins and tombstones supersede like any other entry. Tombstones of dead
// instances are capped per slot so a churning service cannot grow a slot
// without bound.
type Store struct {
	shards []storeShard
	mask   uint64
	seed   maphash.Seed

	// clock is the logical posting clock shared by all writers.
	clock atomic.Uint64
}

// maxSlotTombstones bounds dead-instance tombstones kept per (node,
// port) slot; the stalest are dropped first. Live entries are never
// evicted.
const maxSlotTombstones = 8

// storeShard holds the ports that hash to it. The port table is
// replaced, never mutated; mu serializes the writers that reshape the
// shard — a port or a row appearing, a node's rows being cleared. Ports
// are never removed: like a slot's tombstones, a port the shard has seen
// keeps its (possibly empty) rows.
type storeShard struct {
	ports atomic.Pointer[map[core.Port]*portRows]
	mu    sync.Mutex
}

// portRows is one port's rows: the slots of the nodes holding any
// posting for it, behind a pointer replaced under the shard's mu.
type portRows struct {
	slots atomic.Pointer[PortRows]
}

// PortRows is an immutable snapshot of one port's rows, sorted by node:
// what Store.Rows resolves once so that a flood's per-node reads need no
// further port lookup. The slots are pointers, so one found in a
// snapshot stays valid — if possibly orphaned by ClearNode — however the
// rows are reshaped after.
type PortRows []nodeSlot

type nodeSlot struct {
	node graph.NodeID
	sl   *storeSlot
}

type storeSlot struct {
	entries atomic.Pointer[[]core.Entry]
}

// NewStore builds a store for n nodes with the given shard count
// (rounded up to a power of two; 0 picks a default suited to the node
// count).
func NewStore(n, shards int) *Store {
	if shards <= 0 {
		// Ports spread over shards by hash; the node count is the scale
		// hint for how many a deployment serves, clamped so tiny networks
		// still spread their writers and huge ones don't pay for
		// thousands of idle maps.
		shards = min(max(n, 16), 256)
	}
	size := 1
	for size < shards {
		size <<= 1
	}
	s := &Store{
		shards: make([]storeShard, size),
		mask:   uint64(size - 1),
		seed:   maphash.MakeSeed(),
	}
	for i := range s.shards {
		s.shards[i].ports.Store(&noPorts)
	}
	return s
}

// noPorts is every shard's table until its first port: shared, because
// a table is replaced, never mutated.
var noPorts = map[core.Port]*portRows{}

// NextTime returns a fresh logical posting timestamp.
func (s *Store) NextTime() uint64 { return s.clock.Add(1) }

// shard returns the index of port's shard.
func (s *Store) shard(port core.Port) uint64 {
	return maphash.String(s.seed, string(port)) & s.mask
}

// Rows returns port's rows, empty when it has none: one hash to pick the
// shard, one to find the port, no lock. A caller with several nodes to
// visit for one port calls it once and indexes the snapshot per node.
func (s *Store) Rows(port core.Port) PortRows {
	if r := (*s.shards[s.shard(port)].ports.Load())[port]; r != nil {
		return *r.slots.Load()
	}
	return nil
}

// find returns the position of node in the sorted rows — or where it
// would be inserted — and whether it is present.
func (rs PortRows) find(node graph.NodeID) (int, bool) {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].node < node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(rs) && rs[lo].node == node
}

// slot returns node's slot, nil when the port has no row there.
func (rs PortRows) slot(node graph.NodeID) *storeSlot {
	if i, ok := rs.find(node); ok {
		return rs[i].sl
	}
	return nil
}

// runRows holds what a batch publishes for one request run that lacks
// rows — the port's rows object when the port is new, the rows
// snapshot, and, in the first run to add a port to its shard, the
// shard's grown table — so that a batch allocates them together.
type runRows struct {
	r     portRows
	rows  PortRows
	ports map[core.Port]*portRows
}

// addRows creates every missing row of a post batch — a row at each
// key's node for the port of its entry — per shard rather than per port:
// under each touched shard's mutex, every run's port has its rows
// rebuilt once and the shard's table is cloned once, and the batch's
// new slots and rows are carved from one allocation each. A post makes
// its rows with it; Put and Inject are a batch of one.
func (s *Store) addRows(entries []core.Entry, keys []rowKey) {
	// runs holds the runs that lack rows as shard<<32 | the run's first
	// key, so that sorting them groups them by shard.
	var buf [64]uint64
	runs, nslots, nrows := buf[:0], 0, 0
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		hi = requestRun(keys, lo)
		port := entries[keys[lo].req].Port
		rs := s.Rows(port)
		if slices.ContainsFunc(keys[lo:hi], func(k rowKey) bool { return rs.slot(k.node) == nil }) {
			runs = append(runs, s.shard(port)<<32|uint64(lo))
			nslots, nrows = nslots+hi-lo, nrows+len(rs)+hi-lo
		}
	}
	if len(runs) == 0 {
		return
	}
	slices.Sort(runs)
	made, slots, rows := make([]runRows, len(runs)), make([]storeSlot, nslots), make([]nodeSlot, nrows)
	for lo, hi := 0, 0; lo < len(runs); lo = hi {
		for hi = lo + 1; hi < len(runs) && runs[hi]>>32 == runs[lo]>>32; hi++ {
		}
		sh := &s.shards[runs[lo]>>32]
		sh.mu.Lock()
		ports := *sh.ports.Load()
		var grown *map[core.Port]*portRows
		for i := lo; i < hi; i++ {
			first := int(uint32(runs[i]))
			m, run, port := &made[i], keys[first:requestRun(keys, first)], entries[keys[first].req].Port
			r := ports[port]
			var cur PortRows
			if r != nil {
				cur = *r.slots.Load()
			} else {
				if grown == nil {
					m.ports = make(map[core.Port]*portRows, len(ports)+hi-i)
					maps.Copy(m.ports, ports)
					ports, grown = m.ports, &m.ports
				}
				r = &m.r
				ports[port] = r
			}
			// Rows that grew since the scan outrun the arena, and append
			// allocates afresh.
			n := min(len(cur)+len(run), len(rows))
			next := append(rows[:0:n], cur...)
			rows = rows[n:]
			for j, k := range run {
				if cur.slot(k.node) == nil {
					next = append(next, nodeSlot{node: k.node, sl: &slots[j]})
				}
			}
			slots = slots[len(run):]
			if byNode := func(x, y nodeSlot) int { return cmp.Compare(x.node, y.node) }; !slices.IsSortedFunc(next, byNode) {
				slices.SortFunc(next, byNode) // a port's first rows arrive in order
			}
			m.rows = slices.CompactFunc(next, func(x, y nodeSlot) bool { return x.node == y.node })
			r.slots.Store(&m.rows)
		}
		if grown != nil {
			sh.ports.Store(grown)
		}
		sh.mu.Unlock()
	}
}

// readFreshestIn scans the slot (a nil slot holds nothing) for the
// freshest active entry that sc admits as held at node at (the zero
// scope admits everything). It is how the replicated mode family-scopes
// its reads: the same physical slot serves every replica family, and a
// family-k flood only sees the entries whose origin posted here as part
// of family k.
func (sl *storeSlot) readFreshestIn(sc scope, at graph.NodeID) (core.Entry, bool) {
	if sl == nil {
		return core.Entry{}, false
	}
	curp := sl.entries.Load()
	if curp == nil {
		return core.Entry{}, false
	}
	var (
		best  core.Entry
		found bool
	)
	for _, e := range *curp {
		if !e.Active || !sc.admits(e.Addr, at) {
			continue
		}
		if !found || fresher(e, best) {
			best, found = e, true
		}
	}
	return best, found
}

// fresher is the one freshest-entry rule, at a node and across a flood's
// answers alike: the later timestamp wins, and on equal timestamps —
// which only corrupted rows produce between two instances — the lower
// server id, so the winner is a function of the rows, not of the order
// they were merged or answered in. An exact tie keeps the first seen,
// the earlier node of the query set.
func fresher(e, than core.Entry) bool {
	return e.Time > than.Time || e.Time == than.Time && e.ServerID < than.ServerID
}

// update is the one copy-on-write CAS loop behind every write to a
// slot: next builds the slot's new list from the current one, or returns
// nil to leave the slot as it is. No writer changes a list in place, so
// one list may back many slots. A nil slot — no row, or one a crash
// cleared since the write resolved it — holds nothing and takes nothing.
func (sl *storeSlot) update(next func(cur []core.Entry) *[]core.Entry) {
	for sl != nil {
		curp := sl.entries.Load()
		var cur []core.Entry
		if curp != nil {
			cur = *curp
		}
		if np := next(cur); np == nil || sl.entries.CompareAndSwap(curp, np) {
			return
		}
	}
}

// merge folds e into the slot and returns list. A slot that holds
// nothing takes list, the one-entry list of e, made here on first use: a
// post hands the same list to every row of its run.
func (sl *storeSlot) merge(e core.Entry, list *[]core.Entry) *[]core.Entry {
	sl.update(func(cur []core.Entry) *[]core.Entry {
		if len(cur) > 0 {
			return mergeEntry(cur, e)
		}
		if list == nil {
			one := &oneEntry{e: [1]core.Entry{e}}
			one.list = one.e[:]
			list = &one.list
		}
		return list
	})
	return list
}

// oneEntry is a one-entry list and the slice header a slot points to,
// allocated together.
type oneEntry struct {
	list []core.Entry
	e    [1]core.Entry
}

// Put merges a posting (or tombstone) into node's cache. Stale postings
// — an older timestamp for the same server instance — are ignored, as
// in §2.1's timestamp conflict rule. The merge is a copy-on-write CAS
// loop on the slot's immutable slice, so concurrent posts for the same
// port serialize without a lock.
func (s *Store) Put(node graph.NodeID, e core.Entry) {
	s.addRows([]core.Entry{e}, []rowKey{{node: node}})
	s.Rows(e.Port).slot(node).merge(e, nil)
}

// mergeEntry returns a fresh list with e merged in, or nil when e is
// stale and the list would be unchanged.
func mergeEntry(cur []core.Entry, e core.Entry) *[]core.Entry {
	i := indexOf(cur, e.ServerID)
	if i >= 0 && e.Time <= cur[i].Time {
		return nil
	}
	next := append(make([]core.Entry, 0, len(cur)+1), cur...)
	if i >= 0 {
		next[i] = e
	} else {
		next = pruneTombstones(append(next, e))
	}
	return &next
}

// indexOf returns the position of server instance id's entry in cur, -1
// when cur holds none.
func indexOf(cur []core.Entry, id uint64) int {
	return slices.IndexFunc(cur, func(e core.Entry) bool { return e.ServerID == id })
}

// pruneTombstones drops the stalest dead-instance tombstones when a slot
// holds more than maxSlotTombstones of them.
func pruneTombstones(entries []core.Entry) []core.Entry {
	dead := 0
	for _, e := range entries {
		if !e.Active {
			dead++
		}
	}
	for ; dead > maxSlotTombstones; dead-- {
		victim := -1
		for i, e := range entries {
			if !e.Active && (victim < 0 || e.Time < entries[victim].Time) {
				victim = i
			}
		}
		entries = append(entries[:victim], entries[victim+1:]...)
	}
	return entries
}

// Get returns the freshest active entry for port cached at node.
func (s *Store) Get(node graph.NodeID, port core.Port) (core.Entry, bool) {
	return s.Rows(port).Get(node)
}

// Get returns the freshest active entry the snapshot's port has cached
// at node — Store.Get with the port already resolved.
func (rs PortRows) Get(node graph.NodeID) (core.Entry, bool) {
	return rs.slot(node).readFreshestIn(scope{}, node)
}

// GetAll returns every active entry for port cached at node.
func (s *Store) GetAll(node graph.NodeID, port core.Port) []core.Entry {
	return s.GetAllInto(node, port, nil)
}

// GetAllInto appends every active entry for port cached at node to buf
// and returns it, letting hot callers reuse a pooled reply buffer
// instead of allocating one per rendezvous node.
func (s *Store) GetAllInto(node graph.NodeID, port core.Port, buf []core.Entry) []core.Entry {
	return s.Rows(port).slot(node).appendActive(buf)
}

// appendActive appends the slot's active entries to buf; a nil slot
// holds none.
func (sl *storeSlot) appendActive(buf []core.Entry) []core.Entry {
	if sl == nil {
		return buf
	}
	if curp := sl.entries.Load(); curp != nil {
		for _, e := range *curp {
			if e.Active {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

// Drop removes one server instance's cached entry for port at node, if
// present — the local expiry of epoch garbage collection: a posting
// that belongs only to a retired epoch disappears by the node's own
// decision, costing no message passes.
func (s *Store) Drop(node graph.NodeID, port core.Port, serverID uint64) {
	s.Rows(port).slot(node).update(func(cur []core.Entry) *[]core.Entry {
		i := indexOf(cur, serverID)
		if i < 0 {
			return nil
		}
		next := slices.Delete(slices.Clone(cur), i, i+1)
		return &next
	})
}

// Inject force-places e in node's cache for e.Port, replacing any
// existing entry of the same server instance regardless of timestamps —
// deliberately bypassing the §2.1 merge rule Put enforces. It is the
// corruption-injection backdoor behind CorruptOptions and opCorrupt:
// it models a rendezvous node whose state silently went wrong, which is
// exactly what the merge rule would otherwise prevent.
func (s *Store) Inject(node graph.NodeID, e core.Entry) {
	s.addRows([]core.Entry{e}, []rowKey{{node: node}})
	s.Rows(e.Port).slot(node).update(func(cur []core.Entry) *[]core.Entry {
		next := append(make([]core.Entry, 0, len(cur)+1), cur...)
		if i := indexOf(cur, e.ServerID); i >= 0 {
			next[i] = e
		} else {
			next = append(next, e)
		}
		return &next
	})
}

// NodeEntry pairs a rendezvous node with one cached entry; it is the
// unit of a partition transfer (Store.DumpRange).
type NodeEntry struct {
	Node graph.NodeID
	E    core.Entry
}

// DumpRange returns every cached entry (live postings and tombstones
// alike) held for nodes in [lo, hi) — the donor side of a node-shard
// partition transfer. The result order is unspecified.
func (s *Store) DumpRange(lo, hi int) []NodeEntry {
	var out []NodeEntry
	for i := range s.shards {
		for _, r := range *s.shards[i].ports.Load() {
			for _, ns := range *r.slots.Load() {
				if int(ns.node) < lo || int(ns.node) >= hi {
					continue
				}
				if curp := ns.sl.entries.Load(); curp != nil {
					for _, e := range *curp {
						out = append(out, NodeEntry{Node: ns.node, E: e})
					}
				}
			}
		}
	}
	return out
}

// ClearNode drops everything cached at node, modelling the loss of
// volatile state when the node crashes.
func (s *Store) ClearNode(node graph.NodeID) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, r := range *sh.ports.Load() {
			cur := *r.slots.Load()
			if j, ok := cur.find(node); ok {
				without := slices.Delete(slices.Clone(cur), j, j+1)
				r.slots.Store(&without)
			}
		}
		sh.mu.Unlock()
	}
}

// NodeSize returns the number of ports with at least one active entry
// cached at node — the paper's per-node storage measure.
func (s *Store) NodeSize(node graph.NodeID) int {
	total := 0
	for i := range s.shards {
		for _, r := range *s.shards[i].ports.Load() {
			if _, ok := r.slots.Load().Get(node); ok {
				total++
			}
		}
	}
	return total
}
