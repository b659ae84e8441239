package cluster

import (
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
		s.shards[i].ports.Store(&map[core.Port]*portRows{})
	}
	return s
}

// NextTime returns a fresh logical posting timestamp.
func (s *Store) NextTime() uint64 { return s.clock.Add(1) }

func (s *Store) shard(port core.Port) *storeShard {
	return &s.shards[maphash.String(s.seed, string(port))&s.mask]
}

// Rows returns port's rows, empty when it has none: one hash to pick the
// shard, one to find the port, no lock. A caller with several nodes to
// visit for one port calls it once and indexes the snapshot per node.
func (s *Store) Rows(port core.Port) PortRows {
	if r := (*s.shard(port).ports.Load())[port]; r != nil {
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

// slotCreate returns node's slot for port, creating the port's rows and
// the slot when this is their first posting.
func (s *Store) slotCreate(node graph.NodeID, port core.Port) *storeSlot {
	if sl := s.Rows(port).slot(node); sl != nil {
		return sl
	}
	sh := s.shard(port)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ports := *sh.ports.Load()
	r := ports[port]
	if r == nil {
		r = &portRows{}
		r.slots.Store(&PortRows{})
		next := maps.Clone(ports)
		next[port] = r
		sh.ports.Store(&next)
	}
	cur := *r.slots.Load()
	i, ok := cur.find(node)
	if !ok {
		next := append(make(PortRows, 0, len(cur)+1), cur[:i]...)
		cur = append(append(next, nodeSlot{node: node, sl: &storeSlot{}}), cur[i:]...)
		r.slots.Store(&cur)
	}
	return cur[i].sl
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
		if !found || e.Time > best.Time {
			best, found = e, true
		}
	}
	return best, found
}

// merge folds e into the slot with the copy-on-write CAS loop of Put.
func (sl *storeSlot) merge(e core.Entry) {
	for {
		curp := sl.entries.Load()
		var cur []core.Entry
		if curp != nil {
			cur = *curp
		}
		next := mergeEntry(cur, e)
		if next == nil {
			return
		}
		if sl.entries.CompareAndSwap(curp, &next) {
			return
		}
	}
}

// Put merges a posting (or tombstone) into node's cache. Stale postings
// — an older timestamp for the same server instance — are ignored, as
// in §2.1's timestamp conflict rule. The merge is a copy-on-write CAS
// loop on the slot's immutable slice, so concurrent posts for the same
// port serialize without a lock.
func (s *Store) Put(node graph.NodeID, e core.Entry) {
	s.slotCreate(node, e.Port).merge(e)
}

// mergeEntry returns a fresh slice with e merged in, or nil when e is
// stale and the slice would be unchanged.
func mergeEntry(cur []core.Entry, e core.Entry) []core.Entry {
	for i, c := range cur {
		if c.ServerID == e.ServerID {
			if e.Time <= c.Time {
				return nil
			}
			next := append([]core.Entry(nil), cur...)
			next[i] = e
			return next
		}
	}
	next := make([]core.Entry, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, e)
	return pruneTombstones(next)
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
	for dead > maxSlotTombstones {
		victim := -1
		for i, e := range entries {
			if !e.Active && (victim < 0 || e.Time < entries[victim].Time) {
				victim = i
			}
		}
		entries = append(entries[:victim], entries[victim+1:]...)
		dead--
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
	sl := s.Rows(port).slot(node)
	if sl == nil {
		return
	}
	for {
		curp := sl.entries.Load()
		if curp == nil {
			return
		}
		cur := *curp
		idx := -1
		for i, e := range cur {
			if e.ServerID == serverID {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		next := make([]core.Entry, 0, len(cur)-1)
		next = append(next, cur[:idx]...)
		next = append(next, cur[idx+1:]...)
		if sl.entries.CompareAndSwap(curp, &next) {
			return
		}
	}
}

// Inject force-places e in node's cache for e.Port, replacing any
// existing entry of the same server instance regardless of timestamps —
// deliberately bypassing the §2.1 merge rule Put enforces. It is the
// corruption-injection backdoor behind CorruptOptions and opCorrupt:
// it models a rendezvous node whose state silently went wrong, which is
// exactly what the merge rule would otherwise prevent.
func (s *Store) Inject(node graph.NodeID, e core.Entry) {
	sl := s.slotCreate(node, e.Port)
	for {
		curp := sl.entries.Load()
		var cur []core.Entry
		if curp != nil {
			cur = *curp
		}
		next := make([]core.Entry, 0, len(cur)+1)
		replaced := false
		for _, c := range cur {
			if c.ServerID == e.ServerID {
				next = append(next, e)
				replaced = true
				continue
			}
			next = append(next, c)
		}
		if !replaced {
			next = append(next, e)
		}
		if sl.entries.CompareAndSwap(curp, &next) {
			return
		}
	}
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
