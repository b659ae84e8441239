package cluster

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Store is the concurrent rendezvous cache behind MemTransport: the
// (port, address) postings of every node, sharded by (node, port) hash
// across independently locked maps so posts and queries for different
// services never contend. Each (node, port) slot holds an immutable
// entry slice behind an atomic pointer — readers on the locate hot path
// take one shared-mode lock to find the slot, then a single atomic load,
// so the read side scales with cores instead of serializing on the
// single mutex the per-node engine cache uses.
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

type storeShard struct {
	mu sync.RWMutex
	m  map[storeKey]*storeSlot
}

type storeKey struct {
	node graph.NodeID
	port core.Port
}

type storeSlot struct {
	entries atomic.Pointer[[]core.Entry]
}

// NewStore builds a store for n nodes with the given shard count
// (rounded up to a power of two; 0 picks a default suited to the node
// count).
func NewStore(n, shards int) *Store {
	if shards <= 0 {
		// One shard per node spreads (node, port) slots with little
		// collision, clamped so tiny networks still get concurrency and
		// huge ones don't pay for thousands of idle maps.
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
		s.shards[i].m = make(map[storeKey]*storeSlot, 16)
	}
	return s
}

// NextTime returns a fresh logical posting timestamp.
func (s *Store) NextTime() uint64 { return s.clock.Add(1) }

// shardIndex returns the shard owning k; batched operations group their
// accesses by this index so each shard lock is taken once per batch.
func (s *Store) shardIndex(k storeKey) uint32 {
	return uint32((maphash.String(s.seed, string(k.port)) ^ uint64(k.node)*0x9e3779b97f4a7c15) & s.mask)
}

func (s *Store) shard(k storeKey) *storeShard {
	return &s.shards[s.shardIndex(k)]
}

// slotLocked returns the slot for k in sh, which the caller holds at
// least read-locked; nil when absent.
func (sh *storeShard) slotLocked(k storeKey) *storeSlot {
	return sh.m[k]
}

// slotCreateLocked returns the slot for k in sh, creating it; the
// caller holds the shard write-locked.
func (sh *storeShard) slotCreateLocked(k storeKey) *storeSlot {
	sl := sh.m[k]
	if sl == nil {
		sl = &storeSlot{}
		sh.m[k] = sl
	}
	return sl
}

// readFreshestIn scans a loaded slot for the freshest active entry that
// sc admits as held at node at (the zero scope admits everything). It
// is how the replicated mode family-scopes its reads: the same physical
// slot serves every replica family, and a family-k flood only sees the
// entries whose origin posted here as part of family k.
func (sl *storeSlot) readFreshestIn(sc scope, at graph.NodeID) (core.Entry, bool) {
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

// slot returns the slot for k, creating it if create is set.
func (s *Store) slot(k storeKey, create bool) *storeSlot {
	sh := s.shard(k)
	sh.mu.RLock()
	sl := sh.m[k]
	sh.mu.RUnlock()
	if sl != nil || !create {
		return sl
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sl = sh.m[k]; sl == nil {
		sl = &storeSlot{}
		sh.m[k] = sl
	}
	return sl
}

// Put merges a posting (or tombstone) into node's cache. Stale postings
// — an older timestamp for the same server instance — are ignored, as
// in §2.1's timestamp conflict rule. The merge is a copy-on-write CAS
// loop on the slot's immutable slice, so concurrent posts for the same
// port serialize without a lock.
func (s *Store) Put(node graph.NodeID, e core.Entry) {
	s.slot(storeKey{node: node, port: e.Port}, true).merge(e)
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
	sl := s.slot(storeKey{node: node, port: port}, false)
	if sl == nil {
		return core.Entry{}, false
	}
	return sl.readFreshestIn(scope{}, node)
}

// GetAll returns every active entry for port cached at node.
func (s *Store) GetAll(node graph.NodeID, port core.Port) []core.Entry {
	return s.GetAllInto(node, port, nil)
}

// GetAllInto appends every active entry for port cached at node to buf
// and returns it, letting hot callers reuse a pooled reply buffer
// instead of allocating one per rendezvous node.
func (s *Store) GetAllInto(node graph.NodeID, port core.Port, buf []core.Entry) []core.Entry {
	sl := s.slot(storeKey{node: node, port: port}, false)
	if sl == nil {
		return buf
	}
	curp := sl.entries.Load()
	if curp == nil {
		return buf
	}
	for _, e := range *curp {
		if e.Active {
			buf = append(buf, e)
		}
	}
	return buf
}

// Drop removes one server instance's cached entry for port at node, if
// present — the local expiry of epoch garbage collection: a posting
// that belongs only to a retired epoch disappears by the node's own
// decision, costing no message passes.
func (s *Store) Drop(node graph.NodeID, port core.Port, serverID uint64) {
	sl := s.slot(storeKey{node: node, port: port}, false)
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
	sl := s.slot(storeKey{node: node, port: e.Port}, true)
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
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, sl := range sh.m {
			if int(k.node) < lo || int(k.node) >= hi {
				continue
			}
			if curp := sl.entries.Load(); curp != nil {
				for _, e := range *curp {
					out = append(out, NodeEntry{Node: k.node, E: e})
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// ClearNode drops everything cached at node, modelling the loss of
// volatile state when the node crashes.
func (s *Store) ClearNode(node graph.NodeID) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if k.node == node {
				delete(sh.m, k)
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
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, sl := range sh.m {
			if k.node != node {
				continue
			}
			if curp := sl.entries.Load(); curp != nil {
				for _, e := range *curp {
					if e.Active {
						total++
						break
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	return total
}
