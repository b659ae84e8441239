package cluster

import (
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// hintCache is the per-client address cache of the hot-path
// acceleration layer: a successful locate records the winning entry
// keyed by (client, port) together with the transport generation it was
// resolved under. A later locate for the same pair validates the hint
// with one direct probe (2×Dist passes) instead of a full P∩Q flood,
// provided the generation still matches; otherwise it falls back to the
// flood and refreshes the hint.
//
// The hit path is allocation- and lock-free: clients index an array
// directly, the port lookup is one atomic load of the client's
// copy-on-write map and a read of it (see hintShard), and the
// generation check is one atomic load through the pointer captured at
// put time. Slots are never deleted — the cache is naturally bounded by
// (#clients) × (#ports), the same universe the transports already
// precompute sets for.
type hintCache struct {
	clients []hintShard
}

// hintShard holds one client's hints behind a copy-on-write map: the
// lookup path is one atomic pointer load and a map read (no read-side
// lock RMW at all); inserts — once per (client, port) lifetime — clone
// the map under mu. Padded so adjacent clients' slots do not
// false-share a cache line.
type hintShard struct {
	m  atomic.Pointer[map[core.Port]*hintSlot]
	mu sync.Mutex
	_  [48]byte // 8 (pointer) + 8 (mutex) + 48 = one 64-byte line
}

type hintSlot struct {
	v atomic.Pointer[hintVal]
}

// hintVal is one immutable hint snapshot. genSlot points at the
// generation counter the hint was resolved under (nil when the
// transport exposes no slots; the caller then compares against
// Transport.Gen). dead marks a hint whose probe failed: the next locate
// for the pair skips straight to the flood, and the flood only revives
// the slot when it resolves to a different server or a newer generation
// — so a stale address costs at most one wasted probe per generation.
// replica records which replica family resolved the entry (0 on
// unreplicated transports): when a crash invalidates the hint, the
// fallback flood retries the next family before re-flooding this one.
type hintVal struct {
	entry   core.Entry
	gen     uint64
	genSlot *atomic.Uint64
	replica int
	dead    bool
}

// stale reports whether the hint's generation no longer matches.
func (hv *hintVal) stale(tr Transport) bool {
	if hv.genSlot != nil {
		return hv.genSlot.Load() != hv.gen
	}
	return tr.Gen(hv.entry.Port) != hv.gen
}

// newHintCache builds a cache for clients 0..n-1.
func newHintCache(n int) *hintCache {
	return &hintCache{clients: make([]hintShard, n)}
}

// lookup returns (slot, value); slot is nil when the pair was never
// cached, value is nil when the slot exists but holds nothing yet.
func (h *hintCache) lookup(client graph.NodeID, port core.Port) (*hintSlot, *hintVal) {
	if int(client) < 0 || int(client) >= len(h.clients) {
		return nil, nil
	}
	sh := &h.clients[client]
	mp := sh.m.Load()
	if mp == nil {
		return nil, nil
	}
	sl := (*mp)[port]
	if sl == nil {
		return nil, nil
	}
	return sl, sl.v.Load()
}

// put records a flood-resolved entry under gen (read from genSlot, when
// the transport exposes one, before the flood began) together with the
// replica family that resolved it. If the slot currently holds a dead
// hint for the same generation and the same server instance, the slot
// stays dead: re-arming it would buy one failed probe per locate until
// something bumps the generation.
func (h *hintCache) put(client graph.NodeID, port core.Port, e core.Entry, gen uint64, genSlot *atomic.Uint64, replica int) {
	if int(client) < 0 || int(client) >= len(h.clients) {
		return
	}
	sh := &h.clients[client]
	var sl *hintSlot
	if mp := sh.m.Load(); mp != nil {
		sl = (*mp)[port]
	}
	if sl == nil {
		sh.mu.Lock()
		cur := sh.m.Load()
		if cur != nil {
			sl = (*cur)[port]
		}
		if sl == nil {
			sl = &hintSlot{}
			next := make(map[core.Port]*hintSlot, 8)
			if cur != nil {
				for k, v := range *cur {
					next[k] = v
				}
			}
			next[port] = sl
			sh.m.Store(&next)
		}
		sh.mu.Unlock()
	}
	cur := sl.v.Load()
	if cur != nil && cur.dead && cur.gen == gen &&
		cur.entry.Addr == e.Addr && cur.entry.ServerID == e.ServerID {
		return
	}
	sl.v.Store(&hintVal{entry: e, gen: gen, genSlot: genSlot, replica: replica})
}

// markDead flags a probed-and-missed hint so later locates skip the
// probe until the generation moves or the flood finds a new server.
func (h *hintCache) markDead(sl *hintSlot, was *hintVal) {
	dead := *was
	dead.dead = true
	sl.v.CompareAndSwap(was, &dead)
}
