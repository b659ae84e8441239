package cluster

import (
	"sync/atomic"

	"matchmake/internal/core"
)

// genShards is the size of every transport's generation index. Sharding
// by port hash keeps bumps and reads contention-free; a hash collision
// merely invalidates an unrelated port's hints early, which is safe. The
// hash is fixed (portHash), not seeded per index: which ports collide —
// and so how many hinted locates a Migrate turns into floods — is then a
// function of the workload, identical on every transport and every run,
// which is what lets hinted pass totals be compared sim = mem = net.
const genShards = 256

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// portHash is FNV-1a over the port's bytes.
func portHash(port core.Port) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(port); i++ {
		h ^= uint64(port[i])
		h *= fnvPrime64
	}
	return h
}

// genIndex is the sharded hint-invalidation index every transport
// maintains: one generation counter per port-hash shard. Registrations,
// migrations and deregistrations bump the owning shard; crashes bump
// every shard (a crashed node may have hosted servers of any port).
// Cached address hints record the generation they were resolved under
// and are only probed while it still matches, so stale hints fail fast
// without spending a single message pass.
type genIndex struct {
	shards [genShards]atomic.Uint64
}

func (g *genIndex) idx(port core.Port) int {
	return int(portHash(port) % genShards)
}

// gen returns port's current generation.
func (g *genIndex) gen(port core.Port) uint64 {
	return g.shards[g.idx(port)].Load()
}

// slot returns the address of port's generation counter, so a cached
// hint can re-check its generation with one atomic load instead of
// re-hashing the port on every locate.
func (g *genIndex) slot(port core.Port) *atomic.Uint64 {
	return &g.shards[g.idx(port)]
}

// bump invalidates hints for port (and its hash-collision siblings).
func (g *genIndex) bump(port core.Port) {
	g.shards[g.idx(port)].Add(1)
}

// bumpAll invalidates every hint, for events that can affect any port.
func (g *genIndex) bumpAll() {
	for i := range g.shards {
		g.shards[i].Add(1)
	}
}

// genSlotter is implemented by transports whose generation index can
// hand out counter addresses; the hint cache stores the address at put
// time so the hit path's generation check is one atomic load.
type genSlotter interface {
	genSlot(port core.Port) *atomic.Uint64
}
