package cluster

import (
	"hash/maphash"
	"sync/atomic"

	"matchmake/internal/core"
)

// genShards is the size of every transport's generation index. Sharding
// by port hash keeps bumps and reads contention-free; a hash collision
// merely invalidates an unrelated port's hints early, which is safe.
const genShards = 256

// genIndex is the sharded hint-invalidation index every transport
// maintains: one generation counter per port-hash shard. Registrations,
// migrations and deregistrations bump the owning shard; crashes bump
// every shard (a crashed node may have hosted servers of any port).
// Cached address hints record the generation they were resolved under
// and are only probed while it still matches, so stale hints fail fast
// without spending a single message pass.
type genIndex struct {
	seed   maphash.Seed
	shards [genShards]atomic.Uint64
}

func newGenIndex() *genIndex {
	return &genIndex{seed: maphash.MakeSeed()}
}

func (g *genIndex) idx(port core.Port) int {
	return int(maphash.String(g.seed, string(port)) % genShards)
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
