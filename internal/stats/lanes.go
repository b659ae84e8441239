package stats

import (
	"sync"
	"sync/atomic"
)

// laneToken is what a Lanes pool holds: a stripe index and nothing
// else. The tokens are static — one per stripe, shared by every Lanes —
// so handing one back boxes a pointer and allocates nothing.
type laneToken struct{ stripe int }

var laneTokens = func() (t [CounterStripes]laneToken) {
	for i := range t {
		t[i].stripe = i
	}
	return t
}()

// Lanes hands out stripe tokens — an index in [0, CounterStripes) — for
// the striped counters of one hot path, so that a caller keeps writing
// the stripes it wrote last time. A caller Gets a lane at the start of
// an operation, passes it as the stripe to every StripedCounter,
// DepthCounter or histogram the operation touches, and Puts it back at
// the end.
//
// The hand-out is a sync.Pool, which caches per P: a goroutine that
// returns a lane and asks again on the same processor gets the same
// one, so its counter lines stay in that core's cache, and two callers
// running side by side settle on different lanes whatever they are
// working on. (A key taken from the work — a client id — does the
// opposite when the callers share the clients: every stripe is then
// written by every core in turn.) The token carries no counts: those
// stay in the counters' fixed stripe arrays, so a token the pool drops
// — on a GC cycle, or a quarter of the time under the race detector —
// loses nothing, and readers sum the stripes without knowing lanes
// exist. Lanes are not exclusive: with more concurrent holders than
// stripes several share one, and a draw for an empty pool is blind to
// which stripes are held, so once in CounterStripes it lands on a
// long-lived holder's — the two then trade that line until either is
// redrawn. Either way it costs cache misses, never a count.
//
// The affinity is for callers that run from Get to Put. Where they
// block in between (a socket round trip), more lanes are out than there
// are Ps, a Get finds its P's cache empty, and sync.Pool then looks
// through every other P's before Get falls to next — one shared line,
// and a walk that grows with the processor count. Such a path gains
// nothing from its lane and pays that per operation; it is small beside
// what the caller blocked on, but it is not the saving described above.
//
// The zero value is ready to use. A Lanes must not be copied after
// first use.
type Lanes struct {
	pool sync.Pool
	next atomic.Uint32 // round-robin over the stripes for an empty pool
}

// Get takes a lane: the one this processor returned last when there is
// one, else the next stripe in rotation.
func (l *Lanes) Get() int {
	if t, ok := l.pool.Get().(*laneToken); ok {
		return t.stripe
	}
	return int(l.next.Add(1)) & (CounterStripes - 1)
}

// Put returns a lane taken with Get.
func (l *Lanes) Put(stripe int) {
	l.pool.Put(&laneTokens[stripe&(CounterStripes-1)])
}
