package stats

import "sync/atomic"

// CounterStripes is the stripe count of StripedCounter, a power of two.
const CounterStripes = 16

// paddedCounter occupies its own cache line so stripes never false-share.
type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

// StripedCounter is a write-mostly int64 counter split across
// cacheline-padded stripes: concurrent writers that pass different
// stripes touch different cache lines, so a hot serving path does not
// serialize on one contended atomic. Reads sum the stripes and are
// accurate at any quiescent instant (torn-by-a-few mid-flight, like any
// statistics counter).
//
// The zero value is ready to use.
type StripedCounter struct {
	stripes [CounterStripes]paddedCounter
}

// Add adds delta to the given stripe (any int; it is masked down) and
// returns the stripe's new value — a cheap per-stripe tick callers can
// use for sampling decisions. The stripe should follow the caller, not
// the work: pass the lane a Lanes handed this operation, so that a core
// keeps writing the lines it already owns. A key taken from the request
// (a client id, say) spreads the adds just as well and keeps no line
// anywhere — callers that share the keys write every stripe in turn.
func (c *StripedCounter) Add(stripe int, delta int64) int64 {
	return c.stripes[stripe&(CounterStripes-1)].v.Add(delta)
}

// Stripe returns the current value of one stripe (masked like Add's).
// It exists for tests and diagnostics — to show that an operation's adds
// and subtracts met on one stripe — and nothing on a serving path reads
// it; a reader that wants the count wants Load.
func (c *StripedCounter) Stripe(stripe int) int64 {
	return c.stripes[stripe&(CounterStripes-1)].v.Load()
}

// Load returns the sum over all stripes.
func (c *StripedCounter) Load() int64 {
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Reset zeroes every stripe. Like LiveHist.Reset it is meant for
// quiescent moments; adds racing a reset land in either window.
func (c *StripedCounter) Reset() {
	for i := range c.stripes {
		c.stripes[i].v.Store(0)
	}
}
