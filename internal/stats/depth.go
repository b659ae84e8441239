package stats

import "sync/atomic"

// depthBuckets bounds the per-depth counters of a DepthCounter; depths
// beyond the last bucket are folded into it. Replication factors in
// practice are 2–3, so eight buckets never clip real data.
const depthBuckets = 8

// DepthCounter tallies events by a small integer depth — the serving
// layer's replica-fallthrough depth counter: a locate resolved by the
// first replica flood observes depth 0, one that fell through k
// families observes depth k, and a locate no replica could answer
// counts as a failure. Together with the total it yields the two
// availability numbers of a fault study: what fraction of locates
// succeeded at all, and how many extra floods the survivors paid.
//
// Every replicated flood observes a depth, nearly always 0, so the
// per-depth counts are striped like a StripedCounter — one cache line of
// buckets per stripe, written on the observer's lane (see Lanes) — and
// the readers sum the stripes. Failures are rare and stay one counter.
//
// All methods are safe for concurrent use; reads race benignly with
// writers, like every other live counter in this package.
type DepthCounter struct {
	stripes [CounterStripes][depthBuckets]atomic.Int64
	fails   atomic.Int64
}

// Observe records, on the given stripe (any int; it is masked down),
// one event resolved at the given depth (clamped to the last bucket;
// negative depths count as 0).
func (d *DepthCounter) Observe(stripe, depth int) {
	if depth < 0 {
		depth = 0
	}
	if depth >= depthBuckets {
		depth = depthBuckets - 1
	}
	d.stripes[stripe&(CounterStripes-1)][depth].Add(1)
}

// Fail records one event that no depth resolved.
func (d *DepthCounter) Fail() { d.fails.Add(1) }

// sums adds the stripes up per depth.
func (d *DepthCounter) sums() (out [depthBuckets]int64) {
	for s := range d.stripes {
		for i := range d.stripes[s] {
			out[i] += d.stripes[s][i].Load()
		}
	}
	return out
}

// Counts returns the per-depth totals, index = depth.
func (d *DepthCounter) Counts() []int64 {
	out := d.sums()
	return out[:]
}

// Fails returns the number of events that no depth resolved.
func (d *DepthCounter) Fails() int64 { return d.fails.Load() }

// Total returns the number of observed events, failures included.
func (d *DepthCounter) Total() int64 {
	t := d.fails.Load()
	for _, c := range d.sums() {
		t += c
	}
	return t
}

// Fallthroughs returns the events resolved at depth > 0 — the locates
// that survived only thanks to a deeper replica.
func (d *DepthCounter) Fallthroughs() int64 {
	var t int64
	for depth, c := range d.sums() {
		if depth > 0 {
			t += c
		}
	}
	return t
}

// MeanDepth returns the average resolution depth of the successful
// events (0 when there were none).
func (d *DepthCounter) MeanDepth() float64 {
	var n, sum int64
	for i, c := range d.sums() {
		n += c
		sum += int64(i) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Reset zeroes every counter.
func (d *DepthCounter) Reset() {
	for s := range d.stripes {
		for i := range d.stripes[s] {
			d.stripes[s][i].Store(0)
		}
	}
	d.fails.Store(0)
}
