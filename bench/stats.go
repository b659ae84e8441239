package main

import (
	"math"
	"math/bits"
	"sort"

	"matchmake/internal/stats"
)

// hist is a single-writer log-linear latency histogram in nanoseconds:
// 128 sub-buckets per power of two, so a bucket is under 0.8% wide and
// quantiles are interpolated inside it. internal/stats.LiveHist has 8
// sub-buckets (12.5%), wider than the 10% bound a regression is judged
// by, which is why the benchmark carries its own.
type hist struct {
	n int64
	b [histBuckets]uint32
}

const (
	histSub     = 7
	histBuckets = (40 - histSub + 1) << histSub // values up to 2^40 ns ≈ 18 min
)

func histBucket(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	major := bits.Len64(uint64(v)) - 1
	i := (major-histSub+1)<<histSub + int(v>>(uint(major)-histSub))&(1<<histSub-1)
	return min(i, histBuckets-1)
}

func histLow(i int) float64 {
	if i < 1<<histSub {
		return float64(i)
	}
	major := i>>histSub + histSub - 1
	return float64(int64(1<<histSub+i&(1<<histSub-1)) << (uint(major) - histSub))
}

func (h *hist) add(ns int64) {
	h.b[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n)
	var seen float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := histLow(i)
			return lo + (histLow(i+1)-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(histBuckets)
}

// summary is one metric over a run's segments: the median is the
// reported value, min and max its spread.
type summary struct {
	median, min, max float64
	q1, q3           float64
	n                int
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		median: stats.Percentile(s, 0.5), min: s[0], max: s[len(s)-1],
		q1: stats.Percentile(s, 0.25), q3: stats.Percentile(s, 0.75), n: len(s),
	}
}

func medianOf(vals []float64) float64 { return summarize(vals).median }

// spread is what a metric's own values disagree by, as a share of
// their median, compared against its bound to flag it unresolved: the
// whole range of the 5 segments, the middle half of the 25 set-ups.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	if s.n > segments {
		return (s.q3 - s.q1) / math.Abs(s.median)
	}
	return (s.max - s.min) / math.Abs(s.median)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
