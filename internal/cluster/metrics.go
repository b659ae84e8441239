package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/stats"
)

// histStripes is the number of latency histogram stripes; writers pick
// one by their lane, readers merge them into a scratch histogram.
const histStripes = 8

type stripedHist struct {
	stripes [histStripes]stats.LiveHist
}

// merged sums the stripes into a scratch histogram; a nil stripedHist —
// a window that timed no locate yet — merges to an empty one.
func (h *stripedHist) merged() *stats.LiveHist {
	out := &stats.LiveHist{}
	for i := 0; h != nil && i < histStripes; i++ {
		out.Merge(&h.stripes[i])
	}
	return out
}

// Metrics accumulates the cluster's live serving counters. The request
// path touches only striped, cacheline-padded counters, all on the one
// stripe the close gate handed the operation (its lane, see
// Cluster.enter) — a stripe that follows the calling processor, so
// metrics neither serialize the hot path on a shared atomic nor pull a
// counter line from another core's cache; snapshot reads sum the
// stripes and race benignly with writers.
type Metrics struct {
	locates   stats.StripedCounter
	errors    atomic.Int64 // failures are off the fast path
	notFound  atomic.Int64 // the errors that were rendezvous misses
	coalesced atomic.Int64
	posts     atomic.Int64
	shed      atomic.Int64

	// Hint-cache counters: hintHits are locates served by a confirmed
	// probe (striped — it ticks once per fast-path hit); hintStale are
	// hints skipped on a generation mismatch; hintProbeFails are probes
	// the hinted address failed to confirm (both cold: they precede a
	// full flood).
	hintHits       stats.StripedCounter
	hintStale      atomic.Int64
	hintProbeFails atomic.Int64

	// Answer-voting counters (vote.go), ticking only when
	// Options.VoteQuorum enables the Byzantine locate path:
	// votedLocates counts locates resolved by quorum vote (striped — it
	// ticks once per voted locate), voteConflicts the votes in which
	// some answer was contradicted by the majority (or proved forged by
	// its port alone).
	votedLocates  stats.StripedCounter
	voteConflicts atomic.Int64

	// replicaDepth is the crash-tolerance ledger of the replicated
	// locate path: which replica family resolved each flood (depth 0 =
	// first family tried), and how many locates no family could answer.
	// It only ticks on replicated transports, on the locate's lane.
	replicaDepth stats.DepthCounter

	// latency is swapped wholesale on reset rather than cleared in
	// place: the stripes must not be zeroed under writers, but a pointer
	// swap may — in-flight observations land in whichever window's
	// histogram they loaded, which is the most a live reset can promise.
	// It is nil until the window's first timed locate (see hist), so a
	// cluster that never locates never allocates its ~46 KB.
	latency atomic.Pointer[stripedHist]

	// epoch marks the start of the current measurement window; passes0
	// is the transport pass counter at that instant, and migrated0 /
	// dual0 the elastic transport's cumulative migration counters (so
	// the snapshot reports per-window figures, like Passes).
	epochNanos atomic.Int64
	passes0    atomic.Int64
	migrated0  atomic.Int64
	dual0      atomic.Int64

	// Anti-entropy baselines, captured like the elastic counters so the
	// snapshot reports per-window reconciliation figures.
	reconRounds0   atomic.Int64
	reconRepaired0 atomic.Int64
	reconInjected0 atomic.Int64
}

// latencySampleShift sets the latency sampling rate: 1 in
// 2^latencySampleShift locates is timed and recorded. Reading the
// clock twice costs more than the entire hint-hit serving path, so the
// quantiles come from a deterministic per-stripe 1-in-8 sample — ample
// resolution for p50/p99 under any steady load, at an eighth of the
// observation cost. Max reflects the sampled population.
const latencySampleShift = 3

func (m *Metrics) start(tr Transport) {
	m.latency.Store(nil)
	m.epochNanos.Store(time.Now().UnixNano())
	m.passes0.Store(tr.Passes())
	if et, ok := tr.(ElasticTransport); ok && et.Elastic() {
		m.migrated0.Store(et.MigratedPosts())
		m.dual0.Store(et.DualEpochLocates())
	}
	if at, ok := tr.(AntiEntropyTransport); ok {
		rs := at.ReconcileStats()
		m.reconRounds0.Store(rs.Rounds)
		m.reconRepaired0.Store(rs.Repaired)
		m.reconInjected0.Store(rs.Injected)
	}
}

// sampleLocate counts a beginning locate on stripe — the caller's lane —
// and reports whether this one should be timed: the stripe's own count
// is the sampling tick, so each lane times every eighth of its locates.
func (m *Metrics) sampleLocate(stripe int) bool {
	return m.locates.Add(stripe, 1)&(1<<latencySampleShift-1) == 0
}

// observeLocate records a completed locate already counted by
// sampleLocate, on the same lane (masked down to a histogram stripe).
// The clock is read, and the time since begin recorded, only when
// sampled is set.
func (m *Metrics) observeLocate(stripe int, begin time.Time, sampled bool, err error) {
	if err != nil {
		m.errors.Add(1)
		if errors.Is(err, core.ErrNotFound) {
			m.notFound.Add(1)
		}
	}
	if sampled {
		m.hist().stripes[stripe&(histStripes-1)].Observe(uint64(time.Since(begin)))
	}
}

// hist returns the window's latency histogram, installing it with a CAS
// from nil on the window's first timed locate.
func (m *Metrics) hist() *stripedHist {
	for {
		if h := m.latency.Load(); h != nil {
			return h
		}
		m.latency.CompareAndSwap(nil, &stripedHist{})
	}
}

func (m *Metrics) reset(tr Transport) {
	m.locates.Reset()
	m.errors.Store(0)
	m.notFound.Store(0)
	m.coalesced.Store(0)
	m.posts.Store(0)
	m.shed.Store(0)
	m.hintHits.Reset()
	m.hintStale.Store(0)
	m.hintProbeFails.Store(0)
	m.votedLocates.Reset()
	m.voteConflicts.Store(0)
	m.replicaDepth.Reset()
	m.start(tr)
}

// MetricsSnapshot is one point-in-time view of the serving metrics.
type MetricsSnapshot struct {
	// Locates counts completed locate calls (including failures);
	// Errors the failed ones; NotFound the errors that were rendezvous
	// misses (no replica family answered) as opposed to a crashed or
	// invalid caller; Coalesced the callers served by another caller's
	// flight (always 0 on MemTransport and SimTransport, which never
	// share a flood); Posts the registrations; Shed the submissions
	// rejected with ErrOverload.
	Locates   int64
	Errors    int64
	NotFound  int64
	Coalesced int64
	Posts     int64
	Shed      int64

	// HintHits counts locates answered by a probe-confirmed address
	// hint; HintStale the hints skipped on a generation mismatch;
	// HintProbeFails the probes that found the hinted address gone.
	// HintHitRate is HintHits/Locates over the window.
	HintHits       int64
	HintStale      int64
	HintProbeFails int64
	HintHitRate    float64

	// Availability is the fraction of serviceable locates the
	// rendezvous machinery answered over the window: rendezvous misses
	// count against it, while locates whose caller was itself crashed
	// or invalid (nothing any name server could do) are excluded from
	// the denominator. 1 when no locate was serviceable.
	// ReplicaFallthroughs counts locates resolved only by a replica
	// family deeper than the first tried, MeanReplicaDepth the average
	// resolution depth of successful replicated floods, and
	// ReplicaDepths the full per-depth distribution; all three stay
	// zero on unreplicated transports. The depth counters cover single
	// locate floods only — batched locates fall through inside the
	// transport, which does not report per-request depth, so a batch's
	// fallthroughs show up in passes and NotFound/Availability but not
	// here.
	Availability        float64
	ReplicaFallthroughs int64
	MeanReplicaDepth    float64
	ReplicaDepths       []int64

	// Answer-voting counters, meaningful only when VoteQuorum is
	// nonzero (Options.VoteQuorum enabled the Byzantine locate path):
	// VoteQuorum is the effective electorate width (the configured
	// quorum clamped to the replication factor), VotedLocates the
	// locates resolved by quorum vote over the window, VoteConflicts
	// the votes that caught some answer contradicting the majority,
	// and SuspectedNodes the rendezvous nodes currently quarantined —
	// a point-in-time gauge, cleared by a successful reconciliation
	// round rather than by ResetMetrics.
	VoteQuorum     int
	VotedLocates   int64
	VoteConflicts  int64
	SuspectedNodes int

	// Elastic membership counters, meaningful only when Elastic is set:
	// Epoch is the serving epoch's sequence number, Resizing whether a
	// dual-epoch migration is draining, MigratedPosts the postings
	// moved by resizes over the window (each resize's count matches the
	// remap's minimal-movement prediction), and DualEpochLocates the
	// locate floods the retiring epoch's rendezvous resolved during
	// dual-epoch phases in the window.
	Elastic          bool
	Epoch            uint64
	Resizing         bool
	MigratedPosts    int64
	DualEpochLocates int64

	// Anti-entropy counters over the window, nonzero only on transports
	// implementing AntiEntropyTransport with the loop (or explicit
	// rounds / corruption injection) in use: ReconcileRounds is the
	// number of completed reconciliation rounds, RepairedPosts the
	// repair actions they took (postings dropped, expired or re-posted
	// against a digest mismatch), and CorruptionsInjected the
	// adversarial operations applied through the corruption injector.
	ReconcileRounds     int64
	RepairedPosts       int64
	CorruptionsInjected int64

	// Elapsed is the measurement window; QPS is Locates/Elapsed.
	Elapsed time.Duration
	QPS     float64

	// Latency quantiles of the locate path, in nanoseconds.
	P50 float64
	P99 float64
	Max uint64

	// Passes is the transport's message-pass count over the window;
	// PassesPerLocate amortizes all match-making traffic in the window
	// (queries, replies, and any posting churn) over the locates.
	Passes          int64
	PassesPerLocate float64
}

func (m *Metrics) snapshot(tr Transport) MetricsSnapshot {
	hist := m.latency.Load().merged()
	s := MetricsSnapshot{
		Locates:             m.locates.Load(),
		Errors:              m.errors.Load(),
		NotFound:            m.notFound.Load(),
		Coalesced:           m.coalesced.Load(),
		Posts:               m.posts.Load(),
		Shed:                m.shed.Load(),
		HintHits:            m.hintHits.Load(),
		HintStale:           m.hintStale.Load(),
		HintProbeFails:      m.hintProbeFails.Load(),
		VotedLocates:        m.votedLocates.Load(),
		VoteConflicts:       m.voteConflicts.Load(),
		Availability:        1,
		ReplicaFallthroughs: m.replicaDepth.Fallthroughs(),
		MeanReplicaDepth:    m.replicaDepth.MeanDepth(),
		Elapsed:             time.Duration(time.Now().UnixNano() - m.epochNanos.Load()),
		P50:                 hist.Quantile(0.50),
		P99:                 hist.Quantile(0.99),
		Max:                 hist.Max(),
		Passes:              tr.Passes() - m.passes0.Load(),
	}
	if m.replicaDepth.Total() > 0 {
		s.ReplicaDepths = m.replicaDepth.Counts()
	}
	if et, ok := tr.(ElasticTransport); ok && et.Elastic() {
		s.Elastic = true
		s.Epoch = et.Epoch()
		s.Resizing = et.Resizing()
		s.MigratedPosts = et.MigratedPosts() - m.migrated0.Load()
		s.DualEpochLocates = et.DualEpochLocates() - m.dual0.Load()
	}
	if at, ok := tr.(AntiEntropyTransport); ok {
		rs := at.ReconcileStats()
		s.ReconcileRounds = rs.Rounds - m.reconRounds0.Load()
		s.RepairedPosts = rs.Repaired - m.reconRepaired0.Load()
		s.CorruptionsInjected = rs.Injected - m.reconInjected0.Load()
	}
	if s.Elapsed > 0 {
		s.QPS = float64(s.Locates) / s.Elapsed.Seconds()
	}
	if s.Locates > 0 {
		s.PassesPerLocate = float64(s.Passes) / float64(s.Locates)
		s.HintHitRate = float64(s.HintHits) / float64(s.Locates)
	}
	if serviceable := s.Locates - (s.Errors - s.NotFound); serviceable > 0 {
		s.Availability = 1 - float64(s.NotFound)/float64(serviceable)
	}
	return s
}

// String renders the snapshot as a one-stanza report.
func (s MetricsSnapshot) String() string {
	out := fmt.Sprintf(
		"locates=%d errors=%d (not-found=%d) coalesced=%d posts=%d shed=%d\n"+
			"elapsed=%v throughput=%.0f locates/sec\n"+
			"latency p50=%v p99=%v max=%v\n"+
			"message passes=%d (%.2f per locate)",
		s.Locates, s.Errors, s.NotFound, s.Coalesced, s.Posts, s.Shed,
		s.Elapsed.Round(time.Millisecond), s.QPS,
		time.Duration(s.P50).Round(100*time.Nanosecond),
		time.Duration(s.P99).Round(100*time.Nanosecond),
		time.Duration(s.Max).Round(100*time.Nanosecond),
		s.Passes, s.PassesPerLocate,
	)
	if s.HintHits > 0 || s.HintStale > 0 || s.HintProbeFails > 0 {
		out += fmt.Sprintf("\nhints: hits=%d (%.1f%% of locates) stale=%d probe-misses=%d",
			s.HintHits, 100*s.HintHitRate, s.HintStale, s.HintProbeFails)
	}
	if s.ReplicaDepths != nil {
		out += fmt.Sprintf("\navailability=%.4f replica fallthroughs=%d mean depth=%.3f depths=%v",
			s.Availability, s.ReplicaFallthroughs, s.MeanReplicaDepth, s.ReplicaDepths)
	} else if s.Errors > 0 {
		out += fmt.Sprintf("\navailability=%.4f", s.Availability)
	}
	if s.VoteQuorum > 0 {
		out += fmt.Sprintf("\nvoting: quorum=%d voted=%d conflicts=%d suspected=%d",
			s.VoteQuorum, s.VotedLocates, s.VoteConflicts, s.SuspectedNodes)
	}
	if s.Elastic {
		out += fmt.Sprintf("\nepoch=%d resizing=%v migrated-posts=%d dual-epoch-locates=%d",
			s.Epoch, s.Resizing, s.MigratedPosts, s.DualEpochLocates)
	}
	if s.ReconcileRounds > 0 || s.RepairedPosts > 0 || s.CorruptionsInjected > 0 {
		out += fmt.Sprintf("\nreconcile: rounds=%d repaired=%d corruptions=%d",
			s.ReconcileRounds, s.RepairedPosts, s.CorruptionsInjected)
	}
	return out
}
