package gate

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"matchmake/internal/cluster"
)

// Prometheus text exposition (version 0.0.4), rendered with nothing
// but fmt: the format is three line shapes (# HELP, # TYPE, sample),
// which is not worth a client library. The same helpers serve the
// gateway's /metrics (cluster snapshot + per-tenant rollups) and
// mmnode's /metrics (per-opcode counters), so every process in a
// deployment scrapes uniformly.

// promMeta emits the HELP/TYPE header for one metric.
func promMeta(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promVal emits one unlabeled sample.
func promVal(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// promLabeled emits one sample with a single label.
func promLabeled(w io.Writer, name, label, lv string, v float64) {
	fmt.Fprintf(w, "%s{%s=%q} %g\n", name, label, lv, v)
}

// promSimple emits header and unlabeled sample in one go.
func promSimple(w io.Writer, name, typ, help string, v float64) {
	promMeta(w, name, typ, help)
	promVal(w, name, v)
}

// boolGauge renders a bool as 0/1.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteClusterMetrics renders a cluster metrics snapshot in Prometheus
// text form under the mm_cluster_* namespace. Counters are cumulative
// since the cluster's last ResetMetrics (the gateway never resets, so
// they behave as conventional counters). Every field of the snapshot
// has a series here or a stated reason not to (TestSnapshotFieldsExported).
func WriteClusterMetrics(w io.Writer, s cluster.MetricsSnapshot) {
	promSimple(w, "mm_cluster_locates_total", "counter", "Completed locate calls, including failures.", float64(s.Locates))
	promSimple(w, "mm_cluster_errors_total", "counter", "Failed locate calls.", float64(s.Errors))
	promSimple(w, "mm_cluster_not_found_total", "counter", "Locate failures that were rendezvous misses.", float64(s.NotFound))
	promSimple(w, "mm_cluster_coalesced_total", "counter", "Locates served by another caller's in-flight request (always 0 on the in-process mem and sim transports).", float64(s.Coalesced))
	promSimple(w, "mm_cluster_posts_total", "counter", "Server registrations posted.", float64(s.Posts))
	promSimple(w, "mm_cluster_shed_total", "counter", "Submissions rejected by cluster overload control.", float64(s.Shed))
	promSimple(w, "mm_cluster_hint_hits_total", "counter", "Locates answered by a probe-confirmed address hint.", float64(s.HintHits))
	promSimple(w, "mm_cluster_hint_stale_total", "counter", "Hints skipped on a generation mismatch.", float64(s.HintStale))
	promSimple(w, "mm_cluster_hint_probe_fails_total", "counter", "Hint probes that found the cached address gone.", float64(s.HintProbeFails))
	promSimple(w, "mm_cluster_hint_hit_rate", "gauge", "Hint hits per locate over the measurement window.", s.HintHitRate)
	promSimple(w, "mm_cluster_availability", "gauge", "Fraction of serviceable locates the rendezvous machinery answered.", s.Availability)
	promSimple(w, "mm_cluster_replica_fallthroughs_total", "counter", "Locates resolved only by a replica family deeper than the first.", float64(s.ReplicaFallthroughs))
	promSimple(w, "mm_cluster_mean_replica_depth", "gauge", "Mean resolution depth of successful replicated floods.", s.MeanReplicaDepth)
	promMeta(w, "mm_cluster_replica_depth_total", "counter", "Replicated floods by the depth of the replica family that resolved them.")
	for depth, n := range s.ReplicaDepths {
		promLabeled(w, "mm_cluster_replica_depth_total", "depth", strconv.Itoa(depth), float64(n))
	}
	promSimple(w, "mm_cluster_vote_quorum", "gauge", "Effective answer-voting electorate width (0: voting off).", float64(s.VoteQuorum))
	promSimple(w, "mm_cluster_voted_locates_total", "counter", "Locates resolved by quorum vote.", float64(s.VotedLocates))
	promSimple(w, "mm_cluster_vote_conflicts_total", "counter", "Votes in which some answer contradicted the majority.", float64(s.VoteConflicts))
	promSimple(w, "mm_cluster_suspected_nodes", "gauge", "Rendezvous nodes currently quarantined by answer voting.", float64(s.SuspectedNodes))
	promSimple(w, "mm_cluster_reconcile_rounds_total", "counter", "Completed anti-entropy reconciliation rounds.", float64(s.ReconcileRounds))
	promSimple(w, "mm_cluster_repaired_posts_total", "counter", "Repair actions taken by reconciliation rounds.", float64(s.RepairedPosts))
	promSimple(w, "mm_cluster_corruptions_injected_total", "counter", "Adversarial operations applied through the corruption injector.", float64(s.CorruptionsInjected))
	promSimple(w, "mm_cluster_passes_total", "counter", "Transport message passes (the paper's cost unit).", float64(s.Passes))
	promSimple(w, "mm_cluster_passes_per_locate", "gauge", "Message passes amortized over locates in the window.", s.PassesPerLocate)
	promSimple(w, "mm_cluster_qps", "gauge", "Locates per second over the measurement window.", s.QPS)
	promSimple(w, "mm_cluster_locate_p50_seconds", "gauge", "Median locate latency (sampled).", s.P50/1e9)
	promSimple(w, "mm_cluster_locate_p99_seconds", "gauge", "99th-percentile locate latency (sampled).", s.P99/1e9)
	promSimple(w, "mm_cluster_locate_max_seconds", "gauge", "Maximum sampled locate latency.", float64(s.Max)/1e9)
	promSimple(w, "mm_cluster_elastic", "gauge", "Whether the transport runs epoch-versioned elastic membership.", boolGauge(s.Elastic))
	if s.Elastic {
		promSimple(w, "mm_cluster_epoch", "gauge", "Serving epoch sequence number.", float64(s.Epoch))
		promSimple(w, "mm_cluster_resizing", "gauge", "Whether a dual-epoch migration is draining.", boolGauge(s.Resizing))
		promSimple(w, "mm_cluster_migrated_posts_total", "counter", "Postings moved by elastic resizes.", float64(s.MigratedPosts))
		promSimple(w, "mm_cluster_dual_epoch_locates_total", "counter", "Locates resolved by the retiring epoch during resizes.", float64(s.DualEpochLocates))
	}
}

// writeMetrics renders the gateway's full scrape: cluster snapshot,
// gateway-level counters, then per-tenant rollups (sorted by tenant id
// for deterministic output).
func (g *Gateway) writeMetrics(w io.Writer) {
	WriteClusterMetrics(w, g.c.Metrics())

	promSimple(w, "mm_gate_uptime_seconds", "gauge", "Seconds since the gateway started.", time.Since(g.start).Seconds())
	promSimple(w, "mm_gate_denied_total", "counter", "Requests rejected for an unknown or missing token.", float64(g.denied.Load()))
	g.regMu.Lock()
	live := len(g.regs)
	g.regMu.Unlock()
	promSimple(w, "mm_gate_registrations", "gauge", "Live registrations held by the gateway.", float64(live))
	promSimple(w, "mm_gate_tenants", "gauge", "Configured tenants.", float64(len(g.tenants)))

	ids := make([]string, 0, len(g.tenants))
	for id := range g.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	type col struct {
		name, typ, help string
		val             func(*tenant) float64
	}
	cols := []col{
		{"mm_gate_tenant_requests_total", "counter", "Admitted API requests (a locate-batch of k counts k).", func(t *tenant) float64 { return float64(t.m.requests.Load()) }},
		{"mm_gate_tenant_locates_total", "counter", "Locates requested by the tenant.", func(t *tenant) float64 { return float64(t.m.locates.Load()) }},
		{"mm_gate_tenant_locate_errors_total", "counter", "Tenant locates that failed (mostly not-found).", func(t *tenant) float64 { return float64(t.m.locateErrs.Load()) }},
		{"mm_gate_tenant_registers_total", "counter", "Registrations made by the tenant.", func(t *tenant) float64 { return float64(t.m.registers.Load()) }},
		{"mm_gate_tenant_deregisters_total", "counter", "Deregistrations made by the tenant.", func(t *tenant) float64 { return float64(t.m.deregisters.Load()) }},
		{"mm_gate_tenant_shed_total", "counter", "Requests shed by the tenant's quota.", func(t *tenant) float64 { return float64(t.m.shed.Load()) }},
		{"mm_gate_tenant_watch_events_total", "counter", "Watch events delivered to the tenant.", func(t *tenant) float64 { return float64(t.m.watchEvents.Load()) }},
		{"mm_gate_tenant_watch_dropped_total", "counter", "Watch events lost to slow tenant subscribers.", func(t *tenant) float64 { return float64(t.m.watchDropped.Load()) }},
		{"mm_gate_tenant_watchers", "gauge", "Live watch subscriptions held by the tenant.", func(t *tenant) float64 { return float64(t.m.watchers.Load()) }},
	}
	for _, c := range cols {
		promMeta(w, c.name, c.typ, c.help)
		for _, id := range ids {
			promLabeled(w, c.name, "tenant", id, c.val(g.tenants[id]))
		}
	}
}

// NodeMetricsHandler serves a node-shard worker's counters in
// Prometheus text form: per-opcode request counts and the wire slot
// range the process owns. Mount it on mmnode's -metrics listener.
func NodeMetricsHandler(srv *cluster.NodeServer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		ops := srv.OpCounts()
		names := make([]string, 0, len(ops))
		for name := range ops {
			names = append(names, name)
		}
		sort.Strings(names)
		promMeta(w, "mm_node_ops_total", "counter", "Requests handled, by node-protocol opcode.")
		for _, name := range names {
			promLabeled(w, "mm_node_ops_total", "op", name, float64(ops[name]))
		}
		lo, hi, n := srv.Range()
		promSimple(w, "mm_node_range_lo", "gauge", "First node (inclusive) this process serves.", float64(lo))
		promSimple(w, "mm_node_range_hi", "gauge", "Last node (exclusive) this process serves.", float64(hi))
		promSimple(w, "mm_node_cluster_nodes", "gauge", "Total nodes in the cluster this process is part of.", float64(n))
	})
}
