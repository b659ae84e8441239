package sweep

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Table block names recognized inside <!-- mmsweep:begin NAME --> /
// <!-- mmsweep:end NAME --> marker pairs in EXPERIMENTS.md.
const (
	TableAvailability = "availability"
	TableByzantine    = "byzantine"
	TableCorruption   = "corruption"
	TableThroughput   = "throughput"
)

// GenerateTables renders the measured markdown blocks from a sweep's
// run records, keyed by block name. Records route to at most one
// table by their scenario's fault model:
//
//   - availability: in-process kill chaos only (the kill-rate × r
//     table);
//   - byzantine: r ≥ 2 in-process with no kill/corrupt/resize chaos —
//     voted and first-answer configurations side by side, honest and
//     lying;
//   - corruption: in-process corruption chaos (time-to-quiescence
//     table);
//   - throughput: plain runs of any transport, one line per scenario.
//
// Process-cluster (net/gate) chaos runs are gated but not tabled:
// their numbers measure the wire, not the match-making economics the
// mem tables isolate, and mixing transports in one table would blur
// both. Every block ends with a provenance comment naming the
// recording toolchain, so a regenerated doc always says where its
// numbers came from.
func GenerateTables(recs []*RunRecord, env Env) map[string]string {
	var avail, byz, corr, thr []*RunRecord
	for _, r := range recs {
		if r.Result == nil {
			continue
		}
		s := r.Scenario
		plain := s.KillRate == 0 && s.CorruptRate == 0 && s.ByzRate == 0 &&
			s.VoteQuorum == 0 && s.ResizeEvery == 0
		overWire := s.Transport == "net" || s.Transport == "gate"
		switch {
		case overWire && plain:
			thr = append(thr, r)
		case overWire:
			// Gates only: chaos economics are measured in-process.
		case s.KillRate > 0 && s.CorruptRate == 0 && s.ByzRate == 0 && s.VoteQuorum == 0 && s.ResizeEvery == 0:
			avail = append(avail, r)
		case s.CorruptRate > 0 && s.ByzRate == 0 && s.VoteQuorum == 0:
			corr = append(corr, r)
		case s.KillRate == 0 && s.CorruptRate == 0 && s.ResizeEvery == 0 && s.Replicas >= 2 && !s.Hints && s.Batch == 0:
			byz = append(byz, r)
		case plain:
			thr = append(thr, r)
		}
	}
	stamp := fmt.Sprintf("<!-- measured by mmsweep · %s %s/%s -->\n", env.GoVersion, env.OS, env.Arch)
	out := make(map[string]string, 4)
	if len(avail) > 0 {
		out[TableAvailability] = availabilityTable(avail) + stamp
	}
	if len(byz) > 0 {
		out[TableByzantine] = byzantineTable(byz) + stamp
	}
	if len(corr) > 0 {
		out[TableCorruption] = corruptionTable(corr) + stamp
	}
	if len(thr) > 0 {
		out[TableThroughput] = throughputBlock(thr) + stamp
	}
	return out
}

// availabilityTable is the kill-rate × r table: the paper's
// replication economics measured.
func availabilityTable(recs []*RunRecord) string {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Scenario, recs[j].Scenario
		if a.KillRate != b.KillRate {
			return a.KillRate < b.KillRate
		}
		if a.Replicas != b.Replicas {
			return a.Replicas < b.Replicas
		}
		return recs[i].Scenario.Name < recs[j].Scenario.Name
	})
	var b strings.Builder
	b.WriteString("| kill rate | r | availability | not-found | fallthroughs | passes/locate |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range recs {
		s, m := r.Scenario, r.Result.Metrics
		fall := "—"
		if s.Replicas >= 2 {
			fall = comma(m.ReplicaFallthroughs)
		}
		fmt.Fprintf(&b, "| %g/s | %d | %.4f | %s | %s | %.2f |\n",
			s.KillRate, s.Replicas, m.Availability, comma(m.NotFound), fall, m.PassesPerLocate)
	}
	return b.String()
}

// byzantineTable is the answer-voting cost/integrity table.
func byzantineTable(recs []*RunRecord) string {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Scenario, recs[j].Scenario
		if a.Replicas != b.Replicas {
			return a.Replicas < b.Replicas
		}
		if a.VoteQuorum != b.VoteQuorum {
			return a.VoteQuorum < b.VoteQuorum
		}
		if a.ByzRate != b.ByzRate {
			return a.ByzRate < b.ByzRate
		}
		return a.Name < b.Name
	})
	var b strings.Builder
	b.WriteString("| configuration | throughput | passes/locate | availability | forged surfaced |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range recs {
		s, m := r.Scenario, r.Result.Metrics
		cfg := fmt.Sprintf("r=%d, ", s.Replicas)
		switch {
		case s.VoteQuorum > 0:
			cfg += fmt.Sprintf("vote quorum %d", s.VoteQuorum)
		case s.ByzRate > 0:
			cfg += "no voting"
		default:
			cfg += "first-answer fallthrough"
		}
		if s.ByzRate > 0 {
			cfg += fmt.Sprintf(", f=%d liar re-armed %g/s", s.Liars, s.ByzRate)
		} else {
			cfg += ", honest"
		}
		forged := "n/a"
		switch {
		case s.VoteQuorum > 0 && s.ByzRate > 0:
			forged = fmt.Sprintf("**%s** (conflicts=%s", comma(r.Result.Forged), comma(m.VoteConflicts))
			if m.SuspectedNodes > 0 {
				forged += fmt.Sprintf(", suspected=%d", m.SuspectedNodes)
			}
			forged += ")"
		case s.VoteQuorum > 0:
			forged = comma(r.Result.Forged)
		case s.ByzRate > 0:
			forged = fmt.Sprintf("**%s**", comma(r.Result.Forged))
		}
		fmt.Fprintf(&b, "| %s | ~%sk locates/sec | %.2f | %.4f | %s |\n",
			cfg, comma(int64(m.QPS/1000+0.5)), m.PassesPerLocate, m.Availability, forged)
	}
	return b.String()
}

// corruptionTable is the anti-entropy time-to-quiescence table.
func corruptionTable(recs []*RunRecord) string {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Scenario, recs[j].Scenario
		if a.CorruptRate != b.CorruptRate {
			return a.CorruptRate < b.CorruptRate
		}
		if a.Replicas != b.Replicas {
			return a.Replicas < b.Replicas
		}
		return a.Name < b.Name
	})
	var b strings.Builder
	b.WriteString("| corrupt rate | r | injected | repaired | drain rounds | time-to-quiescence | availability |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range recs {
		s, m := r.Scenario, r.Result.Metrics
		fmt.Fprintf(&b, "| %g/s | %d | %s | %s | %d | %v | %.4f |\n",
			s.CorruptRate, s.Replicas, comma(m.CorruptionsInjected), comma(m.RepairedPosts),
			r.Result.QuiesceRounds, r.Result.QuiesceIn.Round(time.Microsecond), m.Availability)
	}
	return b.String()
}

// throughputBlock is the plain-run throughput code block, one line per
// scenario.
func throughputBlock(recs []*RunRecord) string {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Scenario.Name < recs[j].Scenario.Name })
	width := 0
	for _, r := range recs {
		if len(r.Scenario.Name) > width {
			width = len(r.Scenario.Name)
		}
	}
	var b strings.Builder
	b.WriteString("```\n")
	for _, r := range recs {
		m := r.Result.Metrics
		fmt.Fprintf(&b, "%-*s  %9s locates/sec  %5.2f passes/locate  availability=%.4f\n",
			width, r.Scenario.Name, comma(int64(m.QPS+0.5)), m.PassesPerLocate, m.Availability)
	}
	b.WriteString("```\n")
	return b.String()
}

// comma renders n with thousands separators (12345 → "12,345").
func comma(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	if neg {
		s = "-" + s
	}
	return s
}

const (
	beginPrefix = "<!-- mmsweep:begin "
	endPrefix   = "<!-- mmsweep:end "
	markerClose = " -->"
)

// UpdateDoc replaces the body of every mmsweep marker block in doc
// with its generated table, leaving the markers and all surrounding
// prose untouched. Every block in the doc must have a generated
// table, and every marker pair must be well formed — a sweep too
// narrow to regenerate a block is an error, not a silent stale table.
func UpdateDoc(doc []byte, tables map[string]string) ([]byte, error) {
	s := string(doc)
	var out strings.Builder
	for {
		i := strings.Index(s, beginPrefix)
		if i < 0 {
			out.WriteString(s)
			break
		}
		rest := s[i+len(beginPrefix):]
		j := strings.Index(rest, markerClose)
		if j < 0 {
			return nil, fmt.Errorf("unterminated %q marker", strings.TrimSpace(beginPrefix))
		}
		name := rest[:j]
		end := endPrefix + name + markerClose
		k := strings.Index(rest, end)
		if k < 0 {
			return nil, fmt.Errorf("mmsweep block %q has no end marker", name)
		}
		tbl, ok := tables[name]
		if !ok {
			return nil, fmt.Errorf("doc has mmsweep block %q but the sweep generated no such table", name)
		}
		out.WriteString(s[:i])
		out.WriteString(beginPrefix + name + markerClose + "\n")
		out.WriteString(tbl)
		out.WriteString(end)
		s = rest[k+len(end):]
	}
	return []byte(out.String()), nil
}
