package sweep

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"matchmake/internal/sweep/loadrun"
	"matchmake/internal/sweep/procctl"
)

// Env records the toolchain a sweep ran under, so regenerated tables
// carry their provenance.
type Env struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	// Command is the invocation that produced the results, for the
	// doc's reproducibility note.
	Command string `json:"command,omitempty"`
}

// HostEnv captures the running toolchain.
func HostEnv(command string) Env {
	return Env{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Command:   command,
	}
}

// RunRecord is the per-run results file: the concrete scenario, the
// engine's typed result, the gate verdict, and the error if the run
// never completed.
type RunRecord struct {
	Scenario Scenario        `json:"scenario"`
	Result   *loadrun.Result `json:"result,omitempty"`
	Gate     *GateReport     `json:"gate,omitempty"`
	Err      string          `json:"error,omitempty"`
}

// IndexEntry is one run's summary line in the results index.
type IndexEntry struct {
	Name string `json:"name"`
	File string `json:"file"`
	// OK means the run completed and (when gating) every gate passed.
	OK              bool    `json:"ok"`
	Locates         int64   `json:"locates"`
	QPS             float64 `json:"qps"`
	PassesPerLocate float64 `json:"passes_per_locate"`
	Availability    float64 `json:"availability"`
	Forged          int64   `json:"forged"`
}

// Index is the sweep's results index (results/index.json): one entry
// per run plus the skip notes and the recording environment.
type Index struct {
	Env       Env          `json:"env"`
	Scenarios int          `json:"scenarios"`
	Passed    int          `json:"passed"`
	Failed    int          `json:"failed"`
	Skipped   []string     `json:"skipped,omitempty"`
	Runs      []IndexEntry `json:"runs"`
}

// Options configure one sweep execution.
type Options struct {
	// ResultsDir receives one <name>.json per run plus index.json.
	ResultsDir string
	// Gate applies the per-scenario invariants and makes Run fail when
	// any run breaks one.
	Gate bool
	// Addrs (the engine's -addrs list) targets an external net cluster
	// (compose, remote hosts) instead of spawning node processes per net
	// scenario; the matrix's node count must match the external partition.
	Addrs string
	// Procs is the node-process count for spawned net clusters
	// (default 3).
	Procs int
	// Env stamps the index; zero means HostEnv("").
	Env Env
	// Out receives progress lines (nil = discard).
	Out io.Writer
}

// Run expands the matrix and drives every scenario through the load
// engine, spawning a real node-process cluster per net scenario (the
// calling binary must have procctl.MaybeWorker at the top of main) or
// targeting opts.Addrs. Every run's record is written before Run
// returns; the error reports gate or run failures after the sweep has
// finished, never mid-flight.
func Run(m *Matrix, opts Options) (*Index, error) {
	runs, notes, err := m.Expand()
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("matrix expands to no scenarios")
	}
	slices.SortFunc(runs, func(a, b Scenario) int { return strings.Compare(a.Name, b.Name) })
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	if opts.ResultsDir != "" {
		if err := os.MkdirAll(opts.ResultsDir, 0o755); err != nil {
			return nil, err
		}
	}
	env := opts.Env
	if env == (Env{}) {
		env = HostEnv("")
	}
	idx := &Index{Env: env, Scenarios: len(runs), Skipped: notes}
	for _, note := range notes {
		fmt.Fprintf(out, "mmsweep: %s\n", note)
	}
	var failures []string
	for i, s := range runs {
		rec := runOne(s, opts)
		entry := IndexEntry{Name: s.Name, File: s.Name + ".json"}
		if rec.Result != nil {
			entry.Locates = rec.Result.Metrics.Locates
			entry.QPS = rec.Result.Metrics.QPS
			entry.PassesPerLocate = rec.Result.Metrics.PassesPerLocate
			entry.Availability = rec.Result.Metrics.Availability
			entry.Forged = rec.Result.Forged
		}
		entry.OK = rec.Err == "" && (rec.Gate == nil || rec.Gate.Pass)
		if entry.OK {
			idx.Passed++
		} else {
			idx.Failed++
			failures = append(failures, s.Name+": "+failureDetail(rec))
		}
		idx.Runs = append(idx.Runs, entry)
		if opts.ResultsDir != "" {
			if err := writeJSON(filepath.Join(opts.ResultsDir, entry.File), rec); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(out, "mmsweep: [%d/%d] %s: %s\n", i+1, len(runs), s.Name, summarize(rec))
	}
	if opts.ResultsDir != "" {
		if err := writeJSON(filepath.Join(opts.ResultsDir, "index.json"), idx); err != nil {
			return nil, err
		}
	}
	if len(failures) > 0 && (opts.Gate || idx.Passed == 0) {
		return idx, fmt.Errorf("%d/%d scenarios failed:\n  %s", idx.Failed, idx.Scenarios, strings.Join(failures, "\n  "))
	}
	return idx, nil
}

// runOne executes one scenario, spawning and tearing down its node
// processes when needed.
func runOne(s Scenario, opts Options) *RunRecord {
	rec := &RunRecord{Scenario: s}
	cfg := s.Config
	if cfg.Transport == "net" {
		if opts.Addrs != "" {
			cfg.Addrs = opts.Addrs
		} else {
			ps, err := procctl.Spawn(cfg.Nodes, cmp.Or(s.Procs, opts.Procs, 3))
			if err != nil {
				rec.Err = fmt.Sprintf("spawn cluster: %v", err)
				return rec
			}
			defer procctl.Teardown(ps, 10*time.Second)
			cfg.Addrs = strings.Join(procctl.Addrs(ps), ",")
		}
	}
	res, err := loadrun.Run(cfg, io.Discard)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Result = res
	rec.Gate = Gates(s, res)
	return rec
}

// summarize renders one progress line for a finished run.
func summarize(rec *RunRecord) string {
	if rec.Err != "" {
		return "ERROR " + rec.Err
	}
	m := rec.Result.Metrics
	s := fmt.Sprintf("%d locates, %.0f/sec, %.2f passes/locate, availability=%.4f",
		m.Locates, m.QPS, m.PassesPerLocate, m.Availability)
	if rec.Scenario.ByzRate > 0 || rec.Scenario.VoteQuorum > 0 {
		s += fmt.Sprintf(", forged=%d", rec.Result.Forged)
	}
	if rec.Gate != nil {
		if rec.Gate.Pass {
			s += ", gates ok"
		} else {
			for _, c := range rec.Gate.Checks {
				if !c.Pass {
					s += fmt.Sprintf(", GATE FAIL %s (%s)", c.Name, c.Detail)
				}
			}
		}
	}
	return s
}

// failureDetail condenses why a run counts as failed.
func failureDetail(rec *RunRecord) string {
	if rec.Err != "" {
		return rec.Err
	}
	var bad []string
	for _, c := range rec.Gate.Checks {
		if !c.Pass {
			bad = append(bad, c.Name+" ("+c.Detail+")")
		}
	}
	return "gate: " + strings.Join(bad, ", ")
}

// ReadRecords loads every per-run record in a results directory, in
// index order when index.json is present (lexical otherwise).
func ReadRecords(dir string) ([]*RunRecord, error) {
	var files []string
	if idx, err := ReadIndex(dir); err == nil {
		for _, e := range idx.Runs {
			files = append(files, e.File)
		}
	} else {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".json") && e.Name() != "index.json" {
				files = append(files, e.Name())
			}
		}
	}
	recs := make([]*RunRecord, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		var rec RunRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, &rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	return recs, nil
}

// ReadIndex loads a sweep's results index.
func ReadIndex(dir string) (*Index, error) {
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, err
	}
	var idx Index
	if err := json.Unmarshal(b, &idx); err != nil {
		return nil, fmt.Errorf("index.json: %w", err)
	}
	return &idx, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
