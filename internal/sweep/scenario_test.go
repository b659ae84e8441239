package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"matchmake/internal/sweep/loadrun"
)

// matrixOf decodes a matrix document the way ReadMatrix does.
func matrixOf(t *testing.T, doc string) *Matrix {
	t.Helper()
	var m Matrix
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// TestDurationJSON checks a scenario's durations read from "250ms"
// strings or raw nanoseconds, and are written back as strings.
func TestDurationJSON(t *testing.T) {
	var s Scenario
	if err := json.Unmarshal([]byte(`{"duration": "1.5s", "churn": 250000000}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Duration != 1500*time.Millisecond {
		t.Fatalf("string form = %v", s.Duration)
	}
	if s.Churn != 250*time.Millisecond {
		t.Fatalf("ns form = %v", s.Churn)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"churn":"250ms","duration":"1.5s"}` {
		t.Fatalf("marshal = %s", b)
	}
	if err := json.Unmarshal([]byte(`{"duration": "bogus"}`), &s); err == nil {
		t.Fatal("want error for bad duration")
	}
}

// TestExpandCartesian checks the product cardinality, the derived
// names, and that defaults flow into every run.
func TestExpandCartesian(t *testing.T) {
	m := matrixOf(t, `{
		"defaults": {"nodes": 32, "ports": 8, "duration": "1s", "seed": 7},
		"dims": {"transport": ["mem", "net"], "replicas": [1, 2], "kill_rate": [0, 8]}
	}`)
	runs, notes, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 0 {
		t.Fatalf("unexpected skips: %v", notes)
	}
	if len(runs) != 8 {
		t.Fatalf("expanded %d runs, want 8", len(runs))
	}
	names := make(map[string]Scenario, len(runs))
	for _, s := range runs {
		names[s.Name] = s
		if s.Nodes != 32 || s.Ports != 8 || s.Seed != 7 {
			t.Fatalf("defaults did not flow into %q: %+v", s.Name, s)
		}
	}
	want := names["net-r2-kill8"]
	if want.Transport != "net" || want.Replicas != 2 || want.KillRate != 8 {
		t.Fatalf("net-r2-kill8 = %+v (names: %v)", want, names)
	}
	if s, ok := names["mem-r1-nokill"]; !ok || s.KillRate != 0 {
		t.Fatalf("missing mem-r1-nokill run: %v", names)
	}
}

// TestExpandSkips checks inconsistent combinations are reported, not
// silently dropped and not run.
func TestExpandSkips(t *testing.T) {
	m := matrixOf(t, `{"dims": {"replicas": [1, 3], "vote_quorum": [0, 3]}}`)
	runs, notes, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// r1-q0, r3-q0, r3-q3 run; r1-q3 is inconsistent.
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3: %+v", len(runs), runs)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "skip r1-q3") {
		t.Fatalf("notes = %v", notes)
	}
	// Byzantine × resize is excluded too.
	m = matrixOf(t, `{"dims": {"byzantine_rate": [2], "resize_interval": ["100ms"]}}`)
	_, notes, err = m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "mutually exclusive") {
		t.Fatalf("notes = %v", notes)
	}
	// The two rules only a sweep can break stay local.
	m = matrixOf(t, `{"scenarios": [
		{"name": "wide", "replicas": 2, "vote_quorum": 3},
		{"name": "thin", "transport": "net", "nodes": 4, "procs": 5}
	]}`)
	_, notes, err = m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 2 || !strings.Contains(notes[0], "wider than replicas") || !strings.Contains(notes[1], "procs 5 > nodes 4") {
		t.Fatalf("notes = %v", notes)
	}
}

// TestExpandExplicitScenarios checks the explicit list merges over
// defaults by presence — an explicit zero overrides a matrix default,
// an absent key inherits it — and duplicate names are rejected.
func TestExpandExplicitScenarios(t *testing.T) {
	m := matrixOf(t, `{
		"defaults": {"nodes": 16, "duration": "1s", "hints": true, "kill_rate": 10},
		"scenarios": [
			{"name": "hinted"},
			{"replicas": 2},
			{"name": "plain", "hints": false, "kill_rate": 0}
		]
	}`)
	runs, _, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Name != "hinted" || !runs[0].Hints || runs[0].KillRate != 10 || runs[0].Nodes != 16 {
		t.Fatalf("explicit merge: %+v", runs[0])
	}
	if runs[1].Name != "scenario-01" || runs[1].Replicas != 2 {
		t.Fatalf("derived name = %q", runs[1].Name)
	}
	if runs[2].Hints || runs[2].KillRate != 0 || runs[2].Nodes != 16 {
		t.Fatalf("explicit zeros did not override the matrix defaults: %+v", runs[2])
	}
	m.Scenarios = append(m.Scenarios, overlay{"name": json.RawMessage(`"hinted"`)})
	if _, _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name err = %v", err)
	}
}

// TestReadMatrix checks the file loader, including unknown-field
// rejection (typos in a matrix must not silently become defaults).
func TestReadMatrix(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "m.json")
	if err := os.WriteFile(good, []byte(`{
		"defaults": {"nodes": 16, "duration": "500ms"},
		"dims": {"transport": ["mem"], "replicas": [1, 2]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMatrix(good)
	if err != nil {
		t.Fatal(err)
	}
	runs, _, err := m.Expand()
	if err != nil || len(runs) != 2 {
		t.Fatalf("runs = %v err = %v", runs, err)
	}
	if runs[0].Nodes != 16 || runs[0].Duration != 500*time.Millisecond {
		t.Fatalf("defaults = %+v", runs[0])
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"defaults": {"nodez": 16}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMatrix(bad); err == nil {
		t.Fatal("want unknown-field error")
	}
}

// TestScenarioConfig checks a scenario document decodes onto the
// engine's defaults: set keys overlay, unset keys keep loadrun's values,
// and the written record reads back to the same scenario.
func TestScenarioConfig(t *testing.T) {
	var s Scenario
	doc := `{"name": "x", "procs": 4, "transport": "net", "nodes": 36, "replicas": 2, "vote_quorum": 2,
		"kill_rate": 4, "duration": "750ms", "hints": true, "net_coalesce": false}`
	if err := json.Unmarshal([]byte(doc), &s); err != nil {
		t.Fatal(err)
	}
	cfg := s.Config
	if cfg.Transport != "net" || cfg.Nodes != 36 || cfg.Replicas != 2 ||
		cfg.VoteQuorum != 2 || cfg.KillRate != 4 || !cfg.Hints || cfg.NetCoalesce {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Duration != 750*time.Millisecond {
		t.Fatalf("duration = %v", cfg.Duration)
	}
	// Unset fields keep the engine defaults.
	if cfg.Ports != 16 || cfg.Topo != "complete" || cfg.Strategy != "checkerboard" {
		t.Fatalf("defaults lost: %+v", cfg)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil || back != s {
		t.Fatalf("round trip through %s = %+v (err %v), want %+v", b, back, err, s)
	}
	// An empty document is the engine's defaults, not a zero Config.
	if err := json.Unmarshal([]byte(`{}`), &s); err != nil || s.Config != loadrun.Defaults() {
		t.Fatalf("empty scenario = %+v (err %v)", s, err)
	}
}
