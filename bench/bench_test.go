package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"matchmake/internal/sweep/procctl"
)

// TestMain lets the test binary re-exec itself as the node shards, the
// way the bench binary does.
func TestMain(m *testing.M) {
	procctl.MaybeWorker()
	os.Exit(m.Run())
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the
// program reports from, so neither drifts.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q (or their why differs)", i, bj.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (benchMetric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke runs the whole command on short segments and checks what a
// reader of its output relies on: every workload and metric is there
// with a finite value, nothing failed, the paper's measure is where it
// should be, spans nest, and no process is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node-shard processes")
	}
	outDir := t.TempDir()
	var out, errw bytes.Buffer
	if code := run([]string{"-smoke", "-out", outDir}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "SMOKE RUN") {
		t.Error("smoke output is not marked as not comparable")
	}

	// "== name (untraced: …" opens a run; "metric unit median v …" follows.
	values := map[string]map[string]float64{}
	var cur map[string]float64
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "==":
			if cur = values[f[1]]; cur == nil {
				cur = map[string]float64{}
				values[f[1]] = cur
			}
		case len(f) > 3 && f[2] == "median":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Errorf("%q: %v", line, err)
			}
			cur[f[0]] = v
		case len(f) > 3 && f[2] == "not": // not exercised by this workload
			cur[f[0]] = 0
		}
	}
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		got := values[w.Name]
		if got == nil {
			t.Errorf("workload %s missing from the output", w.Name)
			continue
		}
		for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
			v, ok := got[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s missing or not finite (%v)", w.Name, m.Name, v)
			}
		}
		if got["driver.fail_ratio"] != 0 || got["driver.failed"] != 0 || got["driver.wrong"] != 0 {
			t.Errorf("%s: failures reported: %v", w.Name, got)
		}
		passes := got["passes_per_locate"]
		if strings.Contains(w.Name, "hint") {
			if passes <= 0 || passes >= 3 {
				t.Errorf("%s: passes_per_locate %v, want under 3 on a hinted workload", w.Name, passes)
			}
		} else if math.Abs(passes-8.86) > 0.02*8.86 {
			t.Errorf("%s: passes_per_locate %v, want 8.86 ± 2%%", w.Name, passes)
		}

		// The trace file: every child inside its parent, same request.
		raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var doc struct{ Spans []spanJSON }
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s trace: %v", w.Name, err)
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s: no spans written", w.Name)
		}
		children := 0
		for _, s := range doc.Spans {
			if s.Parent == 0 || int(s.Parent) > len(doc.Spans) {
				continue
			}
			children++
			if p := doc.Spans[s.Parent-1]; s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Req != p.Req {
				t.Errorf("%s: span %+v outside its parent %+v", w.Name, s, p)
				break
			}
		}
		if children == 0 {
			t.Errorf("%s: no span has a parent: the seam was not traced", w.Name)
		}
	}

	// No shard outlives the run: nothing in /proc is our child.
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited meanwhile
		}
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			t.Errorf("child process left behind: %s", b)
		}
	}
}
