package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"matchmake/internal/sweep/procctl"
)

// TestMain lets procctl.Spawn re-exec this test binary as a node
// worker, so net scenarios in the runner tests use real processes.
func TestMain(m *testing.M) {
	procctl.MaybeWorker()
	os.Exit(m.Run())
}

// TestRunSweepMem drives a small mem-only matrix end to end and
// checks the results directory contract: one record per run, an
// index, and passing gates.
func TestRunSweepMem(t *testing.T) {
	m := matrixOf(t, `{
		"defaults": {"nodes": 16, "ports": 4, "duration": "100ms", "seed": 7},
		"dims": {"transport": ["mem"], "replicas": [1, 2], "kill_rate": [0, 20]}
	}`)
	dir := t.TempDir()
	var out bytes.Buffer
	idx, err := Run(m, Options{ResultsDir: dir, Gate: true, Out: &out})
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	if idx.Scenarios != 4 || idx.Passed != 4 || idx.Failed != 0 {
		t.Fatalf("index = %+v", idx)
	}
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, rec := range recs {
		if rec.Result == nil || rec.Result.Metrics.Locates == 0 {
			t.Fatalf("empty result for %s", rec.Scenario.Name)
		}
		if rec.Gate == nil || !rec.Gate.Pass {
			t.Fatalf("gates for %s: %+v", rec.Scenario.Name, rec.Gate)
		}
	}
	back, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Passed != 4 || len(back.Runs) != 4 {
		t.Fatalf("index round trip = %+v", back)
	}
	if !strings.Contains(out.String(), "[4/4]") {
		t.Fatalf("progress output missing:\n%s", out.String())
	}
	// The records feed the table generator directly.
	tables := GenerateTables(recs, HostEnv("test"))
	if tables[TableAvailability] == "" || tables[TableThroughput] == "" {
		t.Fatalf("tables = %v", tables)
	}
}

// TestRunSweepNet runs one net scenario over a spawned node-process
// cluster — the sweep's real-cluster path end to end.
func TestRunSweepNet(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	m := matrixOf(t, `{"scenarios": [{"name": "net-smoke", "transport": "net", "nodes": 12, "ports": 4,
		"procs": 3, "replicas": 2, "duration": "300ms", "seed": 7}]}`)
	dir := t.TempDir()
	var out bytes.Buffer
	idx, err := Run(m, Options{ResultsDir: dir, Gate: true, Out: &out})
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	if idx.Passed != 1 {
		t.Fatalf("index = %+v\n%s", idx, out.String())
	}
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := recs[0].Result
	// The transport self-reports its replicated name ("net-r2").
	if res == nil || !strings.HasPrefix(res.Transport, "net") || res.Metrics.Locates == 0 {
		t.Fatalf("net record = %+v", recs[0])
	}
	if res.Wire == nil || res.Wire.FramesPerLocate <= 0 {
		t.Fatalf("net run recorded no wire counters: %+v", res.Wire)
	}
}

// TestRunSweepGateFailure checks a failing gate fails the sweep but
// still writes every record.
func TestRunSweepGateFailure(t *testing.T) {
	// r=2 with no chaos asserts not-found == 0; an impossible
	// quorum cannot be used (skipped), so force a miss instead:
	// more replicas than a 4-node ring can host distinct families
	// still resolves, so use a scenario that genuinely errors — a
	// bogus strategy, which fails the run itself.
	m := matrixOf(t, `{"scenarios": [{"name": "broken", "strategy": "bogus", "duration": "50ms"}]}`)
	dir := t.TempDir()
	idx, err := Run(m, Options{ResultsDir: dir, Gate: true})
	if err == nil {
		t.Fatal("want sweep failure")
	}
	if idx == nil || idx.Failed != 1 {
		t.Fatalf("index = %+v", idx)
	}
	recs, readErr := ReadRecords(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if recs[0].Err == "" {
		t.Fatalf("record error not recorded: %+v", recs[0])
	}
	if _, statErr := os.Stat(filepath.Join(dir, "index.json")); statErr != nil {
		t.Fatalf("index not written on failure: %v", statErr)
	}
}
