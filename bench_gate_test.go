package matchmake

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchBaseline mirrors the document cmd/mmbenchjson emits; only the
// fields the gate compares are decoded.
type benchBaseline struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// benchGateTolerance is the allowed ns/op growth over the committed
// baseline before the gate fails: >30% is a regression per the perf
// contract in BENCH_cluster.json's PR.
const benchGateTolerance = 1.30

var benchProcSuffix = regexp.MustCompile(`-\d+$`)

// TestBenchRegressionGate re-runs the serving-path benchmarks five times
// and fails if any median ns/op regressed more than 30% against the
// committed BENCH_cluster.json baseline; one sample against a flat 30%
// trips on a shared 2-core box about every other run. It is opt-in (set
// MM_BENCH_GATE=1) because benchmark wall-time doesn't belong in every
// `go test ./...`, and because the comparison is only meaningful on
// hardware comparable to the baseline's. Refresh the baseline after
// intentional perf changes with the per-benchmark median line of
//
//	go test -run '^$' -bench Cluster -benchmem -count=5 . | go run ./cmd/mmbenchjson -match Cluster > BENCH_cluster.json
func TestBenchRegressionGate(t *testing.T) {
	if os.Getenv("MM_BENCH_GATE") == "" {
		t.Skip("set MM_BENCH_GATE=1 to run the benchmark regression gate")
	}
	raw, err := os.ReadFile("BENCH_cluster.json")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("baseline has no benchmarks")
	}

	// Re-exec this test binary as a benchmark run so the gate needs no
	// go toolchain at check time.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^$", "-test.bench", "Cluster", "-test.benchtime", "0.5s", "-test.count", "5")
	cmd.Env = append(os.Environ(), "MM_BENCH_GATE=") // don't recurse
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench run: %v\n%s", err, out)
	}
	current := parseBenchNs(t, out)

	for _, b := range base.Benchmarks {
		name := benchProcSuffix.ReplaceAllString(b.Name, "")
		runs := current[name]
		if len(runs) == 0 {
			t.Errorf("%s: in baseline but not produced by the current bench run", name)
			continue
		}
		slices.Sort(runs)
		cur := runs[len(runs)/2]
		ratio := cur / b.NsPerOp
		t.Logf("%-55s %10.1f -> %10.1f ns/op (%.2fx; runs %.1f..%.1f)", name, b.NsPerOp, cur, ratio, runs[0], runs[len(runs)-1])
		if ratio > benchGateTolerance {
			t.Errorf("%s regressed: %.1f -> %.1f ns/op (%.0f%% > %.0f%% budget)",
				name, b.NsPerOp, cur, (ratio-1)*100, (benchGateTolerance-1)*100)
		}
	}
}

// parseBenchNs extracts every run's ns/op per benchmark (proc-count
// suffix stripped) from `go test -bench` text output.
func parseBenchNs(t *testing.T, out []byte) map[string][]float64 {
	t.Helper()
	res := make(map[string][]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				t.Fatalf("bad ns/op in %q: %v", sc.Text(), err)
			}
			name := benchProcSuffix.ReplaceAllString(fields[0], "")
			res[name] = append(res[name], v)
		}
	}
	if len(res) == 0 {
		t.Fatalf("bench run produced no results:\n%s", out)
	}
	return res
}
