// Command bench is the repo's benchmark: five named workloads over the
// cluster, wire and gate layers, the end-to-end metrics a user of the
// service sees, and a traced run that splits a locate by layer. It only
// calls the layers' public functions; see README.md for the workloads,
// the metrics and how to read the output. BENCHMARK.json at the repo
// root names the same workloads and metrics for later changes to be
// judged against.
//
// Run it as `go run ./bench` (every workload, untraced then traced) or
// as `go run ./bench -workload net_flood -trace 0 -seed 7 -seconds 15`
// (one run, ending in one line of JSON).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"matchmake/internal/sweep/procctl"
)

func main() {
	procctl.MaybeWorker() // a re-exec of this binary is a node shard
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit code. Nothing
// is printed to out unless every answer of every run was right.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name  = fs.String("workload", "", "run one workload by name (default: all five)")
		trace = fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		cfg   = config{probe: 150 * time.Millisecond}
	)
	fs.Int64Var(&cfg.seed, "seed", 1, "seeds every generator; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run, split into 5 segments")
	fs.BoolVar(&cfg.smoke, "smoke", false, "half a second per run; output is not comparable")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < -1 || *trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(errw, "bench: bad arguments; see -h")
		return 2
	}
	if cfg.smoke {
		cfg.seconds = 0.5
		cfg.probe = 20 * time.Millisecond
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(errw, "bench:", err)
			return 2
		}
		todo = []workload{*w}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	var results []*result
	for i := range todo {
		for _, traced := range modes {
			res, err := runWorkload(&todo[i], cfg, traced)
			if err == nil && !res.correct() {
				err = fmt.Errorf("%s", strings.Join(res.problems, "; "))
			}
			if err != nil {
				fmt.Fprintf(errw, "bench: %s: %v\n", todo[i].name, err)
				return 1
			}
			results = append(results, res)
		}
	}

	fmt.Fprintf(out, "bench: %s, GOMAXPROCS %d, seed %d, %d segments of %.2f s after a warm-up; net and gate workloads talk to %d shard processes over loopback TCP, not a link\n",
		runtime.Version(), runtime.GOMAXPROCS(0), cfg.seed, segments, cfg.seconds/segments, shardProcs)
	if cfg.smoke {
		fmt.Fprintln(out, "bench: SMOKE RUN — numbers are not comparable with any other run")
	}
	for _, res := range results {
		res.print(out)
	}
	if len(results) == 1 {
		fmt.Fprintln(out, results[0].jsonLine())
	}
	return 0
}

// print writes one run's metrics, one per line: name, unit, median over
// the segments, min, max, segment count, timings behind it.
func (r *result) print(out io.Writer) {
	kind := "untraced: end-to-end metrics"
	if r.traced {
		kind = "traced: per-layer metrics"
	}
	fmt.Fprintf(out, "\n== %s (%s) — %s; %d operations attempted, %d failed\n", r.w.name, kind, r.w.loop, r.attempted, r.failed)
	for _, m := range r.metrics {
		if m.n == 0 {
			fmt.Fprintf(out, "%-42s %-7s not exercised by this workload\n", m.name, m.unit)
			continue
		}
		line := fmt.Sprintf("%-42s %-7s median %-12.6g min %-12.6g max %-12.6g n=%d", m.name, m.unit, m.median, m.min, m.max, m.n)
		if m.samples > 0 {
			line += fmt.Sprintf(" samples=%d", m.samples)
		}
		if m.unresolved {
			line += fmt.Sprintf(" UNRESOLVED: segments spread %.1f%% > bound %.1f%%", m.spread()*100, m.bound*100)
		}
		fmt.Fprintln(out, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "  "+n)
	}
}

// jsonLine is the one-line result the benchmark contract asks for.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		doc.Metrics[m.name] = value{m.median, m.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // no metric may be NaN or infinite; a bug if one is
	}
	return string(b)
}
