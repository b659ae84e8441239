// Command mmsweep expands a declarative scenario matrix into concrete
// load runs over real clusters and records machine-readable results.
//
//	mmsweep run -matrix sweeps/smoke.json -results results/ [-gate] [-addrs host:p1,host:p2] [-procs 3]
//	mmsweep tables -results results/ -doc EXPERIMENTS.md
//
// run expands the matrix (the cartesian product of its dimension
// lists plus any explicit scenarios), drives every scenario through
// the internal/sweep/loadrun engine — spawning a real node-process
// cluster per net scenario, or targeting an external cluster (compose,
// remote hosts) via -addrs — and writes one JSON record per run plus
// an index to -results. With -gate the per-scenario invariants
// (availability bounds, zero hard errors, zero forged answers at
// 2f+1, quiescence budget) are asserted and a failing run fails the
// command after the whole sweep has run.
//
// tables regenerates the measured tables in a document from a results
// directory: every block between <!-- mmsweep:begin NAME --> and
// <!-- mmsweep:end NAME --> markers is replaced with the table
// generated from the recorded runs, stamped with the recording
// toolchain.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"matchmake/internal/sweep"
	"matchmake/internal/sweep/procctl"
)

func main() {
	// Spawned node workers re-exec this binary; the env tells us apart.
	procctl.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mmsweep <run|tables> [flags]")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], out)
	case "tables":
		return cmdTables(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run or tables)", args[0])
	}
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmsweep run", flag.ContinueOnError)
	matrix := fs.String("matrix", "", "scenario matrix file (JSON)")
	results := fs.String("results", "", "directory for per-run JSON records and index.json")
	gate := fs.Bool("gate", false, "assert per-scenario invariants; fail if any run breaks one")
	addrs := fs.String("addrs", "", "comma-separated node addresses of an external cluster (skip spawning)")
	procs := fs.Int("procs", 3, "node-process count for spawned net clusters")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *matrix == "" {
		return fmt.Errorf("run: -matrix is required")
	}
	m, err := sweep.ReadMatrix(*matrix)
	if err != nil {
		return err
	}
	opts := sweep.Options{
		ResultsDir: *results,
		Gate:       *gate,
		Procs:      *procs,
		Addrs:      *addrs,
		Env:        sweep.HostEnv("mmsweep run -matrix " + *matrix),
		Out:        out,
	}
	idx, err := sweep.Run(m, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mmsweep: %d/%d scenarios passed", idx.Passed, idx.Scenarios)
	if len(idx.Skipped) > 0 {
		fmt.Fprintf(out, " (%d combinations skipped)", len(idx.Skipped))
	}
	fmt.Fprintln(out)
	return nil
}

func cmdTables(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmsweep tables", flag.ContinueOnError)
	results := fs.String("results", "", "results directory from a prior mmsweep run")
	doc := fs.String("doc", "EXPERIMENTS.md", "document whose mmsweep marker blocks to regenerate")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *results == "" {
		return fmt.Errorf("tables: -results is required")
	}
	recs, err := sweep.ReadRecords(*results)
	if err != nil {
		return err
	}
	env := sweep.HostEnv("")
	if idx, ierr := sweep.ReadIndex(*results); ierr == nil {
		env = idx.Env
	}
	tables := sweep.GenerateTables(recs, env)
	before, err := os.ReadFile(*doc)
	if err != nil {
		return err
	}
	after, err := sweep.UpdateDoc(before, tables)
	if err != nil {
		return err
	}
	if string(after) == string(before) {
		fmt.Fprintf(out, "mmsweep: %s already up to date\n", *doc)
		return nil
	}
	if err := os.WriteFile(*doc, after, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "mmsweep: regenerated %d table(s) in %s from %d runs\n", len(tables), *doc, len(recs))
	return nil
}
