// Command mmload drives a synthetic match-making workload against an
// internal/cluster service and reports throughput, latency quantiles
// and the paper's cost measure (message passes per locate).
//
// One server is registered per port, then client goroutines issue
// locates with the chosen port-popularity distribution until the run
// duration expires. The load is closed-loop by default (-concurrency
// workers back to back); -rate switches to an open-loop arrival process
// feeding the cluster's shard worker pools, where overload is shed and
// reported rather than queued without bound.
//
// The engine itself lives in internal/sweep/loadrun — this binary is a
// flag wrapper over loadrun.Run, and cmd/mmsweep drives the same
// engine programmatically across whole scenario matrices.
//
// Usage:
//
//	mmload                                   # 64-node Zipfian fast-path run
//	mmload -transport sim -duration 5s       # same load over the simulator
//	mmload -transport net -addrs a,b,c       # real sockets: a node-process
//	                                         # cluster from `mmctl up` or mmnode
//	mmload -transport gate -gate-addr a:p    # through a running mmgate service
//	                                         # edge (binary gate protocol)
//	mmload -workload uniform -ports 64
//	mmload -workload zipf -zipf-s 1.4        # skew the port popularity
//	mmload -churn 50ms                       # crash/re-register churn
//	mmload -corrupt-rate 50 -replicas 2      # adversarial state corruption vs
//	                                         # the anti-entropy reconciler
//	mmload -rate 200000                      # open-loop at 200k locates/sec
//	mmload -hints                            # probe-validated address hint cache
//	mmload -batch 16                         # batched locates via LocateBatch
//	mmload -weighted -hot 2                  # frequency-weighted hot-port strategy
//
// Every knob — the workload, the chaos loops (-churn, -kill-rate,
// -corrupt-rate, -byzantine-rate, -resize-interval), the net-transport
// membership sources (-addrs, or -state with -watch-state to follow an
// `mmctl scale` live) — is a row of loadrun.Config's field table, which
// is also the sweep scenario grammar: `mmload -h` is the reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"matchmake/internal/sweep/loadrun"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmload:", err)
		os.Exit(1)
	}
}

// run parses the flag set into a loadrun.Config, runs the engine, and
// prints the summary — the whole binary, kept as a function so the
// tests can call it with a captured writer.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmload", flag.ContinueOnError)
	cfg := loadrun.Defaults()
	cfg.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := loadrun.Run(cfg, out)
	if err != nil {
		return err
	}
	res.Report(out)
	return nil
}
