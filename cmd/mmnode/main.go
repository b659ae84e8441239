// Command mmnode serves one node-shard of a NetTransport cluster: the
// rendezvous caches and live-server table for a contiguous range of
// wire slots (graph nodes in the transport's placement), spoken over
// the internal/netwire TCP protocol. Start one mmnode per process (or
// machine), hand the address list to cluster.NewNetTransport (or
// `mmload -transport net -addrs ...`), and the socket backend gives the
// same answers and the same message-pass accounting as the in-process
// transports.
//
// The wire slot range is given either explicitly (-lo/-hi) or as a
// slot in the standard partition (-procs/-index, the layout cmd/mmctl
// spawns and cluster.PartitionRange defines). On startup the process
// prints one machine-readable line, "ADDR host:port", so orchestrators
// can collect addresses from ephemeral ports. SIGTERM (and SIGINT)
// drain gracefully: stop accepting, finish in-flight requests, exit 0.
//
// Usage:
//
//	mmnode -nodes 36 -procs 3 -index 1            # serve wire slots [12,24)
//	mmnode -nodes 36 -lo 12 -hi 24 -listen :7701  # the same, pinned port
//	mmnode -nodes 36 -procs 3 -index 1 -metrics 127.0.0.1:0
//	                                              # + Prometheus /metrics
//	                                              # (prints "METRICS host:port")
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"matchmake/internal/cluster"
	"matchmake/internal/gate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmnode:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmnode", flag.ContinueOnError)
	var (
		nodes   = fs.Int("nodes", 0, "cluster size n (required)")
		procs   = fs.Int("procs", 0, "total processes in the standard partition")
		index   = fs.Int("index", -1, "this process's slot in the standard partition")
		lo      = fs.Int("lo", -1, "first owned node (alternative to -procs/-index)")
		hi      = fs.Int("hi", -1, "one past the last owned node")
		listen  = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		metrics = fs.String("metrics", "", "serve Prometheus /metrics for this node shard on this HTTP address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, h, err := nodeRange(*nodes, *procs, *index, *lo, *hi)
	if err != nil {
		return err
	}
	// The metrics endpoint mounts once the worker's listener is bound:
	// the ready hook hands over the live NodeServer, and a second line,
	// "METRICS host:port", follows the worker's "ADDR" line so scrapers
	// can be pointed at ephemeral ports too.
	var ms *http.Server
	ready := func(srv *cluster.NodeServer) {
		if *metrics == "" {
			return
		}
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(out, "mmnode: metrics listener: %v\n", err)
			return
		}
		fmt.Fprintf(out, "METRICS %s\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", gate.NodeMetricsHandler(srv))
		ms = &http.Server{Handler: mux}
		go func() { _ = ms.Serve(ln) }()
	}
	if err := cluster.RunNodeWorkerWithReady(*nodes, l, h, *listen, out, ready); err != nil {
		return err
	}
	if ms != nil {
		_ = ms.Close()
	}
	fmt.Fprintln(out, "mmnode: drained")
	return nil
}

// nodeRange resolves the owned range from either -lo/-hi or the
// standard -procs/-index partition.
func nodeRange(nodes, procs, index, lo, hi int) (int, int, error) {
	if nodes <= 0 {
		return 0, 0, fmt.Errorf("-nodes is required and must be positive")
	}
	explicit := lo >= 0 || hi >= 0
	slotted := procs > 0 || index >= 0
	switch {
	case explicit && slotted:
		return 0, 0, fmt.Errorf("use either -lo/-hi or -procs/-index, not both")
	case explicit:
		if lo < 0 || hi <= lo || hi > nodes {
			return 0, 0, fmt.Errorf("range [%d,%d) invalid for n=%d", lo, hi, nodes)
		}
		return lo, hi, nil
	case slotted:
		if procs <= 0 || index < 0 || index >= procs {
			return 0, 0, fmt.Errorf("need 0 <= -index (%d) < -procs (%d)", index, procs)
		}
		l, h := cluster.PartitionRange(nodes, procs, index)
		if h <= l {
			return 0, 0, fmt.Errorf("partition slot %d of %d over %d nodes is empty", index, procs, nodes)
		}
		return l, h, nil
	default:
		return 0, 0, fmt.Errorf("give a wire slot range: -procs/-index or -lo/-hi")
	}
}
