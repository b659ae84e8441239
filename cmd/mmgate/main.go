// Command mmgate runs the multi-tenant service edge over a
// match-making cluster: one process that owns a cluster.Cluster (mem
// fast path, or net against a live mmnode cluster) and serves
// Register / Deregister / Locate / LocateBatch / Watch to arbitrary
// client processes on two listeners — an HTTP/JSON API and the gate
// binary protocol (internal/netwire framing; `mmload -transport gate`
// speaks it).
//
// Tenants come from a JSON table (-tenants, see docs/OPERATIONS.md) or
// a single implicit "dev" tenant authenticated by -dev-token. Each
// tenant is a disjoint port namespace with bearer-token auth and
// per-tenant rate/in-flight quotas; /metrics serves the cluster's
// counters plus per-tenant rollups in Prometheus text form.
//
// On startup the process prints machine-readable lines
//
//	HTTP host:port
//	WIRE host:port
//
// so orchestrators and scripts can collect the ephemeral addresses.
// SIGTERM (and SIGINT) drain gracefully.
//
// Usage:
//
//	mmgate                                        # 64-node mem cluster, dev tenant
//	mmgate -tenants tenants.json -http :8080      # pinned HTTP port, real tenants
//	mmgate -transport net -addrs a,b,c            # front a live mmnode cluster
//	curl -H "Authorization: Bearer dev" 'http://localhost:8080/v1/locate?port=printer&client=3'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/gate"
	"matchmake/internal/netwire"
	"matchmake/internal/sweep/loadrun"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "mmgate:", err)
		os.Exit(1)
	}
}

// run boots the gateway and blocks until a shutdown signal (or a stop
// signal on the test-injected stop channel).
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("mmgate", flag.ContinueOnError)
	var (
		transportF = fs.String("transport", "mem", "backing transport: mem (in-process) | net (socket cluster; needs -addrs)")
		addrsF     = fs.String("addrs", "", "net transport: comma-separated node-process addresses in partition order")
		netConns   = fs.Int("net-conns", 0, "net transport: connections per node process (0 = default)")
		topoF      = fs.String("topology", "complete", "topology: complete|grid|ring|hypercube")
		nodesF     = fs.Int("nodes", 64, "network size")
		stratF     = fs.String("strategy", "checkerboard", "strategy: checkerboard|random|broadcast|sweep")
		replicasF  = fs.Int("replicas", 1, "replication factor r of the rendezvous strategy (1 = unreplicated)")
		hintsF     = fs.Bool("hints", false, "enable the gateway-side address hint cache")
		seedF      = fs.Int64("seed", 1, "strategy RNG seed")
		tenantsF   = fs.String("tenants", "", "tenant table JSON file (see docs/OPERATIONS.md); empty = single dev tenant")
		devTokenF  = fs.String("dev-token", "dev", "bearer token of the implicit dev tenant when -tenants is empty")
		httpF      = fs.String("http", "127.0.0.1:0", "HTTP/JSON listen address")
		wireF      = fs.String("wire", "127.0.0.1:0", "binary (gate protocol) listen address; empty = disabled")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tenants := gate.DevTenant(*devTokenF)
	if *tenantsF != "" {
		var err error
		if tenants, err = gate.LoadTenants(*tenantsF); err != nil {
			return err
		}
	}

	// The gateway stands over any graph, strategy and backing transport
	// the load driver understands, built by the same code.
	if *nodesF < 2 {
		return fmt.Errorf("need at least 2 nodes")
	}
	if *replicasF < 1 {
		return fmt.Errorf("-replicas must be ≥ 1, got %d", *replicasF)
	}
	if *transportF != "mem" && *transportF != "net" {
		return fmt.Errorf("unknown transport %q (mmgate fronts mem or net)", *transportF)
	}
	g, err := loadrun.BuildTopology(*topoF, *nodesF)
	if err != nil {
		return err
	}
	strat, err := loadrun.BuildStrategy(*stratF, g.N(), *seedF)
	if err != nil {
		return err
	}
	tr, err := loadrun.BuildTransport(loadrun.Config{
		Transport: *transportF, Addrs: *addrsF, NetConns: *netConns, NetCoalesce: true, Replicas: *replicasF,
	}, g, strat)
	if err != nil {
		return err
	}

	hub := gate.NewHub(0)
	c := cluster.New(tr, cluster.Options{Hints: *hintsF, OnEvent: hub.Publish})
	defer c.Close()
	gw, err := gate.New(c, hub, tenants)
	if err != nil {
		return err
	}
	defer gw.Close()

	httpLn, err := net.Listen("tcp", *httpF)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "HTTP %s\n", httpLn.Addr())
	hs := &http.Server{Handler: gw.HTTPHandler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(httpLn) }()

	var ws *netwire.Server
	wireErr := make(chan error, 1)
	if *wireF != "" {
		wireLn, err := net.Listen("tcp", *wireF)
		if err != nil {
			hs.Close()
			return err
		}
		fmt.Fprintf(out, "WIRE %s\n", wireLn.Addr())
		ws = netwire.NewServer(wireLn, gw.WireHandler())
		go func() { wireErr <- ws.Serve() }()
	}
	fmt.Fprintf(out, "mmgate: serving transport=%s nodes=%d strategy=%s tenants=%d\n",
		tr.Name(), g.N(), strat.Name(), len(tenants))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-stop:
	case err := <-httpErr:
		return fmt.Errorf("http server: %w", err)
	case err := <-wireErr:
		return fmt.Errorf("wire server: %w", err)
	}

	if ws != nil {
		ws.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	fmt.Fprintln(out, "mmgate: drained")
	return nil
}
