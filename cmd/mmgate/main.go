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
	// The cluster behind the edge is described by the load engine's own
	// table, so the flags, their defaults and their checks are mmload's.
	cfg := loadrun.Defaults()
	cfg.Flags(fs, "transport", "addrs", "net-conns", "topology", "nodes", "strategy", "replicas", "hints", "seed")
	var (
		tenantsF  = fs.String("tenants", "", "tenant table JSON file (see docs/OPERATIONS.md); empty = single dev tenant")
		devTokenF = fs.String("dev-token", "dev", "bearer token of the implicit dev tenant when -tenants is empty")
		httpF     = fs.String("http", "127.0.0.1:0", "HTTP/JSON listen address")
		wireF     = fs.String("wire", "127.0.0.1:0", "binary (gate protocol) listen address; empty = disabled")
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
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Transport != "mem" && cfg.Transport != "net" {
		return fmt.Errorf("unknown transport %q (mmgate fronts mem or net)", cfg.Transport)
	}
	g, err := loadrun.BuildTopology(cfg.Topo, cfg.Nodes)
	if err != nil {
		return err
	}
	strat, err := loadrun.BuildStrategy(cfg.Strategy, g.N(), cfg.Seed)
	if err != nil {
		return err
	}
	tr, err := loadrun.BuildTransport(cfg, g, strat)
	if err != nil {
		return err
	}

	hub := gate.NewHub(0)
	c := cluster.New(tr, cluster.Options{Hints: cfg.Hints, OnEvent: hub.Publish})
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
