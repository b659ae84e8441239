// Hierarchy: the Amoeba-style service model (§1.3 and §3.5) on a
// three-level gateway network. A command interpreter (the client) calls a
// query service, which itself calls a database service — "a dynamic
// network of servers executing each other's requests" — and the system
// recovers from a database crash by failing over to a standby replica,
// so the human client never sees the fault.
package main

import (
	"fmt"
	"log"

	"matchmake/internal/graph"
	"matchmake/internal/service"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 4×4×4 hierarchy: 64 hosts in 16 local clusters, 4 campuses.
	h, err := topology.NewHierarchy(4, 4, 4)
	if err != nil {
		return err
	}
	reg, err := service.NewRegistry(h.G, strategy.HierarchyGateways(h))
	if err != nil {
		return err
	}
	defer reg.Close()
	reg.InvokeRetries = 3

	// Database service: a primary and a standby on different campuses.
	primary, err := reg.Serve("database", 40, func(method string, body any) (any, error) {
		return fmt.Sprintf("primary:%v", body), nil
	})
	if err != nil {
		return err
	}
	if _, err := reg.Serve("database", 57, func(method string, body any) (any, error) {
		return fmt.Sprintf("standby:%v", body), nil
	}); err != nil {
		return err
	}

	// Query service: a client of the database service.
	queryHost := graph.NodeID(10)
	if _, err := reg.Serve("query", queryHost, func(method string, body any) (any, error) {
		row, err := reg.Invoke(queryHost, "database", "get", body)
		if err != nil {
			return nil, fmt.Errorf("database unavailable: %w", err)
		}
		return fmt.Sprintf("rows[%v]", row), nil
	}); err != nil {
		return err
	}

	// The command interpreter at host 2 issues a query.
	out, err := reg.Invoke(2, "query", "select", "users")
	if err != nil {
		return err
	}
	fmt.Printf("query result: %v\n", out)

	// The primary database host crashes. The query server detects the
	// failure, re-locates the service and reaches the standby: the error
	// never reaches the human client.
	if err := reg.Crash(primary.Node()); err != nil {
		return err
	}
	fmt.Printf("crashed database primary at node %d\n", primary.Node())
	out, err = reg.Invoke(2, "query", "select", "users")
	if err != nil {
		return err
	}
	fmt.Printf("query result after crash: %v\n", out)

	// Locality: pairs inside one cluster resolve at level 1; cross-campus
	// pairs climb to level 3 (§3.5's traffic statistics).
	for _, pair := range [][2]graph.NodeID{{0, 1}, {0, 5}, {0, 63}} {
		fmt.Printf("nodes %2d and %2d share their level-%d cluster\n",
			pair[0], pair[1], h.LCALevel(pair[0], pair[1]))
	}
	return nil
}
