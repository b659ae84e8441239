// Package core is the vocabulary of Shotgun Locate, the paper's primary
// contribution: a server process with port π at address A posts (π, A)
// at the nodes P(A), a client at address B queries the nodes Q(B), and
// the nodes in P(A) ∩ Q(B) — the rendezvous nodes — answer with the
// server's address. The engine that does it is the serving coordinator
// in internal/cluster, over the simulator, in process or over sockets;
// this package holds only the names every layer shares.
package core

import (
	"errors"

	"matchmake/internal/graph"
)

// Port uniquely names a service (§1.3: "a port uniquely names a service";
// it gives no clue about the physical location of a server process).
type Port string

// Entry is a cached (port, address) posting.
type Entry struct {
	Port Port
	// Addr is the node address the server receives requests at.
	Addr graph.NodeID
	// ServerID distinguishes server instances on the same port.
	ServerID uint64
	// Time is the logical timestamp of the posting; fresher postings
	// supersede staler ones ("we can timestamp the messages to determine
	// which addresses are out of date in case of a conflict").
	Time uint64
	// Active is false for tombstones left by deregistration.
	Active bool
}

// Errors shared by every layer.
var (
	// ErrNotFound reports a locate whose flood ended with no rendezvous
	// node answering with a live entry, or a probe answered negatively.
	ErrNotFound = errors.New("core: service not found")
	// ErrServerGone reports an operation on a deregistered server.
	ErrServerGone = errors.New("core: server deregistered")
)
