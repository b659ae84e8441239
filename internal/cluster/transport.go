// Package cluster is the concurrent match-making service layer: it
// fronts the paper's rendezvous machinery (post at P(A), query at Q(B),
// meet in the middle) behind a Transport interface and adds what a
// serving system needs on top of a correct engine — sharded request
// dispatch with per-shard worker pools, coalescing of concurrent locates
// for the same (client, port) whose flood leaves the process (an
// in-process locate is charged its own flood, so its price depends on
// the calls alone), a read-mostly concurrent rendezvous cache, and live
// metrics (throughput, latency quantiles, message passes per locate).
//
// Three transports are provided, from one implementation of the model:
// MemTransport, NetTransport and SimTransport are one coordinator
// (coordinator.go) over three row substrates (substrate.go). The
// coordinator owns everything the paper defines — set selection, the
// message-pass cost computed from the routing tables (multicast-tree
// edges for floods, hop distance for replies), registrations,
// fallthrough, migration, repair — and the substrate only holds rows: in
// a sharded in-memory store; in OS processes (NodeServer, usually
// cmd/mmnode) speaking a compact length-prefixed binary protocol over TCP
// (internal/netwire) — kill -9 a process and the nodes it hosts fail
// silently, like crashed nodes in the paper's model; or behind the
// internal/sim store-and-forward network, where every posting, read and
// probe is a message routed hop by hop and the network's own hop count
// checks the coordinator's charge.
//
// What a transport serves is one geometry value, a Layout: an epoch
// (strategy.Epoch — strategy, replication factor, membership), an
// optional weighted split, and whether the membership is fixed or
// elastic. New{Mem,Net,Sim}Transport take a bare strategy — the seq-1
// epoch at full membership with r = 1 — and NewLayout{Mem,Net,Sim}Transport
// take any layout; the coordinator reads every mode from the same set
// table (setcosts.go). Replicated r-fold, servers post to every replica
// family and a locate falls through the families when rendezvous nodes
// are dead, so one crashed node — or one killed node process — costs an
// extra flood instead of an outage. Elastic (ElasticTransport), the
// active node set and its strategy can change at runtime through a
// dual-epoch migration — minimal-movement delta re-posts, locates
// falling through to the retiring epoch until it drains, local expiry
// of the orphaned postings afterwards — with the socket backend
// additionally re-partitioning the node space across a different
// process set live (NetTransport.Rescale). All transports agree on both results and
// costs on a healthy network, on the crash fallthrough path and across
// epoch transitions: one history runner (history_test.go) drives them
// side by side against a map-based reference model (model_test.go), on
// the suites of equivalence_test.go and on seeded generated histories;
// see docs/PAPER_MAP.md for the paper-to-code concordance.
package cluster

import (
	"errors"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Errors returned by the cluster layer.
var (
	// ErrOverload reports an async submission rejected because the
	// owning shard's queue was full (the request was shed).
	ErrOverload = errors.New("cluster: shard queue full")
	// ErrClosed reports use of a closed cluster.
	ErrClosed = errors.New("cluster: closed")
)

// Transport executes match-making operations against some substrate. It
// is the seam between the service layer (sharding, coalescing, worker
// pools, metrics) and the machinery that actually moves postings and
// queries: the in-process fast path, real sockets to a multi-process
// cluster, or the hop-by-hop simulator. Whatever the substrate, an
// implementation must charge the paper's message passes for every
// operation — the accounting is the contract, the substrate is the
// vehicle.
//
// Implementations must be safe for concurrent use; the cluster layer
// issues operations from many goroutines at once.
type Transport interface {
	// Name identifies the transport in reports.
	Name() string
	// N returns the number of nodes served.
	N() int
	// Register announces a server process for port at node and returns
	// a handle for its lifecycle (repost, migrate, deregister).
	Register(port core.Port, node graph.NodeID) (ServerRef, error)
	// Locate resolves port from client node, returning the freshest
	// live posting visible at the client's query set. It fails with an
	// error wrapping core.ErrNotFound when no rendezvous node answers.
	Locate(client graph.NodeID, port core.Port) (core.Entry, error)
	// LocateBatch resolves reqs[i] into res[i], one full locate per
	// request with the same answers and the same total pass charge as
	// the equivalent sequence of Locate calls. Implementations may
	// resolve each request's port once for all its rows and account
	// passes in bulk; res must have the same length as reqs.
	LocateBatch(reqs []LocateReq, res []LocateRes)
	// Probe validates a previously located entry with one direct
	// request/reply to its cached address, charged 2×Dist(client,
	// e.Addr) passes — the hint-validation message of the address
	// cache. A live node that no longer hosts the instance answers
	// negatively (an error wrapping core.ErrNotFound); a crashed
	// address fails without an answer.
	Probe(client graph.NodeID, e core.Entry) (core.Entry, error)
	// Gen returns the current invalidation generation of port's shard
	// in the transport's generation index. Registrations, reposts,
	// migrations and deregistrations bump the port's shard; a crash bumps
	// every shard. A cached hint is only worth probing while its recorded
	// generation still matches.
	Gen(port core.Port) uint64
	// LocateAll returns every live server instance for port visible
	// from client.
	LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error)
	// PostBatch registers several servers in one transport operation,
	// with the same effects and total pass charge as the equivalent
	// sequence of Register calls. Inputs are validated up front; on a
	// validation error no server is registered.
	PostBatch(regs []Registration) ([]ServerRef, error)
	// Crash marks a node failed (it drops postings, queries and
	// replies); Restore brings it back with its volatile cache lost.
	Crash(node graph.NodeID) error
	Restore(node graph.NodeID) error
	// Passes returns the total message passes charged so far — the
	// paper's cost measure, one unit per edge traversed.
	Passes() int64
	// ResetPasses zeroes the pass counter.
	ResetPasses()
	// Close releases transport resources.
	Close() error
}

// LocateReq is one locate in a batched transport operation.
type LocateReq struct {
	Client graph.NodeID
	Port   core.Port
}

// LocateRes is the result slot LocateBatch fills for one request.
type LocateRes struct {
	Entry core.Entry
	Err   error
}

// Registration is one server announcement in a PostBatch.
type Registration struct {
	Port core.Port
	Node graph.NodeID
}

// ReplicatedTransport is implemented by transports running an r-fold
// replicated strategy (strategy.Replicated): servers post to the union
// of every replica family's posting sets, and a locate floods replica
// 0's query set first, falling through to replica 1, 2, … only when no
// rendezvous node of the previous family answered. Each attempt is
// charged its own flood — the paper-honest price of redundancy — so a
// healthy network pays exactly the base strategy's locate cost while a
// crashed rendezvous node (or a killed node-shard process) costs one
// extra flood instead of an outage.
type ReplicatedTransport interface {
	// Replicas returns the replication factor r; 1 means unreplicated.
	Replicas() int
	// LocateReplica floods only replica k's query set, charging that
	// replica's multicast cost plus each rendezvous hit's reply
	// distance — one fallthrough attempt of a crash-tolerant locate. It
	// fails with an error wrapping core.ErrNotFound when no rendezvous
	// node of that family answers.
	LocateReplica(client graph.NodeID, port core.Port, replica int) (core.Entry, error)
}

// locateFallthrough is the deterministic replica-fallthrough loop shared
// by every replicated transport's Locate and LocateAll: families are
// tried in order from start (wrapping), stopping at the first answer. Only a rendezvous
// miss (core.ErrNotFound) falls through; any other failure — crashed
// client, invalid node — aborts immediately. It returns the replica that
// answered alongside the result.
func locateFallthrough(rt ReplicatedTransport, client graph.NodeID, port core.Port, start int) (core.Entry, int, error) {
	r := rt.Replicas()
	if start < 0 || start >= r {
		start = 0
	}
	var (
		e   core.Entry
		err error
	)
	// Families are counted again after each miss: a resize published
	// mid-locate puts the new epoch's families, still being filled, ahead
	// of the old epoch's, and a miss there must reach those too.
	for a := 0; a < r; a, r = a+1, max(r, rt.Replicas()) {
		k := (start + a) % r
		e, err = rt.LocateReplica(client, port, k)
		if err == nil || !errors.Is(err, core.ErrNotFound) {
			return e, k, err
		}
	}
	return e, start, err
}

// locateAll runs a locate-all through locateFallthrough's loop, so it
// recounts the families after a miss as a locate does: each family's
// attempt is flood(k), whose answer is kept.
func locateAll(rt ReplicatedTransport, flood func(k int) ([]core.Entry, error)) (out []core.Entry, err error) {
	_, _, err = locateFallthrough(allFamilies{rt, func(k int) (err error) { out, err = flood(k); return err }}, 0, "", 0)
	return out, err
}

// allFamilies is rt with each family's flood replaced by attempt.
type allFamilies struct {
	ReplicatedTransport
	attempt func(k int) error
}

func (a allFamilies) LocateReplica(_ graph.NodeID, _ core.Port, k int) (core.Entry, error) {
	return core.Entry{}, a.attempt(k)
}

// HotReclassifier is implemented by transports that support the
// frequency-weighted strategy (strategy.Weighted): SetHotPorts switches
// the given ports to the post-heavy hot split (reposting their servers
// to the union posting sets first, so rendezvous never breaks) and
// demotes every port not listed back to the base strategy.
type HotReclassifier interface {
	SetHotPorts(ports []core.Port) error
}

// hotCapable refines HotReclassifier for implementations whose support
// is conditional (a MemTransport built without a weighted strategy
// still has the method, but every call would fail).
type hotCapable interface {
	canReclassify() bool
}

// inProcess is implemented by transports whose floods never leave the
// process (MemTransport, SimTransport): a locate there is CPU, not a
// wait, so the cluster never shares one between callers and every
// locate is charged its own flood. Struct embedding promotes it (a
// wrapper around *MemTransport stays in-process); an interface-typed
// wrapper hides it.
type inProcess interface {
	inProcess()
}

// reclassifiable reports whether tr can actually serve SetHotPorts.
func reclassifiable(tr Transport) bool {
	hr, ok := tr.(HotReclassifier)
	if !ok {
		return false
	}
	if hc, ok := hr.(hotCapable); ok {
		return hc.canReclassify()
	}
	return true
}

// ServerRef is a live server registration on some transport.
type ServerRef interface {
	// Port returns the registered port.
	Port() core.Port
	// Node returns the server's current address.
	Node() graph.NodeID
	// Repost refreshes the server's postings at its rendezvous nodes.
	Repost() error
	// Migrate moves the server to a new node: tombstones at the old
	// rendezvous set, fresh postings at the new one.
	Migrate(to graph.NodeID) error
	// Deregister tombstones the server; further operations fail with
	// core.ErrServerGone.
	Deregister() error
}
