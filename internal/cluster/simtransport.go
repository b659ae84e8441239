package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
)

// SimTransport is the coordinator over the internal/sim store-and-forward
// network: every posting, read and probe the coordinator hands its
// substrate travels as a real simulated message, routed hop by hop, and
// every answer comes back the same way. Passes is the coordinator's
// computed charge, as on every transport; the network counts the hops
// the messages actually took, the independent check of that charge (see
// DESIGN.md, "Coordinator and substrate"). It is the right backend
// whenever fidelity beats throughput: fault-injection studies,
// per-message traces, §2.4 robustness work.
type SimTransport struct {
	*coordinator
	sim *simSubstrate
}

// NewSimTransport builds the simulator-backed transport over g with
// strategy strat at full, fixed membership. Every operation returns once
// the simulated messages it caused have been handled, so the transport
// is as synchronous as mem and net.
func NewSimTransport(g *graph.Graph, strat rendezvous.Strategy) (*SimTransport, error) {
	lay, err := FixedLayout(g.N(), strat, 1)
	if err != nil {
		return nil, err
	}
	return NewLayoutSimTransport(g, lay)
}

// NewLayoutSimTransport builds the simulator-backed transport over g
// serving lay — replicated, weighted or elastic as the layout says.
func NewLayoutSimTransport(g *graph.Graph, lay Layout) (*SimTransport, error) {
	c, err := newCoordinator(g, lay)
	if err != nil {
		return nil, err
	}
	net, err := sim.New(g)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	s := &simSubstrate{memSubstrate: newMemSubstrate(g.N(), 0), net: net}
	// The handlers never block, so they may run on the nodes' delivery
	// loops instead of a goroutine per message.
	net.SetInlineHandlers(true)
	for v := range g.N() {
		if err := net.SetHandler(graph.NodeID(v), s.handle); err != nil {
			net.Close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	c.sub = s
	return &SimTransport{coordinator: c, sim: s}, nil
}

func (t *SimTransport) inProcess() {}

// Hops is the network's own count of the message passes taken so far.
func (t *SimTransport) Hops() int64 { return t.sim.net.Hops() }

// Store returns the node caches the simulated messages read and write.
func (t *SimTransport) Store() *Store { return t.sim.store }

// simSubstrate keeps its rows and liveness records in an embedded
// memSubstrate, but reaches them only through the network: a post is a
// multicast from the entry's origin to its nodes, a read a multicast
// from the client whose rendezvous nodes send their answers back, a
// probe a call to the probed address. The local operations — liveness
// records, expiry, digests, dumps and the chaos backdoors — are the
// memSubstrate's, and cost no passes. The network is never told about a
// crash: crash marks are the coordinator's, which hands a substrate no
// crashed node, so a route through a crashed interior node delivers, as
// it does on mem and net.
type simSubstrate struct {
	*memSubstrate
	net *sim.Network
}

// The payloads of the substrate's messages.
type (
	// simRead asks each node of fl's request run keys[lo:hi] for its
	// answer; all selects a read-all.
	simRead struct {
		fl     *flood
		lo, hi int
		all    bool
	}
	// simAnswer carries one answer back to the client: the entry the
	// node of fl.keys[ke.key] read.
	simAnswer struct {
		fl  *flood
		ke  keyedEntry
		all bool
	}
	// simProbe asks the probed host whether instance id of port lives
	// there.
	simProbe struct {
		port core.Port
		id   uint64
	}
)

func (s *simSubstrate) kind() string { return "sim" }

func (s *simSubstrate) close() { s.net.Close() }

// runNodes returns the nodes of keys[lo:hi], the targets of one run's
// multicast.
func runNodes(keys []rowKey, lo, hi int) []graph.NodeID {
	nodes := make([]graph.NodeID, hi-lo)
	for i, k := range keys[lo:hi] {
		nodes[i] = k.node
	}
	return nodes
}

// post floods each posting from its origin to its run's nodes. A Flood
// here fails only once the network is closed, with the transport, and
// then there is no row left to write; post, read and the handlers drop
// those errors for that reason.
func (s *simSubstrate) post(entries []core.Entry, rows []rowKey) {
	for lo, hi := 0, 0; lo < len(rows); lo = hi {
		hi = requestRun(rows, lo)
		e := entries[rows[lo].req]
		_, _ = s.net.Flood(e.Addr, runNodes(rows, lo, hi), e)
	}
}

func (s *simSubstrate) readFreshest(fl *flood) { s.read(fl, false) }

// readAll sorts the answers by key once they are in: they arrive node by
// node, and the coordinator reduces them in key order, as on mem.
func (s *simSubstrate) readAll(fl *flood) {
	s.read(fl, true)
	slices.SortStableFunc(fl.all, func(a, b keyedEntry) int { return cmp.Compare(a.key, b.key) })
}

// read floods each request run from its client; the answers land in fl
// before the flood returns.
func (s *simSubstrate) read(fl *flood, all bool) {
	for lo, hi := 0, 0; lo < len(fl.keys); lo = hi {
		hi = requestRun(fl.keys, lo)
		client := fl.reqs[fl.keys[lo].req].Client
		_, _ = s.net.Flood(client, runNodes(fl.keys, lo, hi), simRead{fl: fl, lo: lo, hi: hi, all: all})
	}
}

func (s *simSubstrate) probe(client graph.NodeID, port core.Port, addr graph.NodeID, id uint64) probeAnswer {
	if ans, err := s.net.Call(client, addr, simProbe{port: port, id: id}); err == nil {
		return ans.(probeAnswer)
	}
	return probeSilent
}

// handle is every node's handler. Whatever it sends, it sends through
// the message it handles (sim.Handler states why). Answers for one
// client's run arrive on that client's delivery loop one at a time.
func (s *simSubstrate) handle(self graph.NodeID, msg sim.Message) {
	switch p := msg.Payload.(type) {
	case core.Entry:
		s.store.Put(self, p)
	case simRead:
		s.answer(self, msg, p)
	case simAnswer:
		if p.all {
			p.fl.all = append(p.fl.all, p.ke)
		} else {
			p.fl.ans[p.ke.key] = rowAnswer{e: p.ke.e, ok: true}
		}
	case simProbe:
		_ = msg.Reply(s.memSubstrate.probe(msg.From, p.port, self, p.id))
	}
}

// answer reads self's rows for its key of the run by the memSubstrate's
// rules — an armed node forges or suppresses and never consults its rows,
// every answer faces the family filter — and sends each answer back to
// the client; a miss is silent. It does not share a per-key helper with
// memSubstrate's batched reads: the call costs the in-process read path
// more than these lines cost to keep twice.
func (s *simSubstrate) answer(self graph.NodeID, msg sim.Message, r simRead) {
	fl := r.fl
	i := r.lo + slices.IndexFunc(fl.keys[r.lo:r.hi], func(k rowKey) bool { return k.node == self })
	req := fl.reqs[fl.keys[i].req]
	var buf [8]core.Entry
	entries := buf[:0]
	if rec, armed := s.lies().lieFor(self, req.Port); armed {
		if !rec.silent {
			entries = append(entries, rec.e)
		}
	} else if r.all {
		entries = s.store.GetAllInto(self, req.Port, entries)
	} else if e, ok := s.store.Rows(req.Port).slot(self).readFreshestIn(fl.scope, self); ok {
		entries = append(entries, e)
	}
	for _, e := range entries {
		if fl.scope.admits(e.Addr, self) {
			_ = msg.Send(req.Client, simAnswer{fl: fl, ke: keyedEntry{key: int32(i), e: e}, all: r.all})
		}
	}
}
