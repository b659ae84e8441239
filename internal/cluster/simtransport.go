package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
)

// SimTransport runs the existing internal/core engine over the
// internal/sim store-and-forward network: every posting, query and reply
// is a real simulated message routed hop by hop, and Passes reports the
// network's exact hop counter — the paper's cost measure with no
// approximation. It is the reference backend the fast path is checked
// against, and the right one whenever fidelity beats throughput
// (fault-injection studies, per-message traces, §2.4 robustness work).
//
// The transport owns its network and enables the simulator's inline
// handler mode: the name-server handlers never block, so skipping the
// per-delivery goroutine is safe and roughly doubles serving throughput.
type SimTransport struct {
	net    *sim.Network
	sys    *core.System
	gens   *genIndex
	rp     *strategy.Replicated // nil unless replicated (r > 1)
	events eventSink

	// elastic is the epoch-versioned membership state (nil on
	// transports built without it — see newElasticSimTransport). The
	// simulator is the paper-exact reference of the resize protocol:
	// the engine strategy is swapped at each phase (union posting sets
	// during the dual-epoch migration), the migration delta re-posts
	// through core.Server.RepostVia as real multicasts, old-epoch
	// floods travel as explicit-target LocateVia floods, and epoch
	// garbage collection expires entries in place via
	// core.System.ExpireEntry.
	elastic     atomic.Pointer[simElastic]
	resizeMu    sync.Mutex
	migrated    atomic.Int64
	dualLocates atomic.Int64

	// recon holds the anti-entropy counters and the background
	// reconciliation loop (see antientropy.go / antientropy_sim.go).
	recon reconciler

	// forge is the armed Byzantine lie table (nil when disarmed),
	// consulted by the engine forger hook installed at construction —
	// see byzantine.go / byzantine_sim.go.
	forge atomic.Pointer[forgeTable]
}

// simElastic is one phase of the simulator's elastic membership: the
// serving epoch and, during a dual-epoch migration, the retiring epoch
// plus the minimal-movement remap between them.
type simElastic struct {
	cur  *strategy.Epoch
	prev *strategy.Epoch
	rm   *strategy.Remap
}

// replicas returns the dual-epoch family count of the phase.
func (es *simElastic) replicas() int {
	r := es.cur.Replicas()
	if es.prev != nil {
		r += es.prev.Replicas()
	}
	return r
}

// resolve maps a dual-epoch family index to its epoch and local family.
func (es *simElastic) resolve(k int) (*strategy.Epoch, int, bool) {
	r := es.cur.Replicas()
	if k >= 0 && k < r {
		return es.cur, k, true
	}
	if es.prev != nil && k >= r && k < r+es.prev.Replicas() {
		return es.prev, k - r, true
	}
	return nil, 0, false
}

var _ Transport = (*SimTransport)(nil)
var _ ReplicatedTransport = (*SimTransport)(nil)
var _ ElasticTransport = (*SimTransport)(nil)

// NewSimTransport builds a fresh simulator network over g and installs
// the core engine with strat and opts. Every operation returns once the
// simulated messages it caused have been handled, so the transport is as
// synchronous as mem and net.
func NewSimTransport(g *graph.Graph, strat rendezvous.Strategy, opts core.Options) (*SimTransport, error) {
	return newSimTransport(g, rendezvous.Precompute(strat), nil, opts)
}

// NewLayoutSimTransport builds the paper-exact reference for lay. The
// simulator keeps its own implementation of each mode — it is what the
// coordinator is checked against — so the layout only selects one: the
// elastic membership protocol, r-fold replicated rendezvous, or the
// plain engine. The weighted mode has no reference; the simulator runs
// the base strategy only.
func NewLayoutSimTransport(g *graph.Graph, lay Layout, opts core.Options) (*SimTransport, error) {
	if err := lay.check(g.N()); err != nil {
		return nil, err
	}
	switch {
	case lay.Weighted != nil:
		return nil, fmt.Errorf("cluster: the simulator has no weighted mode")
	case lay.Elastic:
		return newElasticSimTransport(g, lay.Epoch, opts)
	case lay.Epoch.Replicas() > 1:
		return newReplicatedSimTransport(g, lay.Epoch.Replicated(), opts)
	}
	return NewSimTransport(g, lay.Epoch.Base(), opts)
}

// newReplicatedSimTransport builds the paper-exact reference for the
// r-fold replicated rendezvous mode: the engine posts over the union of
// every replica family's posting sets (one real multicast), and a
// locate floods replica 0's query set, falling through family by family
// — each attempt a real simulated flood with its hops counted by the
// network, so the fast paths' fallthrough charges are checked against
// the genuine article. A family that misses ends as soon as its flood's
// messages have been handled, so fallthrough costs passes, not time.
func newReplicatedSimTransport(g *graph.Graph, rp *strategy.Replicated, opts core.Options) (*SimTransport, error) {
	// The engine's own strategy: union posts, replica-0 queries. The
	// higher replica floods go through LocateVia with explicit targets.
	comp := rendezvous.Precompute(rendezvous.Funcs{
		StrategyName: rp.Name(),
		Universe:     rp.N(),
		PostFunc:     rp.UnionPost,
		QueryFunc:    rp.Base().Query,
	})
	t, err := newSimTransport(g, comp, rp, opts)
	if err != nil {
		return nil, err
	}
	// Family-scope the rendezvous answers: a node only answers a
	// family-k query with postings it holds as a member of Pₖ of the
	// posting's origin, which keeps the replica families independent
	// channels even where their node sets overlap.
	t.sys.SetReplicaFilter(func(self graph.NodeID, family int, e core.Entry) bool {
		return rp.InPost(family, e.Addr, self)
	})
	return t, nil
}

// newElasticSimTransport builds the paper-exact reference of the
// elastic membership protocol: the engine initially serves initial's
// active node set, and Resize/FinishResize drive the dual-epoch
// migration with every step a real simulated event — delta re-posts as
// multicasts with network-counted hops, old-epoch floods as
// explicit-target queries, and epoch retirement as local cache expiry.
// Replication comes from the epoch itself.
func newElasticSimTransport(g *graph.Graph, initial *strategy.Epoch, opts core.Options) (*SimTransport, error) {
	t, err := newSimTransport(g, epochEngineStrategy(initial, nil, g.N()), nil, opts)
	if err != nil {
		return nil, err
	}
	es := &simElastic{cur: initial}
	t.elastic.Store(es)
	t.installEpochFilter(es)
	return t, nil
}

// epochEngineStrategy builds the engine strategy of one elastic phase:
// posting sets are the serving epoch's (widened to both epochs' union
// while prev is live, so lifecycle postings — especially tombstones —
// cover every node either epoch's floods can read), and the default
// query set is the serving epoch's family 0.
func epochEngineStrategy(cur, prev *strategy.Epoch, universe int) rendezvous.Strategy {
	post := cur.PostSet
	name := cur.Name()
	if prev != nil {
		name = fmt.Sprintf("%s+%s", cur.Name(), prev.Name())
		post = func(i graph.NodeID) []graph.NodeID { return unionIDs(cur.PostSet(i), prev.PostSet(i)) }
	}
	return rendezvous.Precompute(rendezvous.Funcs{
		StrategyName: name,
		Universe:     universe,
		PostFunc:     post,
		QueryFunc:    func(j graph.NodeID) []graph.NodeID { return cur.QuerySet(j, 0) },
	})
}

// installEpochFilter scopes rendezvous answers to the dual-epoch family
// index space of phase es: a node only answers a family-k flood with
// entries whose origin posts at it as part of that family of the
// resolved epoch, keeping the two live epochs independent channels.
func (t *SimTransport) installEpochFilter(es *simElastic) {
	t.sys.SetReplicaFilter(func(self graph.NodeID, family int, e core.Entry) bool {
		ep, fam, ok := es.resolve(family)
		return ok && ep.InPost(fam, e.Addr, self)
	})
}

func newSimTransport(g *graph.Graph, strat rendezvous.Strategy, rp *strategy.Replicated, opts core.Options) (*SimTransport, error) {
	net, err := sim.New(g)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sys, err := core.NewSystem(net, strat, opts)
	if err != nil {
		net.Close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	net.SetInlineHandlers(true)
	t := &SimTransport{net: net, sys: sys, gens: new(genIndex), rp: rp}
	// The lying hook is installed once, here, and steered through the
	// atomic lie table — Arm/Disarm swap the table under live traffic
	// without racing the engine's handlers.
	sys.SetForger(func(self graph.NodeID, port core.Port) (core.Entry, bool, bool) {
		rec, ok := t.forgeLoad().lieFor(self, port)
		return rec.e, rec.silent, ok
	})
	return t, nil
}

// Name implements Transport.
func (t *SimTransport) Name() string {
	if t.elastic.Load() != nil {
		return "sim-elastic"
	}
	if r := t.Replicas(); r > 1 {
		return fmt.Sprintf("sim-r%d", r)
	}
	return "sim"
}

// Replicas implements ReplicatedTransport; on an elastic transport
// mid-migration it is the dual-epoch family count.
func (t *SimTransport) Replicas() int {
	if es := t.elastic.Load(); es != nil {
		return es.replicas()
	}
	if t.rp == nil {
		return 1
	}
	return t.rp.Replicas()
}

// N implements Transport.
func (t *SimTransport) N() int { return t.net.Graph().N() }

// System exposes the underlying engine (for tests and fault injection).
func (t *SimTransport) System() *core.System { return t.sys }

// simServer adapts core.Server to ServerRef.
type simServer struct {
	srv *core.Server
	t   *SimTransport
}

// Register implements Transport: a batch of one.
func (t *SimTransport) Register(port core.Port, node graph.NodeID) (ServerRef, error) {
	refs, err := t.PostBatch([]Registration{{Port: port, Node: node}})
	if err != nil {
		return nil, err
	}
	return refs[0], nil
}

// PostBatch implements Transport. The simulator gains nothing from
// batching — every posting is still a real multicast — so the batch is
// the equivalent sequence of registrations; it is the reference semantics
// the fast path's batched implementation is checked against. Inputs are
// validated up front, so a refused registration allocates no server id.
func (t *SimTransport) PostBatch(regs []Registration) ([]ServerRef, error) {
	for _, r := range regs {
		if !t.net.Graph().Valid(r.Node) {
			return nil, fmt.Errorf("cluster: register at %d: %w", r.Node, graph.ErrNodeRange)
		}
		if es := t.elastic.Load(); es != nil && !es.cur.Contains(r.Node) {
			return nil, errOutsideMembership(r.Port, r.Node, es.cur)
		}
		if t.net.Crashed(r.Node) {
			return nil, fmt.Errorf("cluster: post %q from %d: %w", r.Port, r.Node, sim.ErrCrashed)
		}
	}
	refs := make([]ServerRef, len(regs))
	for i, r := range regs {
		srv, err := t.sys.RegisterServer(r.Port, r.Node)
		if err != nil {
			return refs[:i], err
		}
		// Re-checked after the engine registration, so a racing shrink
		// Resize cannot leave a live server outside the membership (best
		// effort — the simulator's Resize documents that callers quiesce
		// traffic around it).
		if es := t.elastic.Load(); es != nil && !es.cur.Contains(r.Node) {
			_ = srv.Deregister()
			return refs[:i], errOutsideMembership(r.Port, r.Node, es.cur)
		}
		t.gens.bump(r.Port)
		refs[i] = simServer{srv: srv, t: t}
	}
	return refs, nil
}

// Locate implements Transport; on a replicated transport a rendezvous
// miss falls through the replica families in order, each attempt a real
// simulated flood.
func (t *SimTransport) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	e, _, err := locateFallthrough(t, client, port, 0)
	return e, err
}

// LocateReplica implements ReplicatedTransport: one real query flood
// over replica k's query set (the engine's own strategy for replica 0;
// dual-epoch family indexing on elastic transports).
func (t *SimTransport) LocateReplica(client graph.NodeID, port core.Port, replica int) (core.Entry, error) {
	targets, dual, err := t.replicaTargets(client, port, replica)
	if err != nil {
		return core.Entry{}, err
	}
	res, err := t.sys.LocateVia(client, port, targets, replica)
	if err != nil {
		return core.Entry{}, err
	}
	if dual {
		t.dualLocates.Add(1)
	}
	return res.Entry, nil
}

// replicaTargets returns the explicit query set for dual family index k
// (nil for replica 0 on non-elastic transports, meaning the engine's
// own strategy) and whether the family belongs to a retiring epoch. An
// empty epoch-family flood — retired family, or a client outside the
// family's membership — short-circuits to a rendezvous miss without
// simulating a vacuous flood.
func (t *SimTransport) replicaTargets(client graph.NodeID, port core.Port, replica int) ([]graph.NodeID, bool, error) {
	// The client is checked first, in the coordinator's order: a crashed
	// client fails as such whatever family it names.
	if !t.net.Graph().Valid(client) {
		return nil, false, fmt.Errorf("cluster: locate from %d: %w", client, graph.ErrNodeRange)
	}
	if t.net.Crashed(client) {
		return nil, false, fmt.Errorf("cluster: locate from %d: %w", client, sim.ErrCrashed)
	}
	if es := t.elastic.Load(); es != nil {
		ep, fam, ok := es.resolve(replica)
		if !ok {
			return nil, false, errRetiredReplica(port, client, replica)
		}
		targets := ep.QuerySet(client, fam)
		if len(targets) == 0 {
			return nil, false, errMissingEpochFlood(port, client)
		}
		return targets, ep == es.prev, nil
	}
	if replica < 0 || replica >= t.Replicas() {
		return nil, false, fmt.Errorf("cluster: replica %d out of [0,%d)", replica, t.Replicas())
	}
	if replica == 0 {
		return nil, false, nil
	}
	return t.rp.Replica(replica).Query(client), false, nil
}

// LocateBatch implements Transport: the equivalent sequence of single
// locates, each a real query flood with collected replies.
func (t *SimTransport) LocateBatch(reqs []LocateReq, res []LocateRes) {
	n := len(reqs)
	if len(res) < n {
		n = len(res)
	}
	for i := 0; i < n; i++ {
		res[i].Entry, res[i].Err = t.Locate(reqs[i].Client, reqs[i].Port)
	}
}

// Probe implements Transport: a real request/reply call to the hinted
// address, request and reply hops both counted by the network.
func (t *SimTransport) Probe(client graph.NodeID, e core.Entry) (core.Entry, error) {
	return t.sys.Probe(client, e)
}

// Gen implements Transport.
func (t *SimTransport) Gen(port core.Port) uint64 { return t.gens.gen(port) }

func (t *SimTransport) genSlot(port core.Port) *atomic.Uint64 { return t.gens.slot(port) }

func (t *SimTransport) inProcess() {}

// LocateAll implements Transport, with the same replica fallthrough as
// Locate.
func (t *SimTransport) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	return locateAll(t, func(k int) ([]core.Entry, error) {
		targets, _, err := t.replicaTargets(client, port, k)
		if err != nil {
			return nil, err
		}
		return t.sys.LocateAllVia(client, port, targets, k)
	})
}

// Elastic implements ElasticTransport.
func (t *SimTransport) Elastic() bool { return t.elastic.Load() != nil }

// Epoch implements ElasticTransport.
func (t *SimTransport) Epoch() uint64 {
	if es := t.elastic.Load(); es != nil {
		return es.cur.Seq()
	}
	return 0
}

// Resizing implements ElasticTransport.
func (t *SimTransport) Resizing() bool {
	es := t.elastic.Load()
	return es != nil && es.prev != nil
}

// MigratedPosts implements ElasticTransport.
func (t *SimTransport) MigratedPosts() int64 { return t.migrated.Load() }

// DualEpochLocates implements ElasticTransport.
func (t *SimTransport) DualEpochLocates() int64 { return t.dualLocates.Load() }

// Resize implements ElasticTransport, every step a real simulated
// event: the engine strategy is swapped to the dual phase (union
// posting sets, new-epoch queries), the replica filter widens to both
// epochs' families, and every live server re-posts exactly the delta
// the remap added via a real multicast whose hops the network counts —
// the same charges the fast paths compute from the routing tables.
// Resize does not synchronize with in-flight traffic; let concurrent
// callers return first when pinning pass accounting.
func (t *SimTransport) Resize(next *strategy.Epoch) (int, error) {
	if t.elastic.Load() == nil {
		return 0, ErrNotElastic
	}
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	es := t.elastic.Load()
	if es.prev != nil {
		return 0, fmt.Errorf("cluster: resize to epoch %d: migration from epoch %d still draining", next.Seq(), es.prev.Seq())
	}
	if err := validateNextEpoch(es.cur, next, t.net.Graph().N()); err != nil {
		return 0, err
	}
	rm, err := strategy.NewRemap(es.cur, next)
	if err != nil {
		return 0, err
	}
	servers := t.sys.LiveServers()
	for _, srv := range servers {
		if !next.Contains(srv.Node()) {
			return 0, errServerOutsideEpoch(srv.Port(), srv.Node(), next)
		}
	}
	dual := &simElastic{cur: next, prev: es.cur, rm: rm}
	t.elastic.Store(dual)
	t.installEpochFilter(dual)
	if err := t.sys.SetStrategy(epochEngineStrategy(next, es.cur, t.net.Graph().N())); err != nil {
		return 0, err
	}
	moved := 0
	movedPorts := make(map[core.Port]bool)
	for _, srv := range servers {
		added := rm.Added(srv.Node())
		if len(added) == 0 {
			continue
		}
		if err := srv.RepostVia(added); err != nil {
			continue // a crashed origin cannot migrate its postings
		}
		moved += len(added)
		movedPorts[srv.Port()] = true
	}
	for port := range movedPorts {
		t.gens.bump(port)
	}
	t.migrated.Add(int64(moved))
	return moved, nil
}

// FinishResize implements ElasticTransport: the engine strategy
// narrows back to the serving epoch alone, the replica filter drops the
// retired families, and the orphaned old-epoch postings of every live
// server expire in place via cache surgery — local state, no simulated
// messages, exactly the zero charge the fast paths apply.
func (t *SimTransport) FinishResize() error {
	if t.elastic.Load() == nil {
		return ErrNotElastic
	}
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	es := t.elastic.Load()
	if es.prev == nil {
		return fmt.Errorf("cluster: no resize in progress")
	}
	retired := &simElastic{cur: es.cur}
	t.elastic.Store(retired)
	t.installEpochFilter(retired)
	if err := t.sys.SetStrategy(epochEngineStrategy(es.cur, nil, t.net.Graph().N())); err != nil {
		return err
	}
	for _, srv := range t.sys.LiveServers() {
		node := srv.Node()
		for _, v := range es.rm.Removed(node) {
			t.sys.ExpireEntry(v, srv.Port(), srv.ID())
		}
	}
	return nil
}

// Crash implements Transport: the node is marked crashed on the network
// and its volatile cache is dropped, as in the engine's crash model.
func (t *SimTransport) Crash(node graph.NodeID) error {
	if err := t.net.Crash(node); err != nil {
		return err
	}
	t.sys.ClearCache(node)
	t.gens.bumpAll()
	t.events.emit(Event{Type: EvCrash, Node: node})
	return nil
}

// Restore implements Transport.
func (t *SimTransport) Restore(node graph.NodeID) error {
	if err := t.net.Restore(node); err != nil {
		return err
	}
	t.events.emit(Event{Type: EvRestore, Node: node})
	return nil
}

// SetEventSink implements EventSource: crash and restore marks are
// pushed to the sink as EvCrash/EvRestore events.
func (t *SimTransport) SetEventSink(fn EventSink) { t.events.set(fn) }

// Passes implements Transport: the simulator's exact hop count.
func (t *SimTransport) Passes() int64 { return t.net.Hops() }

// ResetPasses implements Transport.
func (t *SimTransport) ResetPasses() { t.net.ResetCounters() }

// Close implements Transport: it stops the background reconciliation
// loop, if one was started, then shuts the simulated network down.
func (t *SimTransport) Close() error {
	t.recon.halt()
	t.net.Close()
	return nil
}

// Port implements ServerRef.
func (s simServer) Port() core.Port { return s.srv.Port() }

// Node implements ServerRef.
func (s simServer) Node() graph.NodeID { return s.srv.Node() }

// Repost implements ServerRef; like a registration it can change the
// port's freshest winner, so the port's hints re-resolve.
func (s simServer) Repost() error {
	s.t.gens.bump(s.srv.Port())
	return s.srv.Repost()
}

// Migrate implements ServerRef. The move invalidates cached hints for
// the port; on an elastic transport the destination must be a member
// of the serving epoch.
func (s simServer) Migrate(to graph.NodeID) error {
	if es := s.t.elastic.Load(); es != nil && !es.cur.Contains(to) {
		return errOutsideMembership(s.srv.Port(), to, es.cur)
	}
	err := s.srv.Migrate(to)
	if err == nil || !errors.Is(err, core.ErrServerGone) {
		s.t.gens.bump(s.srv.Port())
	}
	return err
}

// Deregister implements ServerRef.
func (s simServer) Deregister() error {
	err := s.srv.Deregister()
	if err == nil || !errors.Is(err, core.ErrServerGone) {
		s.t.gens.bump(s.srv.Port())
	}
	return err
}
