package cluster

import (
	"cmp"
	"errors"
	"hash/maphash"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
)

// Options configure a Cluster.
type Options struct {
	// Shards is the number of Submit shards (rounded up to a power of
	// two). Each shard is a bounded queue and the worker pool draining
	// it; synchronous locates never touch one (on transports that share
	// floods their flight table is striped on its own, see flightTable).
	// Zero picks GOMAXPROCS rounded up to a power of two.
	Shards int
	// WorkersPerShard is the number of worker goroutines draining each
	// shard's async queue. Zero means 2.
	WorkersPerShard int
	// QueueDepth bounds each shard's async queue; submissions beyond it
	// are shed with ErrOverload. Zero means 1024.
	QueueDepth int
	// DisableCoalescing stops concurrent locates for the same (client,
	// port) from sharing one query flood, so every locate runs its own.
	// It only matters on transports whose floods leave the process
	// (NetTransport, the gate's client transport): in-process transports
	// (MemTransport, SimTransport) never share, whatever it says.
	DisableCoalescing bool
	// Hints enables the per-client address hint cache: a successful
	// locate caches the resolved entry under the transport's current
	// generation, and later locates for the same (client, port)
	// validate it with one direct probe (2×Dist passes) instead of a
	// full query flood. Stale hints fail fast: migrations,
	// deregistrations, registrations and crashes bump the sharded
	// generation index, and a probe that misses marks the hint dead.
	Hints bool
	// HotPorts, when positive, enables the frequency-weighted strategy
	// loop: the cluster counts per-port locate popularity and promotes
	// the HotPorts most-located ports on a transport that implements
	// HotReclassifier (a weighted MemTransport). Zero disables
	// popularity tracking entirely.
	HotPorts int
	// HotRefresh is the reclassification period when HotPorts is set.
	// Zero disables the background loop; ReclassifyHot can still be
	// called explicitly.
	HotRefresh time.Duration
	// VoteQuorum, when >= 2 on a replicated transport that exposes
	// answerer identity (ByzantineTransport), switches the locate path
	// from first-answer replica fallthrough to answer voting: each
	// locate floods VoteQuorum replica families (clamped to the
	// replication factor), majority-votes the claims by (address,
	// instance), and believes only a strict majority — the defense
	// against rendezvous nodes that lie rather than crash. Nodes
	// contradicted by the majority are quarantined until the next
	// successful reconciliation round; see vote.go. Every extra flood
	// is charged honestly. Zero (or a transport without the seam)
	// keeps the crash-only fallthrough path.
	VoteQuorum int
	// OnEvent, when set, receives lifecycle events: registrations,
	// deregistrations and migrations passing through the cluster, epoch
	// transitions, and — when the transport implements EventSource —
	// crash/restore marks and node-shard process deaths observed below
	// the cluster API. The sink runs inline on the emitting path and
	// must not block; the gate's watch hub is the intended consumer.
	OnEvent EventSink
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	size := 1
	for size < o.Shards {
		size <<= 1
	}
	o.Shards = size
	if o.WorkersPerShard <= 0 {
		o.WorkersPerShard = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// Cluster is the serving layer over a Transport: concurrent locates for
// the same (client, port) coalesce into one query flood when that flood
// leaves the process (in-process transports charge every locate its
// own), asynchronous submissions are sharded by port onto worker pools,
// and every operation feeds the live metrics.
type Cluster struct {
	// inflight leads the struct so its cacheline-padded stripes stay
	// line-aligned. With closed it is the close gate: every public
	// operation (and Submit's queue send) runs between enter and exit, so
	// Close cannot close the queues or the transport while one is
	// mid-flight. The gate also hands out the operation's lane (lanes):
	// the stripe it counts in flight on is the stripe every per-locate
	// metric of that operation is written on, and it follows the calling
	// processor, not the client — callers running side by side share no
	// written cache line, even when they serve the same clients.
	inflight stats.StripedCounter
	flights  flightTable

	// lanes sits with the fields nobody writes after New, not between
	// the two padded tables above: there it would knock the flight
	// stripes off their cache lines.
	lanes stats.Lanes
	tr    Transport
	opts  Options
	seed  maphash.Seed

	pool     sync.Once   // starts queues on the first Submit
	queues   []chan task // one Submit queue per shard, picked by port hash
	hints    *hintCache  // nil unless Options.Hints
	genSlots genSlotter  // non-nil when the transport exposes generation slots
	pop      *popularity // nil unless Options.HotPorts > 0
	// repl is the transport's replicated view when it runs an r-fold
	// replicated strategy with r > 1; the cluster then drives the
	// crash-tolerant locate path itself — deterministic replica
	// fallthrough with depth accounting, and hint invalidations that
	// retry the next replica first — instead of the transport's opaque
	// Locate.
	repl ReplicatedTransport
	// byz is the transport's Byzantine seam when answer voting is
	// enabled (Options.VoteQuorum >= 2 on a replicated
	// ByzantineTransport); nil keeps the crash-only fallthrough.
	// suspects is the quarantine set voting maintains (see vote.go).
	byz       ByzantineTransport
	suspectMu sync.Mutex
	suspects  map[graph.NodeID]struct{}
	closed    atomic.Bool
	drained   chan struct{} // wakes Close: an exit after closed saw a stripe reach zero
	stopHot   chan struct{}
	wg        sync.WaitGroup

	batchScratch sync.Pool // *clusterScratch for hint-aware LocateBatch

	metrics Metrics
}

// clusterScratch is the pooled workspace of a hint-aware LocateBatch:
// the sub-batch of hint misses forwarded to the transport.
type clusterScratch struct {
	reqs  []LocateReq
	res   []LocateRes
	idx   []int
	gens  []uint64
	slots []*atomic.Uint64
}

// popularity is the port-popularity counter feeding the
// frequency-weighted strategy: one atomic per port, found through a
// copy-on-write map behind an atomic pointer (the hintShard pattern), so
// the count on the locate hot path is one atomic load, a map read and
// one add — no reader count shared between callers — and the map is
// cloned under mu only on a port's first locate.
type popularity struct {
	m  atomic.Pointer[map[core.Port]*atomic.Int64]
	mu sync.Mutex
}

func newPopularity() *popularity {
	p := &popularity{}
	p.m.Store(&map[core.Port]*atomic.Int64{})
	return p
}

func (p *popularity) bump(port core.Port) {
	ctr := (*p.m.Load())[port]
	if ctr == nil {
		p.mu.Lock()
		cur := *p.m.Load()
		if ctr = cur[port]; ctr == nil {
			ctr = new(atomic.Int64)
			next := maps.Clone(cur)
			next[port] = ctr
			p.m.Store(&next)
		}
		p.mu.Unlock()
	}
	ctr.Add(1)
}

// top returns the k most-located ports, most popular first.
func (p *popularity) top(k int) []core.Port {
	type pc struct {
		port  core.Port
		count int64
	}
	snap := *p.m.Load()
	all := make([]pc, 0, len(snap))
	for port, ctr := range snap {
		all = append(all, pc{port: port, count: ctr.Load()})
	}
	slices.SortFunc(all, func(a, b pc) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.port, b.port))
	})
	out := make([]core.Port, min(k, len(all)))
	for i := range out {
		out[i] = all[i].port
	}
	return out
}

// flightStripes is the stripe count of the flight table, a power of two
// and independent of Options.Shards: several times more stripes than
// callers run at once, so two of them rarely meet on one stripe.
const flightStripes = 256

// flightTable publishes the in-progress locates concurrent callers
// coalesce on, direct-mapped: one hash of (client, port), computed once
// per locate, picks the stripe, and a stripe publishes at most one
// flight. A join compares the full pair, so two pairs that collide on a
// stripe are never chained or mis-joined — the later one finds the
// stripe taken and runs its flood unshared, which costs a coalescing
// opportunity and nothing else. The zero value is ready to use.
type flightTable struct {
	stripes [flightStripes]flightStripe
}

// flightStripe is padded to a cache line so callers on different
// stripes share no written line.
type flightStripe struct {
	mu sync.Mutex
	f  *flight // the published flight; nil when the stripe is free
	_  [48]byte
}

// flight is one in-progress locate shared by coalesced callers; replica
// records which replica family resolved it (always 0 on unreplicated
// transports). Flights are pooled — the uncontended locate fast path
// allocates nothing — so the wait primitive is a mutex held by the
// owner for the flight's lifetime (unlock is the broadcast) and refs
// counts the owner plus every coalesced waiter: joins happen under the
// stripe lock while the flight is still published, so no joiner can
// arrive after the owner unpublishes it, and whoever drops the last
// reference returns the flight to the pool.
type flight struct {
	mu      sync.Mutex
	refs    atomic.Int32
	client  graph.NodeID
	port    core.Port
	entry   core.Entry
	replica int
	err     error
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

func (f *flight) release() {
	if f.refs.Add(-1) == 0 {
		flightPool.Put(f)
	}
}

// task is one asynchronous locate.
type task struct {
	client graph.NodeID
	port   core.Port
	cb     func(core.Entry, error)
}

// New builds a cluster over tr. The cluster does not own the transport's
// lifecycle until Close is called, which closes it.
func New(tr Transport, opts Options) *Cluster {
	c := &Cluster{tr: tr, opts: opts.withDefaults(), seed: maphash.MakeSeed(), drained: make(chan struct{}, 1), stopHot: make(chan struct{})}
	if rt, ok := tr.(ReplicatedTransport); ok && rt.Replicas() > 1 {
		c.repl = rt
		if bt, ok := tr.(ByzantineTransport); ok && c.opts.VoteQuorum >= 2 {
			c.byz = bt
			c.suspects = make(map[graph.NodeID]struct{})
		}
	}
	if c.opts.OnEvent != nil {
		if es, ok := tr.(EventSource); ok {
			es.SetEventSink(c.opts.OnEvent)
		}
	}
	// Sharing only pays where a flood waits on another process; an
	// in-process flood is CPU, so each locate runs (and is charged) its own.
	_, local := tr.(inProcess)
	c.opts.DisableCoalescing = c.opts.DisableCoalescing || local
	c.metrics.start(tr)
	c.batchScratch.New = func() any { return &clusterScratch{} }
	if c.opts.Hints {
		c.hints = newHintCache(tr.N())
		c.genSlots, _ = tr.(genSlotter)
	}
	if c.opts.HotPorts > 0 {
		c.pop = newPopularity()
	}
	if c.pop != nil && c.opts.HotRefresh > 0 && reclassifiable(tr) {
		c.wg.Add(1)
		go c.runHotLoop()
	}
	return c
}

// startPool starts the Submit queues and their workers; the first
// Submit runs it, so a cluster that is never handed an asynchronous
// locate starts neither.
func (c *Cluster) startPool() {
	c.queues = make([]chan task, c.opts.Shards)
	for i := range c.queues {
		c.queues[i] = make(chan task, c.opts.QueueDepth)
		for w := 0; w < c.opts.WorkersPerShard; w++ {
			c.wg.Add(1)
			go c.runWorker(c.queues[i])
		}
	}
}

// runHotLoop periodically re-derives the hot-port set from the live
// popularity counters and pushes it to the transport.
func (c *Cluster) runHotLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.HotRefresh)
	defer tick.Stop()
	for {
		select {
		case <-c.stopHot:
			return
		case <-tick.C:
			_ = c.ReclassifyHot()
		}
	}
}

// ReclassifyHot promotes the currently most-located HotPorts ports on
// the transport's weighted strategy. It fails on transports without one
// or when popularity tracking is disabled.
func (c *Cluster) ReclassifyHot() error {
	if !reclassifiable(c.tr) {
		return errors.New("cluster: transport has no weighted strategy")
	}
	if c.pop == nil {
		return errors.New("cluster: popularity tracking disabled (Options.HotPorts)")
	}
	return c.tr.(HotReclassifier).SetHotPorts(c.pop.top(c.opts.HotPorts))
}

func (c *Cluster) runWorker(queue <-chan task) {
	defer c.wg.Done()
	// Workers bypass the closed check so tasks admitted before Close
	// still complete while the queues drain; they take a lane per task
	// all the same, so a worker's metrics follow the core it runs on.
	for t := range queue {
		stripe := c.lanes.Get()
		e, err := c.locate(stripe, t.client, t.port)
		c.lanes.Put(stripe)
		if t.cb != nil {
			t.cb(e, err)
		}
	}
}

// Transport returns the transport the cluster serves from.
func (c *Cluster) Transport() Transport { return c.tr }

// Register announces a server for port at node and counts the posting.
func (c *Cluster) Register(port core.Port, node graph.NodeID) (ServerRef, error) {
	stripe, ok := c.enter()
	if !ok {
		return nil, ErrClosed
	}
	defer c.exit(stripe)
	ref, err := c.tr.Register(port, node)
	if err == nil {
		c.metrics.posts.Add(1)
		if c.opts.OnEvent != nil {
			c.opts.OnEvent(Event{Type: EvRegister, Port: port, Node: node})
			ref = c.wrapRef(ref)
		}
	}
	return ref, err
}

// Locate resolves port from client synchronously. On a transport whose
// floods leave the process, concurrent locates for the same (client,
// port) share one underlying query flood (unless coalescing is
// disabled): the first caller becomes the flight leader and executes the
// query; later callers wait on the leader's result. On an in-process
// transport (MemTransport, SimTransport) every locate runs and is
// charged its own flood. Every caller is counted and timed in the
// metrics.
//
// Sharing weakens read-your-writes: a caller that joins an already
// in-flight query receives a result sampled when that flight started,
// which may predate the caller's own call — e.g. a locate retried
// immediately after a Register returned can re-join a stale flight and
// still miss. Callers that need post-write visibility over the wire
// should disable coalescing or retry after the flight's duration; an
// in-process locate always starts its own flood after the call.
func (c *Cluster) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	stripe, ok := c.enter()
	if !ok {
		return core.Entry{}, ErrClosed
	}
	defer c.exit(stripe)
	return c.locate(stripe, client, port)
}

// locate is one locate on the caller's lane: stripe picks the stripe of
// every striped metric it ticks.
func (c *Cluster) locate(stripe int, client graph.NodeID, port core.Port) (core.Entry, error) {
	sampled := c.metrics.sampleLocate(stripe)
	var begin time.Time
	if sampled {
		begin = time.Now()
	}
	if c.pop != nil {
		c.pop.bump(port)
	}
	start := 0
	if c.hints != nil {
		e, ok, retry := c.hintLocate(stripe, client, port)
		if ok {
			c.metrics.observeLocate(stripe, begin, sampled, nil)
			return e, nil
		}
		// An invalidated hint steers the fallback flood: the replica
		// that produced the now-dead hint is the one most likely broken
		// by the same crash, so the fallthrough starts at the next
		// family and wraps, instead of re-flooding the suspect first.
		start = retry
	}
	var (
		e       core.Entry
		gen     uint64
		genSlot *atomic.Uint64
		replica int
		err     error
	)
	if c.hints != nil {
		// Sample the generation before the flood: if an invalidation
		// lands mid-flood the cached hint carries a stale generation and
		// the next locate falls back to a fresh flood.
		gen, genSlot = c.genBefore(port)
	}
	if c.opts.DisableCoalescing {
		e, replica, err = c.floodLocate(stripe, client, port, start)
	} else {
		e, replica, err = c.locateCoalesced(stripe, client, port, start)
	}
	if c.hints != nil && err == nil {
		c.hints.put(client, port, e, gen, genSlot, replica)
	}
	c.metrics.observeLocate(stripe, begin, sampled, err)
	return e, err
}

// genBefore samples port's current generation (and its counter address,
// when the transport exposes one) ahead of a flood.
func (c *Cluster) genBefore(port core.Port) (uint64, *atomic.Uint64) {
	if c.genSlots != nil {
		slot := c.genSlots.genSlot(port)
		return slot.Load(), slot
	}
	return c.tr.Gen(port), nil
}

// hintLocate serves a locate from the address hint cache when possible:
// generation-checked, then confirmed by one direct probe. A failed
// probe marks the hint dead so the pair goes straight to the flood
// until the generation moves. The hit path performs no allocation.
//
// The third result is the replica the fallback flood should start at:
// 0 when there was no usable hint, and — on a replicated transport —
// the family after the one that resolved the invalidated hint when the
// hint was stale (a crash bumps every generation) or its probe failed,
// so the flood retries the next replica before re-flooding the one the
// crash most likely broke.
func (c *Cluster) hintLocate(stripe int, client graph.NodeID, port core.Port) (core.Entry, bool, int) {
	sl, hv := c.hints.lookup(client, port)
	if sl == nil || hv == nil {
		return core.Entry{}, false, 0
	}
	if hv.dead {
		return core.Entry{}, false, c.nextReplica(hv.replica)
	}
	if hv.stale(c.tr) {
		c.metrics.hintStale.Add(1)
		return core.Entry{}, false, c.nextReplica(hv.replica)
	}
	e, err := c.tr.Probe(client, hv.entry)
	if err != nil {
		c.hints.markDead(sl, hv)
		c.metrics.hintProbeFails.Add(1)
		return core.Entry{}, false, c.nextReplica(hv.replica)
	}
	c.metrics.hintHits.Add(stripe, 1)
	return e, true, 0
}

// nextReplica returns the replica after k in the fallthrough order, or
// 0 on an unreplicated transport.
func (c *Cluster) nextReplica(k int) int {
	if c.repl == nil {
		return 0
	}
	return (k + 1) % c.repl.Replicas()
}

// floodLocate runs the transport flood for one locate. On a replicated
// transport it is the cluster's crash-tolerant locate path: replica
// families are tried in deterministic order from start (wrapping), each
// attempt charged its own flood, with the resolution depth and
// availability fed to the metrics. It returns the replica that
// answered.
func (c *Cluster) floodLocate(stripe int, client graph.NodeID, port core.Port, start int) (core.Entry, int, error) {
	if c.repl == nil {
		e, err := c.tr.Locate(client, port)
		return e, 0, err
	}
	if c.byz != nil {
		return c.voteLocate(stripe, client, port, start)
	}
	e, replica, err := locateFallthrough(c.repl, client, port, start)
	if err == nil {
		r := c.repl.Replicas()
		c.metrics.replicaDepth.Observe(stripe, (replica-start+r)%r)
	} else if errors.Is(err, core.ErrNotFound) {
		c.metrics.replicaDepth.Fail()
	}
	return e, replica, err
}

func (c *Cluster) locateCoalesced(stripe int, client graph.NodeID, port core.Port, start int) (core.Entry, int, error) {
	h := maphash.String(c.seed, string(port)) ^ uint64(client)*0x9e3779b97f4a7c15
	return c.locateFlight(stripe, h, client, port, start)
}

// locateFlight runs one coalesced locate under flight hash h: it joins
// the published flight of the same pair, or floods — as the owner of a
// fresh flight, or unshared when a colliding pair holds the stripe.
func (c *Cluster) locateFlight(stripe int, h uint64, client graph.NodeID, port core.Port, start int) (core.Entry, int, error) {
	f, joined := c.flights.join(h, client, port)
	if joined {
		f.mu.Lock() // blocks until the owner's broadcast unlock
		f.mu.Unlock()
		e, replica, err := f.entry, f.replica, f.err
		f.release()
		c.metrics.coalesced.Add(1)
		return e, replica, err
	}
	e, replica, err := c.floodLocate(stripe, client, port, start)
	if f != nil {
		f.entry, f.replica, f.err = e, replica, err
		c.flights.finish(h, f)
	}
	return e, replica, err
}

// join looks the pair up on h's stripe. It returns the pair's published
// flight with a reference taken (joined), or publishes a fresh flight
// the caller owns and must finish — nil when a different pair holds the
// stripe.
func (t *flightTable) join(h uint64, client graph.NodeID, port core.Port) (f *flight, joined bool) {
	st := &t.stripes[h&(flightStripes-1)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if f = st.f; f != nil {
		if f.client != client || f.port != port {
			return nil, false
		}
		f.refs.Add(1) // join before unpublish: guarded by st.mu
		return f, true
	}
	f = flightPool.Get().(*flight)
	f.client, f.port = client, port
	f.refs.Store(1)
	f.mu.Lock()
	st.f = f
	return f, false
}

// finish unpublishes the owner's flight f from h's stripe, wakes its
// waiters and drops the owner's reference.
func (t *flightTable) finish(h uint64, f *flight) {
	st := &t.stripes[h&(flightStripes-1)]
	st.mu.Lock()
	st.f = nil
	st.mu.Unlock()
	f.mu.Unlock()
	f.release()
}

// Submit enqueues an asynchronous locate on the owning shard's worker
// pool; cb (optional) receives the result on a worker goroutine. When
// the shard queue is full the request is shed immediately with
// ErrOverload — open-loop load beyond capacity fails fast instead of
// queueing without bound.
func (c *Cluster) Submit(client graph.NodeID, port core.Port, cb func(core.Entry, error)) error {
	stripe, ok := c.enter()
	if !ok {
		return ErrClosed
	}
	defer c.exit(stripe)
	c.pool.Do(c.startPool)
	queue := c.queues[maphash.String(c.seed, string(port))&uint64(len(c.queues)-1)]
	select {
	case queue <- task{client: client, port: port, cb: cb}:
		return nil
	default:
		c.metrics.shed.Add(1)
		return ErrOverload
	}
}

// LocateBatch resolves reqs[i] into res[i] (res must be at least as
// long as reqs) through the transport's batched path: one store port
// lookup per request and bulk pass accounting on the fast path. With
// hints enabled each request first tries its cached address; only the
// misses are forwarded as a sub-batch. Batched locates are not coalesced with
// concurrent single locates; every request is counted and timed in the
// metrics (each sampled request of a batch is timed from the batch's
// start to its own turn in the accounting that follows the batch's end,
// one clock read per sampled request).
func (c *Cluster) LocateBatch(reqs []LocateReq, res []LocateRes) error {
	stripe, ok := c.enter()
	if !ok {
		return ErrClosed
	}
	defer c.exit(stripe)
	n := len(reqs)
	if n > len(res) {
		return errors.New("cluster: LocateBatch result slice shorter than requests")
	}
	begin := time.Now()
	if c.pop != nil {
		for i := 0; i < n; i++ {
			c.pop.bump(reqs[i].Port)
		}
	}
	if c.hints == nil {
		if c.byz != nil {
			c.voteBatch(stripe, reqs, res[:n])
		} else {
			c.tr.LocateBatch(reqs, res[:n])
		}
	} else {
		sc := c.batchScratch.Get().(*clusterScratch)
		sc.reqs, sc.res, sc.idx = sc.reqs[:0], sc.res[:0], sc.idx[:0]
		sc.gens, sc.slots = sc.gens[:0], sc.slots[:0]
		for i := 0; i < n; i++ {
			if e, ok, _ := c.hintLocate(stripe, reqs[i].Client, reqs[i].Port); ok {
				res[i] = LocateRes{Entry: e}
				continue
			}
			gen, slot := c.genBefore(reqs[i].Port)
			sc.idx = append(sc.idx, i)
			sc.gens = append(sc.gens, gen)
			sc.slots = append(sc.slots, slot)
			sc.reqs = append(sc.reqs, reqs[i])
		}
		if len(sc.reqs) > 0 {
			if cap(sc.res) < len(sc.reqs) {
				sc.res = make([]LocateRes, len(sc.reqs))
			}
			sc.res = sc.res[:len(sc.reqs)]
			if c.byz != nil {
				c.voteBatch(stripe, sc.reqs, sc.res)
			} else {
				c.tr.LocateBatch(sc.reqs, sc.res)
			}
			for j, i := range sc.idx {
				res[i] = sc.res[j]
				if sc.res[j].Err == nil {
					// Batched floods fall through inside the transport,
					// which does not report the resolving replica; record
					// the hint under replica 0, the family the next
					// invalidation's wrap order starts after.
					c.hints.put(reqs[i].Client, reqs[i].Port, sc.res[j].Entry, sc.gens[j], sc.slots[j], 0)
				}
			}
		}
		c.batchScratch.Put(sc)
	}
	for i := 0; i < n; i++ {
		sampled := c.metrics.sampleLocate(stripe)
		c.metrics.observeLocate(stripe, begin, sampled, res[i].Err)
	}
	return nil
}

// PostBatch registers many servers in one transport operation and
// counts the postings.
func (c *Cluster) PostBatch(regs []Registration) ([]ServerRef, error) {
	stripe, ok := c.enter()
	if !ok {
		return nil, ErrClosed
	}
	defer c.exit(stripe)
	refs, err := c.tr.PostBatch(regs)
	c.metrics.posts.Add(int64(len(refs)))
	if c.opts.OnEvent != nil {
		for i, ref := range refs {
			if ref == nil {
				continue
			}
			c.opts.OnEvent(Event{Type: EvRegister, Port: ref.Port(), Node: ref.Node()})
			refs[i] = c.wrapRef(ref)
		}
	}
	return refs, err
}

// LocateAll resolves every live instance of port visible from client.
func (c *Cluster) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	stripe, ok := c.enter()
	if !ok {
		return nil, ErrClosed
	}
	defer c.exit(stripe)
	sampled := c.metrics.sampleLocate(stripe)
	begin := time.Now()
	out, err := c.tr.LocateAll(client, port)
	c.metrics.observeLocate(stripe, begin, sampled, err)
	return out, err
}

// Resize forwards an epoch transition to an elastic transport: next
// becomes the serving epoch, live servers re-post the minimal-movement
// delta, and locates keep succeeding throughout via the dual-epoch
// fallthrough. It returns the number of postings moved and fails with
// ErrNotElastic when the transport has no elastic membership.
func (c *Cluster) Resize(next *strategy.Epoch) (int, error) {
	stripe, ok := c.enter()
	if !ok {
		return 0, ErrClosed
	}
	defer c.exit(stripe)
	et, ok := c.tr.(ElasticTransport)
	if !ok {
		return 0, ErrNotElastic
	}
	moved, err := et.Resize(next)
	if err == nil && c.opts.OnEvent != nil {
		c.opts.OnEvent(Event{Type: EvEpoch, Epoch: et.Epoch()})
	}
	return moved, err
}

// FinishResize retires the previous epoch on an elastic transport once
// the migration is drained; see ElasticTransport.FinishResize.
func (c *Cluster) FinishResize() error {
	stripe, ok := c.enter()
	if !ok {
		return ErrClosed
	}
	defer c.exit(stripe)
	et, ok := c.tr.(ElasticTransport)
	if !ok {
		return ErrNotElastic
	}
	return et.FinishResize()
}

// Metrics returns a snapshot of the live serving metrics.
func (c *Cluster) Metrics() MetricsSnapshot {
	s := c.metrics.snapshot(c.tr)
	if c.byz != nil {
		s.VoteQuorum = c.voteQuorum()
		s.SuspectedNodes = c.suspectCount()
	}
	return s
}

// ResetMetrics zeroes the counters, the latency histogram and the
// transport pass baseline (useful to measure a steady-state window).
func (c *Cluster) ResetMetrics() { c.metrics.reset(c.tr) }

// enter admits one operation through the close gate and hands it its
// lane — the in-flight stripe it is counted on, which the operation
// passes to every striped metric and gives back to exit. Add first, then
// check closed, backing out if it is set. Close sets closed first and
// then reads the stripes; Go's atomics are sequentially consistent, so
// of an enter and a Close at least one sees the other's write — an
// operation is either counted before Close reads its stripe, and waited
// for, or sees closed and never starts.
func (c *Cluster) enter() (stripe int, ok bool) {
	stripe = c.lanes.Get()
	c.inflight.Add(stripe, 1)
	if c.closed.Load() {
		c.exit(stripe)
		return 0, false
	}
	return stripe, true
}

// exit leaves the gate on the stripe enter returned and gives the lane
// back; the exit that empties a stripe of a closing cluster wakes Close.
func (c *Cluster) exit(stripe int) {
	if c.inflight.Add(stripe, -1) == 0 && c.closed.Load() {
		select {
		case c.drained <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	c.lanes.Put(stripe)
}

// Close drains the worker pools and closes the transport. In-flight
// synchronous operations finish first (Close shuts the gate, then waits
// for every in-flight stripe to read zero), pending submissions are
// completed by the draining workers, and Submit and Locate fail with
// ErrClosed afterwards. A second Close is a no-op.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for c.inflight.Load() != 0 {
		<-c.drained
	}
	close(c.stopHot)
	c.pool.Do(func() {}) // no pool after Close; orders the read of queues after any start
	for _, queue := range c.queues {
		close(queue)
	}
	c.wg.Wait()
	return c.tr.Close()
}
