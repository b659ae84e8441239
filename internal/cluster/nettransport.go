package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
)

// NetTransport is the socket backend: the coordinator over node
// processes. The cluster's graph nodes are numbered in wire slots, the
// layout's query-local order (strategy.Epoch.QueryOrder), and the slots
// are partitioned into contiguous ranges, each range hosted by its own
// OS process (a NodeServer, usually cmd/mmnode) reached over TCP with
// the internal/netwire protocol. At r = 1 each client's query set is one
// block of slots, so a locate floods the one process hosting it (two
// when a range boundary cuts the block) while a posting reaches every
// process its posting set spans. Two transports over the same processes
// must be built from the same layout to place nodes alike. Rows and
// liveness records live in the node processes; the wire substrate fans
// every row operation out to the owning processes over pooled,
// pipelined connections, and the coordinator keeps the paper's cost
// accounting locally — the same code MemTransport runs, so the two
// backends give identical answers and identical pass counts on a
// healthy cluster (pinned, operation by operation, by the net
// equivalence tests).
//
// Partial failure is fail-silent, matching the crash model of the
// in-memory path: a node process that dies (kill -9, crash, network
// loss) makes every node it hosts behave like a crashed node — its
// postings drop, its rendezvous caches stop answering (silent misses,
// §1.5), and probes into it fail without an answer. The first observed
// process death bumps every hint generation, so cached addresses
// re-resolve by flooding instead of probing a black hole; a restarted
// process is redialed transparently on the next operation.
//
// Run many reading NetTransports if you like, but all registrations,
// migrations and crash events must flow through one instance (see
// coordinator).
type NetTransport struct {
	*coordinator
	wire *wireSubstrate
}

// NewNetTransport connects to a running node-process cluster at addrs
// (one address per process, in partition order) and verifies via the
// hello handshake that the processes cover the n wire slots of g in
// contiguous ranges. It serves strat at full, fixed membership; the
// strategy's universe must match the graph.
func NewNetTransport(g *graph.Graph, strat rendezvous.Strategy, addrs []string, opts NetOptions) (*NetTransport, error) {
	lay, err := FixedLayout(g.N(), strat, 1)
	if err != nil {
		return nil, err
	}
	return NewLayoutNetTransport(g, lay, addrs, opts)
}

// NewLayoutNetTransport is NewNetTransport serving lay. The set tables
// live on the coordinator — the node processes just store what they are
// sent — so every mode runs over the same processes. Replicated, a
// locate that gets no rendezvous answer — because the meeting nodes are
// marked crashed, or because the node process hosting them was killed —
// falls through to the next family instead of failing; combined with
// NetOptions.RepairInterval this is the crash-tolerance story of the
// socket cluster: fallthrough bridges the outage, repair restores the
// replication factor once the process comes back. Elastic,
// Resize/FinishResize run the dual-epoch migration over the wire with
// epoch garbage collection travelling as opExpire, and Rescale
// additionally repartitions the node space across a different process
// set with a coordinator-driven partition transfer.
func NewLayoutNetTransport(g *graph.Graph, lay Layout, addrs []string, opts NetOptions) (*NetTransport, error) {
	c, err := newCoordinator(g, lay)
	if err != nil {
		return nil, err
	}
	ws, err := dialWireSubstrate(addrs, lay.Epoch.QueryOrder(), opts, c.procDown)
	if err != nil {
		return nil, err
	}
	c.sub = ws
	if !opts.DisableCoalescing {
		c.coal = newNetCoalescer(c.flushLocates, opts.CoalesceBatch)
		ws.coal = newNetCoalescer(ws.flushProbes, opts.CoalesceBatch)
	}
	if opts.RepairInterval > 0 {
		ws.startRepair(opts.RepairInterval, c.repairRecovered)
	}
	if opts.ReconcileInterval > 0 {
		c.StartReconcile(opts.ReconcileInterval)
	}
	return &NetTransport{coordinator: c, wire: ws}, nil
}

// Procs returns the number of node processes behind the transport.
func (t *NetTransport) Procs() int { return len(t.wire.procs.Load().pools) }

// Addrs returns the current node-process addresses in partition order.
func (t *NetTransport) Addrs() []string { return slices.Clone(t.wire.procs.Load().addrs) }

// WireStats returns the transport's cumulative wire-level traffic
// totals (frames and bytes, both directions, across every node-process
// pool including post-Rescale sets). Wire traffic is an implementation
// vehicle — it is never charged as passes — but frames/locate and
// bytes/locate are the efficiency the coalescer and striping buy, so
// the totals are exposed for load tools to report.
func (t *NetTransport) WireStats() netwire.Stats { return t.wire.wire.Snapshot() }

// CoalesceStats reports the locate coalescer's work so far: locates
// that shared a wire flood with at least one other, and the number of
// those shared floods. Both zero when coalescing is disabled.
func (t *NetTransport) CoalesceStats() (coalesced, floods int64) {
	if t.coal == nil {
		return 0, 0
	}
	return t.coal.coalesced.Load(), t.coal.shared.Load()
}

// Rescale re-partitions the node space across a different node-process
// set: the new processes are dialed and handshaken, each new partition
// is filled by a coordinator-driven transfer from the old processes
// (postings including tombstones, liveness records, crash marks — see
// opSnapshot), and the process set is swapped atomically so operations
// in flight keep a consistent snapshot. The transfer moves state, not
// match-making traffic, so it charges no message passes; ranges whose
// donor died mid-transfer are rebuilt from the registration table
// instead (repairRange — charged like any repair re-post), which is
// what makes a kill -9 of a donor survivable at r ≥ 2. Old pools are
// closed after the swap; the old processes' lifecycle belongs to the
// orchestrator (mmctl scale drains them).
func (t *NetTransport) Rescale(newAddrs []string) error {
	ws := t.wire
	ws.rescaleMu.Lock()
	defer ws.rescaleMu.Unlock()
	nps, err := dialProcSet(newAddrs, t.g.N(), ws.opts, &ws.wire)
	if err != nil {
		return err
	}
	// Hold the lifecycle fence exclusively across the transfer and the
	// swap: a register/tombstone/migrate landing on an old process
	// after its partition was snapshotted would silently miss the new
	// set (a lost tombstone resurrects a deregistered server), so
	// lifecycle writes wait out the handoff instead.
	t.lifeMu.Lock()
	old := ws.procs.Load()
	lost := transferPartitions(old, nps)
	ws.procs.Store(nps)
	for _, r := range lost {
		t.repairRange(ws.hosts(r[0], r[1]))
	}
	t.lifeMu.Unlock()
	t.gens.bumpAll()
	old.close()
	return nil
}

// NetOptions tune a NetTransport.
type NetOptions struct {
	// ConnsPerProc is the number of connection stripes per node
	// process (default max(2, GOMAXPROCS), netwire.NewPool's default).
	// Each stripe pipelines any number of in-flight requests; striping
	// keeps hot shards from serializing behind one connection's write
	// lock.
	ConnsPerProc int
	// CallTimeout bounds each request round trip; 0 means wait until
	// the connection delivers or breaks. A kill -9'd peer breaks its
	// connections immediately, so the default is fine on loopback; set
	// a timeout when the network itself can black-hole traffic.
	CallTimeout time.Duration
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RepairInterval enables the background re-post repair loop: every
	// interval the transport hellos each node process, and when a
	// process observed dead answers again (it was restarted with its
	// volatile stores lost), every live registration is re-posted and
	// re-registered so the replication factor — and probe liveness — of
	// the recovered process's nodes is restored. Repair traffic is charged
	// like any other posting (the paper's §5 "services regularly poll
	// their rendezvous nodes" maintenance), so leave it zero (disabled)
	// when pinning pass-accounting equivalence against another
	// transport.
	RepairInterval time.Duration
	// ReconcileInterval enables the background anti-entropy loop: every
	// interval the transport runs one ReconcileRound — digest exchange
	// with every node process, diff repair where a row disagrees with
	// the registration ground truth. Digest traffic is free (§5
	// maintenance metadata, like opExpire); only actual repair re-posts
	// are charged, at their real multicast cost. Leave it zero
	// (disabled) when pinning pass-accounting equivalence against
	// another transport.
	ReconcileInterval time.Duration
	// CoalesceBatch caps how many concurrent locates coalesce into one
	// flood, and how many concurrent probes into one round of probe
	// frames (default 64): a bound on per-frame size and decode latency,
	// not on throughput — overflow simply starts the next flush.
	CoalesceBatch int
	// DisableCoalescing turns the wire coalescers off entirely: every
	// LocateReplica runs its own wire flood and every Probe its own
	// frame, as before netwire v2. Coalescing never changes answers or
	// pass charges (pinned by TestNetCoalescedEquivalence), so this is a
	// debugging escape hatch, not a correctness knob.
	DisableCoalescing bool
}

// wireSubstrate keeps rows, liveness records and armed lies in node
// processes: every substrate call is a fan-out of node-protocol frames
// to the processes owning the nodes involved. A process that cannot be
// reached is silence — the fail-silent crash semantics of the paper —
// and is remembered as down until a call succeeds again.
type wireSubstrate struct {
	// procs is the current process partition: pools, ownership and
	// health state behind one pointer, so Rescale can swap the whole
	// node-process set atomically while calls in flight keep a
	// consistent snapshot. rescaleMu serializes Rescale calls; opts
	// keeps the dial/timeout knobs rescales re-dial with.
	procs     atomic.Pointer[procSet]
	rescaleMu sync.Mutex
	opts      NetOptions

	// slot numbers the graph's nodes on the wire (node → slot) and node
	// is its inverse, the layout's QueryOrder: every process range,
	// record, snapshot and digest is in slots, so a process hosts whole
	// query sets (see at).
	slot, node []graph.NodeID

	// down reports the first failed call against a process after a
	// healthy period, with the wire slot range it owned.
	down func(lo, hi int)

	// Repair loop state (see startRepair), stopped by close.
	stopRepair chan struct{}
	repairWG   sync.WaitGroup

	// wire tallies frames/bytes across every pool the substrate ever
	// dials (including post-Rescale sets, which share it), so WireStats
	// deltas stay monotonic across repartitions.
	wire netwire.Counters

	// coal merges concurrent probes into shared opProbe frames (see
	// netCoalescer); nil with NetOptions.DisableCoalescing.
	coal *netCoalescer

	scratch sync.Pool // *netScratch
}

// dialWireSubstrate connects to the node processes (see dialProcSet),
// placing node order[s] at wire slot s.
func dialWireSubstrate(addrs []string, order []graph.NodeID, opts NetOptions, down func(lo, hi int)) (*wireSubstrate, error) {
	ws := &wireSubstrate{opts: opts, down: down, stopRepair: make(chan struct{})}
	ws.slot, ws.node = make([]graph.NodeID, len(order)), order
	for s, v := range order {
		ws.slot[v] = graph.NodeID(s)
	}
	ws.scratch.New = func() any { return &netScratch{} }
	ps, err := dialProcSet(addrs, len(order), opts, &ws.wire)
	if err != nil {
		return nil, err
	}
	ws.procs.Store(ps)
	return ws, nil
}

func (ws *wireSubstrate) kind() string { return "net" }

// at returns node v's wire slot and the process of ps hosting it: the
// one place a node id becomes a wire id.
func (ws *wireSubstrate) at(ps *procSet, v graph.NodeID) (graph.NodeID, int) {
	s := ws.slot[v]
	return s, ps.ownerOf[s]
}

// hosts reports whether a node sits in wire slots [lo, hi).
func (ws *wireSubstrate) hosts(lo, hi int) func(graph.NodeID) bool {
	return func(v graph.NodeID) bool { return int(ws.slot[v]) >= lo && int(ws.slot[v]) < hi }
}

// close stops the repair loop and closes the connection pools. The node
// processes keep running — their lifecycle belongs to cmd/mmctl (or
// whoever spawned them).
func (ws *wireSubstrate) close() {
	select {
	case <-ws.stopRepair:
	default:
		close(ws.stopRepair)
	}
	ws.repairWG.Wait()
	ws.procs.Load().close()
}

// netScratch is the pooled per-call workspace, one slot per process, so
// the steady-state fan-out path reuses everything it touches.
type netScratch struct{ procs []procScratch }

type procScratch struct {
	kidx []int32          // indices into the call's key list, in wire order
	req  []byte           // request body
	resp []byte           // response body
	call *netwire.Pending // in-flight handle (fanout)
	err  error            // call error
}

// status reads record j's byte off a per-record-status reply (opProbe,
// opRegister). A frame that failed, or a reply that stops short of the
// record, refuses it.
func (s *procScratch) status(j int) byte {
	if s.err != nil || j >= len(s.resp) {
		return stBadRequest
	}
	return s.resp[j]
}

// getScratch readies a pooled scratch for a fan-out over procs processes.
func (ws *wireSubstrate) getScratch(procs int) *netScratch {
	sc := ws.scratch.Get().(*netScratch)
	for len(sc.procs) < procs {
		sc.procs = append(sc.procs, procScratch{})
	}
	for p := range sc.procs[:procs] {
		ps := &sc.procs[p]
		ps.kidx, ps.req, ps.call, ps.err = ps.kidx[:0], ps.req[:0], nil, nil
	}
	return sc
}

// callProc issues one request to process p of snapshot ps and tracks
// its health: a failure marks the process down (see noteProcDown), and
// a later success clears the mark so a restarted process heals
// transparently.
func (ws *wireSubstrate) callProc(ps *procSet, p int, op byte, req, resp []byte) (byte, []byte, error) {
	st, body, err := ps.pools[p].Call(op, req, resp)
	if err != nil {
		ws.noteProcDown(ps, p)
		return 0, nil, err
	}
	ps.downP[p].Store(false)
	return st, body, err
}

// noteProcDown records a failed call against process p: the first
// failure after a healthy period is reported upward (the dead process
// may have hosted servers of any port) and marks the process for
// repair.
func (ws *wireSubstrate) noteProcDown(ps *procSet, p int) {
	if !ps.downP[p].Swap(true) {
		ps.needRepair[p].Store(true)
		ws.down(ps.ranges[p][0], ps.ranges[p][1])
	}
}

// startRepair launches the background repair loop: every interval it
// hellos each node process (detecting deaths that no foreground traffic
// has tripped over yet), and when a process that was observed dead
// answers again — a restart, with the rows and liveness records of its
// slot range lost — it calls repair with that range and the nodes it
// hosts, which re-registers every live server homed there and re-posts
// every live server whose posting set touches them, restoring the
// replication factor the crash ate.
func (ws *wireSubstrate) startRepair(interval time.Duration, repair func(lo, hi int, in func(graph.NodeID) bool)) {
	ws.repairWG.Add(1)
	go func() {
		defer ws.repairWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ws.stopRepair:
				return
			case <-tick.C:
			}
			// Reload the snapshot each tick so a Rescale's fresh process
			// set is picked up on the next round.
			ps := ws.procs.Load()
			for p := range ps.pools {
				// The hello both probes health and, via callProc, flips
				// the down/needRepair marks on a state change.
				_, _, err := ws.callProc(ps, p, opHello, nil, nil)
				if lo, hi := ps.ranges[p][0], ps.ranges[p][1]; err == nil && ps.needRepair[p].Swap(false) {
					repair(lo, hi, ws.hosts(lo, hi))
				}
			}
		}
	}()
}

// fanout issues one call per process with a non-empty request body,
// pipelined: every request is started before any response is awaited,
// so the wall-clock cost is the slowest peer's round trip, not the sum
// — and no goroutines or waitgroups are allocated, which is what keeps
// the locate hot path at zero heap allocations. Responses land in
// each slot's resp and errors in its err; calls to dead processes fail fast
// and are recorded, and the caller treats them as silence.
func (ws *wireSubstrate) fanout(ps *procSet, sc *netScratch, op byte) {
	for p := range ps.pools {
		s := &sc.procs[p]
		if len(s.req) == 0 {
			continue
		}
		if s.call, s.err = ps.pools[p].Start(op, s.req); s.err != nil {
			ws.noteProcDown(ps, p)
		}
	}
	for p := range ps.pools {
		s := &sc.procs[p]
		if s.call == nil {
			continue
		}
		st, body, err := s.call.Wait(s.resp[:0], ps.pools[p].CallTimeout)
		s.call = nil
		if err != nil {
			ws.noteProcDown(ps, p)
		} else {
			ps.downP[p].Store(false)
			if st != stOK {
				err = fmt.Errorf("cluster: %s op %d: status %d", ps.addrs[p], op, st)
			}
		}
		if body != nil {
			s.resp = body
		}
		s.err = err
	}
}

// post delivers the rows with one opPost frame per owning process.
func (ws *wireSubstrate) post(entries []core.Entry, rows []rowKey) {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	for _, r := range rows {
		w, p := ws.at(ps, r.node)
		s := &sc.procs[p]
		s.req = appendPosting(s.req, w, entries[r.req])
	}
	ws.fanout(ps, sc, opPost)
	ws.scratch.Put(sc)
}

// query groups fl's keys per owning process — one (port, nodeCount,
// nodes...) sub-request per request per process, the keys' wire order
// recorded in the process's kidx for decoding — and fans them out as op.
func (ws *wireSubstrate) query(ps *procSet, sc *netScratch, fl *flood, op byte) {
	for p := range ps.pools {
		s := &sc.procs[p]
		for lo, hi := 0, 0; lo < len(fl.keys); lo = hi {
			req := fl.keys[lo].req
			start := len(s.kidx)
			for hi = lo; hi < len(fl.keys) && fl.keys[hi].req == req; hi++ {
				if _, q := ws.at(ps, fl.keys[hi].node); q == p {
					s.kidx = append(s.kidx, int32(hi))
				}
			}
			if len(s.kidx) == start {
				continue
			}
			s.req = netwire.AppendString(s.req, string(fl.reqs[req].Port))
			s.req = netwire.AppendUvarint(s.req, uint64(len(s.kidx)-start))
			for _, i := range s.kidx[start:] {
				w, _ := ws.at(ps, fl.keys[i].node)
				s.req = netwire.AppendUvarint(s.req, uint64(w))
			}
		}
	}
	ws.fanout(ps, sc, op)
}

// readFreshest travels as opQuery (at most the freshest row per node)
// when unscoped and as opQueryAll when scoped — the node processes are
// family- and epoch-agnostic, so a scoped flood must see every
// candidate row per node and reduce them to the family's freshest
// itself; opQuery's reply is the same form with counts of 0 or 1. A dead
// process's nodes are silent misses.
func (ws *wireSubstrate) readFreshest(fl *flood) {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	op := opQuery
	if fl.scope.on() {
		op = opQueryAll
	}
	ws.query(ps, sc, fl, op)
	for p := range ps.pools {
		if len(sc.procs[p].kidx) == 0 || sc.procs[p].err != nil {
			continue
		}
		d := netwire.NewDec(sc.procs[p].resp)
		for _, i := range sc.procs[p].kidx {
			// The queried port is reused for the entries' port strings
			// (decodeEntryFor) so the hot path decodes without copying
			// out of the frame buffer.
			k, a := fl.keys[i], &fl.ans[i]
			for cnt := int(d.Uvarint()); cnt > 0; cnt-- {
				e := decodeEntryFor(&d, fl.reqs[k.req].Port)
				if d.Err() != nil {
					a.ok = false
					break
				}
				// "Holds entries, none of this family" is silence in
				// the model, and charged nothing.
				if fl.scope.admits(e.Addr, k.node) && (!a.ok || fresher(e, a.e)) {
					a.e, a.ok = e, true
				}
			}
		}
	}
	ws.scratch.Put(sc)
}

func (ws *wireSubstrate) readAll(fl *flood) {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	ws.query(ps, sc, fl, opQueryAll)
	for p := range ps.pools {
		if len(sc.procs[p].kidx) == 0 || sc.procs[p].err != nil {
			continue
		}
		d := netwire.NewDec(sc.procs[p].resp)
		for _, i := range sc.procs[p].kidx {
			k := fl.keys[i]
			for cnt := int(d.Uvarint()); cnt > 0; cnt-- {
				e := decodeEntryFor(&d, fl.reqs[k.req].Port)
				if d.Err() != nil {
					break
				}
				if fl.scope.admits(e.Addr, k.node) {
					fl.all = append(fl.all, keyedEntry{key: i, e: e})
				}
			}
		}
	}
	ws.scratch.Put(sc)
}

// probe asks the owner process of addr, which answers from its live
// table; an unreachable owner, or one that holds addr crashed, is
// silence. Concurrent probes share frames through the substrate's
// coalescer; without one a probe is a batch of one.
func (ws *wireSubstrate) probe(_ graph.NodeID, port core.Port, addr graph.NodeID, id uint64) probeAnswer {
	op := coalOpPool.Get().(*coalOp)
	defer coalOpPool.Put(op)
	op.node, op.port, op.id = addr, port, id
	if ws.coal != nil {
		ws.coal.do(op)
	} else {
		ws.flushProbes([]*coalOp{op})
	}
	return op.ans
}

// flushProbes executes one batch of probes: one opProbe frame per
// owning process, a (port, addr, id) record per probe, answered by one
// status byte each. A frame that cannot be delivered — or comes back
// short — is silence for every probe it leaves unanswered, and fanout
// reports the process down once.
func (ws *wireSubstrate) flushProbes(batch []*coalOp) {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	for i, op := range batch {
		w, p := ws.at(ps, op.node)
		s := &sc.procs[p]
		s.kidx = append(s.kidx, int32(i))
		s.req = netwire.AppendString(s.req, string(op.port))
		s.req = netwire.AppendUvarint(s.req, uint64(w))
		s.req = netwire.AppendUvarint(s.req, op.id)
	}
	ws.fanout(ps, sc, opProbe)
	for p := range ps.pools {
		s := &sc.procs[p]
		for j, i := range s.kidx {
			switch s.status(j) {
			case stOK:
				batch[i].ans = probeHit
			case stNotFound:
				batch[i].ans = probeMiss
			default: // crashed there, or no answer came back
				batch[i].ans = probeSilent
			}
		}
	}
	ws.scratch.Put(sc)
}

// register is one opRegister frame per owning process, a record per
// registration, answered by one status byte each. A move within one
// owner is a single overwrite; across owners the old record is dropped
// first, so a concurrent probe can at worst see a transient miss, never
// a stale confirmation.
func (ws *wireSubstrate) register(recs []liveReg) error {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	defer ws.scratch.Put(sc)
	for i, r := range recs {
		w, p := ws.at(ps, r.node)
		if r.from != noNode && ps.ownerOf[ws.slot[r.from]] != p {
			ws.deregister(r.id, r.from)
		}
		s := &sc.procs[p]
		s.kidx = append(s.kidx, int32(i))
		s.req = appendLiveRec(s.req, r.id, r.port, w)
	}
	ws.fanout(ps, sc, opRegister)
	var err error
	first := len(recs) // the earliest refused record so far
	for p := range ps.pools {
		s := &sc.procs[p]
		for j, i := range s.kidx {
			st := s.status(j)
			if int(i) >= first || st == stOK {
				continue
			}
			first = int(i)
			switch r := recs[i]; {
			case s.err != nil:
				err = fmt.Errorf("cluster: register %q at %d: %w", r.port, r.node, s.err)
			case st == stCrashed:
				err = fmt.Errorf("cluster: post %q from %d: %w", r.port, r.node, sim.ErrCrashed)
			default:
				err = fmt.Errorf("cluster: register %q at %d: status %d", r.port, r.node, st)
			}
		}
	}
	return err
}

func (ws *wireSubstrate) deregister(id uint64, node graph.NodeID) {
	ps := ws.procs.Load()
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendUvarint(*buf, id)
	*buf = req
	_, p := ws.at(ps, node)
	_, _, _ = ws.callProc(ps, p, opDeregister, req, nil)
}

// crash and restore deliver the mark to node's owner, which clears the
// node's volatile cache and stops (or resumes) answering for it; a dead
// process is already maximally crashed, so delivery failures are
// ignored.
func (ws *wireSubstrate) crash(node graph.NodeID)   { ws.mark(node, opCrash) }
func (ws *wireSubstrate) restore(node graph.NodeID) { ws.mark(node, opRestore) }

func (ws *wireSubstrate) mark(node graph.NodeID, op byte) {
	ps := ws.procs.Load()
	w, p := ws.at(ps, node)
	_, _, _ = ws.callProc(ps, p, op, netwire.AppendUvarint(nil, uint64(w)), nil)
}

func (ws *wireSubstrate) expire(rows []rowID) {
	ps := ws.procs.Load()
	sc := ws.getScratch(len(ps.pools))
	for _, r := range rows {
		var p int
		r.node, p = ws.at(ps, r.node)
		sc.procs[p].req = appendRowID(sc.procs[p].req, r)
	}
	ws.fanout(ps, sc, opExpire)
	ws.scratch.Put(sc)
}

// digests is one opDigest per live node process, summarizing every
// owned row in a single round trip, slot by slot; a dead process is a
// crashed range the repair loop handles, so its nodes stay unread.
func (ws *wireSubstrate) digests(dg []uint64, ok []bool) {
	ps := ws.procs.Load()
	for p := range ps.pools {
		if ps.downP[p].Load() {
			continue
		}
		lo, hi := ps.ranges[p][0], ps.ranges[p][1]
		st, body, err := ws.callProc(ps, p, opDigest, rangeReq(lo, hi), nil)
		if err != nil || st != stOK {
			continue
		}
		d := netwire.NewDec(body)
		for _, v := range ws.node[lo:hi] {
			dg[v] = d.Uvarint()
			ok[v] = d.Err() == nil
		}
	}
}

// dump pulls each node's full cached row (tombstones included) from
// its owning process via opSnapshot.
func (ws *wireSubstrate) dump(nodes []graph.NodeID) map[graph.NodeID][]core.Entry {
	ps := ws.procs.Load()
	out := make(map[graph.NodeID][]core.Entry, len(nodes))
	for _, v := range nodes {
		w, p := ws.at(ps, v)
		st, body, err := ws.callProc(ps, p, opSnapshot, rangeReq(int(w), int(w)+1), nil)
		if err != nil || st != stOK {
			continue
		}
		sections := netwire.NewDec(body)
		d := netwire.NewDec(sections.Bytes()) // the postings; the other sections are not rows
		var entries []core.Entry
		for d.Len() > 0 {
			_, e := decodePosting(&d) // node, always v
			entries = append(entries, e)
		}
		if sections.Err() == nil && d.Err() == nil {
			out[v] = entries
		}
	}
	return out
}

// rangeReq encodes the (lo, hi) body of opDigest and opSnapshot.
func rangeReq(lo, hi int) []byte {
	return netwire.AppendUvarint(netwire.AppendUvarint(nil, uint64(lo)), uint64(hi))
}

// corrupt ships the plan in plan order — two ops may name one row —
// each run of drops as opExpire frames, each run of raw injections as
// opCorrupt frames, and returns the first refusal or delivery error.
func (ws *wireSubstrate) corrupt(plan []corruptOp) (err error) {
	ps := ws.procs.Load()
	for lo, hi := 0, 0; lo < len(plan); lo = hi {
		sc, op := ws.getScratch(len(ps.pools)), opCorrupt
		if plan[lo].drop {
			op = opExpire
		}
		for hi = lo; hi < len(plan) && plan[hi].drop == plan[lo].drop; hi++ {
			c := plan[hi]
			w, p := ws.at(ps, c.node)
			s := &sc.procs[p]
			if c.drop {
				s.req = appendRowID(s.req, rowID{node: w, port: c.port, id: c.id})
			} else {
				s.req = appendPosting(s.req, w, c.e)
			}
		}
		ws.fanout(ps, sc, op)
		for p := range ps.pools {
			if err == nil {
				err = sc.procs[p].err
			}
		}
		ws.scratch.Put(sc)
	}
	return err
}

// arm ships one opArm frame to EVERY process — the frame replaces a
// process's whole plan, so processes with no lying nodes get an empty
// body that clears any stale plan from a previous arm.
func (ws *wireSubstrate) arm(plan []forgeOp) (err error) {
	ps := ws.procs.Load()
	reqs := make([][]byte, len(ps.pools))
	for _, op := range plan {
		var p int
		op.node, p = ws.at(ps, op.node)
		reqs[p] = appendForgeOp(reqs[p], op)
	}
	for p, req := range reqs {
		if _, _, e := ws.callProc(ps, p, opArm, req, nil); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// procSet is one immutable node-process partition of a NetTransport:
// the dialed connection pools, the slot→process ownership derived from
// the hello handshake, and the per-process health marks. Rescale swaps
// the whole set atomically; operations capture one snapshot and use it
// throughout, so a concurrent repartition can at worst make their
// calls fail fast against closed pools — the fail-silent crash
// semantics they already handle.
type procSet struct {
	addrs      []string
	pools      []*netwire.Pool
	ownerOf    []int         // wire slot -> owning process index
	ranges     [][2]int      // process index -> owned wire slots [lo, hi)
	downP      []atomic.Bool // observed-dead processes (sticky until a call succeeds)
	needRepair []atomic.Bool // process observed dead since its last repair
}

// newProcSet builds the pools for addrs over n nodes with no ownership
// yet (see own). Wire traffic is tallied into ctr when non-nil (the
// transport's long-lived counters, shared across rescales).
func newProcSet(addrs []string, n int, opts NetOptions, ctr *netwire.Counters) *procSet {
	ps := &procSet{
		addrs:      addrs,
		pools:      make([]*netwire.Pool, len(addrs)),
		ownerOf:    make([]int, n),
		ranges:     make([][2]int, len(addrs)),
		downP:      make([]atomic.Bool, len(addrs)),
		needRepair: make([]atomic.Bool, len(addrs)),
	}
	for i, addr := range addrs {
		p := netwire.NewPool(addr, opts.ConnsPerProc)
		if ctr != nil {
			p.UseCounters(ctr)
		}
		if opts.DialTimeout > 0 {
			p.DialTimeout = opts.DialTimeout
		}
		p.CallTimeout = opts.CallTimeout
		ps.pools[i] = p
	}
	return ps
}

// own records that process i owns [lo, hi), demanding the contiguous
// continuation of the ranges claimed so far (which end at next).
func (ps *procSet) own(i, lo, hi, next int) error {
	if lo != next || hi <= lo || hi > len(ps.ownerOf) {
		return fmt.Errorf("cluster: process %s owns [%d,%d), want contiguous from %d", ps.addrs[i], lo, hi, next)
	}
	for v := lo; v < hi; v++ {
		ps.ownerOf[v] = i
	}
	ps.ranges[i] = [2]int{lo, hi}
	return nil
}

// dialProcSet dials pools for addrs and verifies via the hello
// handshake that the processes cover the n wire slots in contiguous
// ranges.
// On any failure every pool is closed.
func dialProcSet(addrs []string, n int, opts NetOptions, ctr *netwire.Counters) (*procSet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: net transport needs at least one node-process address")
	}
	ps := newProcSet(addrs, n, opts, ctr)
	if err := ps.handshake(n); err != nil {
		ps.close()
		return nil, err
	}
	return ps, nil
}

// close releases every pool of the set.
func (ps *procSet) close() {
	for _, p := range ps.pools {
		p.Close()
	}
}

// handshake hellos every node process and builds the slot→process
// ownership table, demanding contiguous ranges that cover [0, n).
func (ps *procSet) handshake(n int) error {
	next := 0
	for i := range ps.pools {
		st, body, err := ps.pools[i].Call(opHello, nil, nil)
		if err != nil {
			return fmt.Errorf("cluster: hello %s: %w", ps.addrs[i], err)
		}
		if st != stOK {
			return fmt.Errorf("cluster: hello %s: status %d", ps.addrs[i], st)
		}
		d := netwire.NewDec(body)
		pn, lo, hi := int(d.Uvarint()), int(d.Uvarint()), int(d.Uvarint())
		if d.Err() != nil {
			return fmt.Errorf("cluster: hello %s: %w", ps.addrs[i], d.Err())
		}
		if pn != n {
			return fmt.Errorf("cluster: process %s built for n=%d, transport for n=%d", ps.addrs[i], pn, n)
		}
		if err := ps.own(i, lo, hi, next); err != nil {
			return err
		}
		next = hi
	}
	if next != n {
		return fmt.Errorf("cluster: processes cover [0,%d) of %d nodes", next, n)
	}
	return nil
}

// DonorProc names one old-set process for TransferPartitions: its
// address and the wire slot range [Lo, Hi) it owned. The range comes from
// the caller's records (mmctl's state file) rather than a hello
// handshake, so a donor that is already dead still has a well-defined
// range to report as lost.
type DonorProc struct {
	Addr   string
	Lo, Hi int
}

// TransferPartitions connects to an old and a new node-process set
// covering the same n nodes and copies every new process's partition
// from the old — the state-handoff step of a process rescale, usable
// standalone by orchestrators (mmctl scale) before they drain the old
// workers. It moves state, not match-making traffic, so nothing is
// charged. Unreachable donors are tolerated — including donors dead
// before the transfer starts: the wire slot ranges whose state could not
// be copied are returned, for the consuming transports' repair loops
// to rebuild by re-posting.
func TransferPartitions(old []DonorProc, newAddrs []string, n int, opts NetOptions) ([][2]int, error) {
	addrs := make([]string, len(old))
	for i, d := range old {
		addrs[i] = d.Addr
	}
	ops := newProcSet(addrs, n, opts, nil)
	defer ops.close()
	next := 0
	for i, d := range old {
		if err := ops.own(i, d.Lo, d.Hi, next); err != nil {
			return nil, fmt.Errorf("cluster: transfer: donor: %w", err)
		}
		next = d.Hi
	}
	if next != n {
		return nil, fmt.Errorf("cluster: transfer: donors cover [0,%d) of %d nodes", next, n)
	}
	nps, err := dialProcSet(newAddrs, n, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: transfer: new set: %w", err)
	}
	defer nps.close()
	return transferPartitions(ops, nps), nil
}

// transferPartitions fills every new process's partition from the old
// process set, chunked by overlapping donor range. Donor failures are
// tolerated: the affected ranges are returned for repair from the
// registration table.
func transferPartitions(old, nps *procSet) (lost [][2]int) {
	for q := range nps.pools {
		qlo, qhi := nps.ranges[q][0], nps.ranges[q][1]
		for p := range old.pools {
			lo, hi := max(qlo, old.ranges[p][0]), min(qhi, old.ranges[p][1])
			if hi <= lo {
				continue
			}
			if err := transferChunk(old, p, nps, q, lo, hi); err != nil {
				lost = append(lost, [2]int{lo, hi})
			}
		}
	}
	return lost
}

// transferChunk snapshots [lo, hi) from old process p and replays it
// onto new process q: postings first, then liveness records, then
// crash marks (whose handler clears the crashed nodes' just-copied
// stores, matching the volatile-loss semantics). Each section of the
// snapshot is already its replay frame's body, so a chunk is one frame
// out and at most three in, whatever it holds.
func transferChunk(old *procSet, p int, nps *procSet, q, lo, hi int) error {
	st, body, err := old.pools[p].Call(opSnapshot, rangeReq(lo, hi), nil)
	if err != nil {
		return err
	}
	if st != stOK {
		return fmt.Errorf("cluster: snapshot [%d,%d) from %s: status %d", lo, hi, old.addrs[p], st)
	}
	d := netwire.NewDec(body)
	sections := [...]struct {
		what string
		op   byte
		body []byte
	}{{"postings", opPost, d.Bytes()}, {"liveness", opRegister, d.Bytes()}, {"crash marks", opCrash, d.Bytes()}}
	if d.Err() != nil {
		return fmt.Errorf("cluster: snapshot [%d,%d) from %s: %w", lo, hi, old.addrs[p], d.Err())
	}
	for _, sec := range sections {
		if len(sec.body) == 0 {
			continue
		}
		// A transport failure wraps its cause; a delivered frame the
		// process refused names the status instead.
		st, sts, err := nps.pools[q].Call(sec.op, sec.body, nil)
		if err != nil {
			return fmt.Errorf("cluster: replay %s onto %s: %w", sec.what, nps.addrs[q], err)
		}
		if st != stOK {
			return fmt.Errorf("cluster: replay %s onto %s: status %d", sec.what, nps.addrs[q], st)
		}
		// A liveness record for a node q holds crashed is refused there, as
		// it would have been by a live register; any other refusal fails the
		// chunk. The other replies carry no statuses.
		if i := slices.IndexFunc(sts, func(st byte) bool { return st != stOK && st != stCrashed }); i >= 0 {
			return fmt.Errorf("cluster: replay %s onto %s: record %d: status %d", sec.what, nps.addrs[q], i, sts[i])
		}
	}
	return nil
}
