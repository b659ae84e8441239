package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Anti-entropy: the self-stabilization layer over posting state.
//
// The repair loop of PR 4 heals what it can observe — a process death.
// A rendezvous node holding silently corrupted state (a dropped
// posting, a duplicate parked at the wrong node, a stale address from a
// retired epoch, a bit-flipped entry with a poisoned timestamp) is
// never touched by it, and the §2.1 merge rule actively protects the
// poison: a corrupt entry carrying a huge logical timestamp masks every
// honest re-post. Anti-entropy closes that gap. Each reconciliation
// round compares, per rendezvous node, a cheap xor digest of the node's
// active postings against the digest the live registration table says
// the node should hold; only mismatched rows are dumped and diffed, and
// only the diff is repaired — unexpected entries expire in place (a
// local decision, no messages, like epoch garbage collection), missing
// or wrong entries are dropped first (clearing any masking timestamp)
// and then re-posted per server at the diff targets' real
// multicast-tree cost. Digest exchange itself is the §5 "services
// regularly poll their rendezvous nodes" maintenance metadata and
// charges no passes, so a quiescent loop is free and the sim=mem=net
// equivalence gates keep pinning the cost model: all three transports
// charge exactly the same repair traffic for the same corruption.

// postingDigest is the stable per-entry summary the anti-entropy layer
// xors into a node's row digest: FNV-1a over the port bytes, the server
// instance id and the advertised address. Timestamps are deliberately
// excluded — an entry with the right (port, instance, address) is
// correct state no matter when it was posted — and tombstones never
// contribute, so legitimate deregistration and migration tombstones are
// invisible to reconciliation.
func postingDigest(port core.Port, serverID uint64, addr graph.NodeID) uint64 {
	h := portHash(port)
	for i := 0; i < 8; i++ {
		h ^= (serverID >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	a := uint64(addr)
	for i := 0; i < 8; i++ {
		h ^= (a >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// ReconcileStats is a snapshot of a transport's anti-entropy counters
// since construction (Metrics windows them per run).
type ReconcileStats struct {
	// Rounds is the number of completed reconciliation rounds.
	Rounds int64
	// Repaired counts repair actions taken: every posting dropped,
	// expired or re-posted because a digest row disagreed with the
	// registration ground truth.
	Repaired int64
	// Injected counts corruption operations applied through Corrupt.
	Injected int64
}

// AntiEntropyTransport is implemented by transports with the
// self-stabilizing posting layer: a digest-based reconciliation round,
// an adversarial corruption injector for chaos testing, and a
// background loop driving rounds until Close.
type AntiEntropyTransport interface {
	// ReconcileRound runs one full reconciliation pass over every
	// non-crashed rendezvous node and returns the number of repair
	// actions it took (0 means the round found posting state already
	// converged). Repair re-posts are charged at their real
	// multicast-tree cost; digest checks and local expiries are free.
	ReconcileRound() (int, error)
	// Corrupt applies an adversarial corruption plan to the posting
	// state and returns the number of operations injected. The plan is
	// derived deterministically from opts, so equal options corrupt
	// equal clusters identically across transports.
	Corrupt(opts CorruptOptions) (int, error)
	// StartReconcile launches the background reconciliation loop with
	// the given period; it is stopped by Close. Calling it again
	// replaces the previous loop.
	StartReconcile(interval time.Duration)
	// ReconcileStats returns the anti-entropy counters.
	ReconcileStats() ReconcileStats
}

// CorruptClass selects one adversarial corruption behaviour for
// CorruptOptions.
type CorruptClass int

// The corruption classes of the chaos harness. Each models a distinct
// way rendezvous state silently diverges from the P(s) ground truth.
const (
	// CorruptDrop silently removes a posting from one of its rendezvous
	// nodes — the node "forgot" the server.
	CorruptDrop CorruptClass = iota
	// CorruptDuplicate parks a copy of a live posting at a node outside
	// the server's posting set — an orphan that answers queries it
	// should never see.
	CorruptDuplicate
	// CorruptStale rewrites a posting at one of its rendezvous nodes to
	// an old address with an ancient timestamp — the retired-epoch
	// leftover of an unobserved migration.
	CorruptStale
	// CorruptBitFlip rewrites a posting's address to a bit-flipped
	// value and poisons its timestamp with a huge logical time, so the
	// §2.1 merge rule shields the corruption from honest re-posts.
	CorruptBitFlip
)

// corruptMaskTime is the poisoned logical timestamp of CorruptBitFlip
// entries: far above anything the posting clocks reach, so only an
// explicit drop (never a merge) can displace the entry.
const corruptMaskTime = uint64(1) << 62

// CorruptOptions parameterizes the adversarial corruption injector.
type CorruptOptions struct {
	// Seed seeds the deterministic plan builder; equal seeds over equal
	// registration tables produce identical corruption on every
	// transport.
	Seed int64
	// Count is the number of corruption operations to inject (0 injects
	// nothing).
	Count int
	// Classes restricts the injected classes; empty means all four.
	Classes []CorruptClass
}

// corruptReg is the registration ground truth the plan builder draws
// victims from: one live server instance and its current posting
// targets.
type corruptReg struct {
	port    core.Port
	id      uint64
	node    graph.NodeID
	targets []graph.NodeID
}

// corruptOp is one transport-agnostic corruption action: either drop
// the (port, id) posting cached at node, or force-inject e at node.
type corruptOp struct {
	node graph.NodeID
	drop bool
	port core.Port
	id   uint64
	e    core.Entry
}

// buildCorruptPlan derives a deterministic corruption plan from opts
// and the registration ground truth. n is the graph size (orphan
// placement draws from it). Injected entries use fixed timestamps
// (ancient for stale, poisoned for bit-flips), so the plan — and hence
// the repair work — is identical across transports.
func buildCorruptPlan(opts CorruptOptions, regs []corruptReg, n int) []corruptOp {
	if opts.Count <= 0 || len(regs) == 0 || n <= 0 {
		return nil
	}
	classes := opts.Classes
	if len(classes) == 0 {
		classes = []CorruptClass{CorruptDrop, CorruptDuplicate, CorruptStale, CorruptBitFlip}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	plan := make([]corruptOp, 0, opts.Count)
	// The iteration cap bounds the loop when a class cannot apply at all
	// — e.g. orphan placement under a broadcast strategy whose posting
	// sets cover every node — so the builder degrades to a short plan
	// instead of spinning.
	for iter := 0; len(plan) < opts.Count && iter < opts.Count*16+64; iter++ {
		r := regs[rng.Intn(len(regs))]
		if len(r.targets) == 0 {
			continue
		}
		v := r.targets[rng.Intn(len(r.targets))]
		switch classes[rng.Intn(len(classes))] {
		case CorruptDrop:
			plan = append(plan, corruptOp{node: v, drop: true, port: r.port, id: r.id})
		case CorruptDuplicate:
			// Park the orphan at a node outside the posting set.
			w := graph.NodeID(rng.Intn(n))
			retry := 0
			for slices.Contains(r.targets, w) && retry < 8 {
				w = graph.NodeID(rng.Intn(n))
				retry++
			}
			if slices.Contains(r.targets, w) {
				continue // tiny graph fully covered; try another victim
			}
			plan = append(plan, corruptOp{node: w, e: core.Entry{
				Port: r.port, Addr: r.node, ServerID: r.id, Time: 2, Active: true,
			}})
		case CorruptStale:
			plan = append(plan, corruptOp{node: v, e: core.Entry{
				Port: r.port, Addr: graph.NodeID((int(r.node) + 1) % n), ServerID: r.id, Time: 1, Active: true,
			}})
		case CorruptBitFlip:
			plan = append(plan, corruptOp{node: v, e: core.Entry{
				Port: r.port, Addr: graph.NodeID(int(r.node) ^ 1), ServerID: r.id, Time: corruptMaskTime, Active: true,
			}})
		}
	}
	return plan
}

// expectedRow is a node's ground-truth posting row keyed by (port,
// instance): what reconciliation diffs a dumped actual row against.
type expectedRow map[core.Port]map[uint64]graph.NodeID

func (r expectedRow) add(port core.Port, id uint64, addr graph.NodeID) {
	byID := r[port]
	if byID == nil {
		byID = make(map[uint64]graph.NodeID, 1)
		r[port] = byID
	}
	byID[id] = addr
}

// digest xors the row into the node digest the ground truth predicts.
func (r expectedRow) digest() uint64 {
	var d uint64
	for port, byID := range r {
		for id, addr := range byID {
			d ^= postingDigest(port, id, addr)
		}
	}
	return d
}

// rowDiff diffs a dumped actual row against the expected ground truth
// for one node and reports what repair must do there: entries to drop
// in place (orphans, wrong addresses, masking timestamps) and the
// (port, id) pairs whose honest posting must be re-posted to this node.
// Tombstones and inactive entries in actual are ignored — they are
// legitimate state (deregistration, migration GC) and never contribute
// to digests.
func rowDiff(expected expectedRow, actual []core.Entry) (drops []expectedPair, reposts []expectedPair) {
	seen := make(map[expectedPair]graph.NodeID, len(actual))
	for _, e := range actual {
		if !e.Active {
			continue
		}
		seen[expectedPair{port: e.Port, id: e.ServerID}] = e.Addr
	}
	for pair, addr := range seen {
		want, ok := expected[pair.port][pair.id]
		if !ok {
			// Orphan: nothing should be cached here for this instance.
			drops = append(drops, pair)
			continue
		}
		if addr != want {
			// Stale or bit-flipped address: drop first so a poisoned
			// timestamp cannot mask the honest re-post, then re-post.
			drops = append(drops, pair)
			reposts = append(reposts, pair)
		}
	}
	for port, byID := range expected {
		for id := range byID {
			if _, ok := seen[expectedPair{port: port, id: id}]; !ok {
				// Missing: drop clears any masking tombstone, then
				// re-post restores the entry.
				drops = append(drops, expectedPair{port: port, id: id})
				reposts = append(reposts, expectedPair{port: port, id: id})
			}
		}
	}
	return drops, reposts
}

// expectedPair identifies one (port, server instance) posting.
type expectedPair struct {
	port core.Port
	id   uint64
}

// reconciler holds the anti-entropy counters and background-loop state
// a transport embeds. Counters are cumulative since construction;
// Metrics windows them per run.
type reconciler struct {
	rounds   atomic.Int64
	repaired atomic.Int64
	injected atomic.Int64

	loopMu sync.Mutex
	stop   chan struct{}
	wg     sync.WaitGroup
}

// stats snapshots the counters.
func (r *reconciler) stats() ReconcileStats {
	return ReconcileStats{
		Rounds:   r.rounds.Load(),
		Repaired: r.repaired.Load(),
		Injected: r.injected.Load(),
	}
}

// startLoop launches (or replaces) the background loop running round
// every interval; errors are ignored — a round racing shutdown or a
// resize simply retries next tick.
func (r *reconciler) startLoop(interval time.Duration, round func() (int, error)) {
	if interval <= 0 {
		return
	}
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.haltLocked()
	stop := make(chan struct{})
	r.stop = stop
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = round()
			}
		}
	}()
}

// halt stops the background loop, if any, and waits for it.
func (r *reconciler) halt() {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.haltLocked()
}

func (r *reconciler) haltLocked() {
	if r.stop != nil {
		close(r.stop)
		r.wg.Wait()
		r.stop = nil
	}
}

// ReconcileRound implements AntiEntropyTransport: it snapshots the live
// registration table, predicts every node's posting row from the
// current (possibly dual-epoch) set tables, asks the substrate for the
// per-node digests (free — §5 maintenance metadata), and dumps, diffs
// and repairs only the rows that disagree — orphans and wrong entries
// expire in place for free, missing honest postings are re-posted per
// server at the diff targets' multicast-tree cost. Nodes the substrate
// cannot read (a dead process's range) are left to the repair loop.
// Taking resizeMu serializes the round against Resize/FinishResize, so
// the ground truth never shifts epochs mid-diff.
func (c *coordinator) ReconcileRound() (int, error) {
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()

	live := c.liveServers()
	expected := make(map[graph.NodeID]expectedRow)
	for _, ls := range live {
		targets, _ := c.postSets(ls.srv, ls.node)
		for _, v := range targets {
			if c.crashed[v].Load() {
				continue
			}
			row := expected[v]
			if row == nil {
				row = make(expectedRow)
				expected[v] = row
			}
			row.add(ls.srv.port, ls.srv.id, ls.node)
		}
	}

	n := c.g.N()
	dg, readable := make([]uint64, n), make([]bool, n)
	c.sub.digests(dg, readable)
	var mismatched []graph.NodeID
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		if readable[v] && !c.crashed[v].Load() && dg[v] != expected[node].digest() {
			mismatched = append(mismatched, node)
		}
	}

	repaired := 0
	reposts := make(map[expectedPair][]graph.NodeID)
	ports := make(map[core.Port]struct{})
	var expires []rowID
	rows := c.sub.dump(mismatched)
	for _, v := range mismatched {
		actual, ok := rows[v]
		if !ok {
			continue
		}
		drops, reps := rowDiff(expected[v], actual)
		for _, p := range drops {
			expires = append(expires, rowID{node: v, port: p.port, id: p.id})
			ports[p.port] = struct{}{}
			repaired++
		}
		for _, p := range reps {
			reposts[p] = append(reposts[p], v)
		}
	}
	c.sub.expire(expires)
	for _, ls := range live {
		vs := reposts[expectedPair{port: ls.srv.port, id: ls.srv.id}]
		if len(vs) == 0 {
			continue
		}
		// A crashed honest origin cannot re-post; the posting heals
		// after restore.
		placed, _ := c.repostLocked(ls.srv, ls.node, func(graph.NodeID) []graph.NodeID { return vs })
		if placed > 0 {
			ports[ls.srv.port] = struct{}{}
			repaired += placed
		}
	}
	for port := range ports {
		c.gens.bump(port)
	}
	c.recon.rounds.Add(1)
	c.recon.repaired.Add(int64(repaired))
	return repaired, nil
}

// corruptRegs snapshots the registration ground truth the corruption
// and forgery plan builders draw from, in instance-id order (see
// liveServersLocked) so equal seeds build identical plans on every
// transport.
func (c *coordinator) corruptRegs() []corruptReg {
	live := c.liveServers()
	regs := make([]corruptReg, 0, len(live))
	for _, ls := range live {
		if c.crashed[ls.node].Load() {
			continue
		}
		targets, _ := c.postSets(ls.srv, ls.node)
		regs = append(regs, corruptReg{port: ls.srv.port, id: ls.srv.id, node: ls.node, targets: targets})
	}
	return regs
}

// Corrupt implements AntiEntropyTransport: the deterministic
// adversarial plan goes straight to the rows, bypassing the §2.1 merge
// rule, and every hint generation is bumped — corrupted rendezvous rows
// may have changed any port's freshest winner.
func (c *coordinator) Corrupt(opts CorruptOptions) (int, error) {
	plan := buildCorruptPlan(opts, c.corruptRegs(), c.g.N())
	if len(plan) == 0 {
		return 0, nil
	}
	err := c.sub.corrupt(plan)
	c.recon.injected.Add(int64(len(plan)))
	c.gens.bumpAll()
	return len(plan), err
}

// StartReconcile implements AntiEntropyTransport.
func (c *coordinator) StartReconcile(interval time.Duration) {
	c.recon.startLoop(interval, c.ReconcileRound)
}

// ReconcileStats implements AntiEntropyTransport.
func (c *coordinator) ReconcileStats() ReconcileStats { return c.recon.stats() }
