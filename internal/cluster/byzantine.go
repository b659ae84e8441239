package cluster

import (
	"math/rand"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Byzantine rendezvous: lying nodes, not just corrupted state.
//
// The anti-entropy layer heals a rendezvous node whose *stored* state
// went wrong, but only after the fact — a node that actively answers
// query floods with fabricated entries is never caught at locate time,
// and r-fold replication alone does not help: the fallthrough accepts
// the first family's answer, so one liar in family 0 poisons every
// locate that reaches it. This file is the adversary's half of the
// Byzantine harness: a deterministic, seeded planner (the same
// discipline as CorruptOptions) that arms a chosen number of rendezvous
// nodes to forge locate answers in four classes. The defence — quorum
// answer voting across replica families, with disagreeing nodes
// quarantined — lives in Cluster (Options.VoteQuorum); tolerating f
// liars needs r ≥ 2f+1 families, because a liar corrupts at most the
// families whose filter its forged address passes, and maximally
// disjoint families give each armed node at most one (see
// DESIGN.md §Byzantine).

// ForgeClass selects one lying behaviour for ArmOptions.
type ForgeClass int

// The forgery classes of the Byzantine harness. Each models a distinct
// way a rendezvous node can lie in its *answers* while its stored state
// stays perfectly healthy — which is exactly why anti-entropy digests
// never notice.
const (
	// ForgeFabricate answers with a server instance that never existed:
	// a fresh instance id (offset by forgeIDBase) at a plausible but
	// wrong address.
	ForgeFabricate ForgeClass = iota
	// ForgeStale resurrects a real instance at the wrong address — the
	// answer a node would give if it replayed a retired posting it was
	// told to forget.
	ForgeStale
	// ForgeWrongPort echoes a record under a different port name than
	// the one queried — a misdirection that keeps the true address.
	ForgeWrongPort
	// ForgeSilence refuses to answer queries it could serve — selective
	// silence, indistinguishable on the wire from a §1.5 miss.
	ForgeSilence
)

// forgedTime is the poisoned logical timestamp every forged answer
// carries: far above the honest posting clocks, so the lie wins its
// family's freshest-entry reduction against any honest co-member, yet
// distinct from corruptMaskTime (1<<62) so the two harnesses cannot be
// confused in a trace.
const forgedTime = uint64(1) << 61

// forgeIDBase offsets fabricated instance ids far above anything the
// transports' server-id counters reach, so a fabricated instance can
// never collide with — or be probed as — a real registration.
const forgeIDBase = uint64(1) << 40

// ForgedIDBase and ForgedTime export the adversary's markers for
// harnesses (mmload, mmctl chaos) that judge surfaced answers against
// registration ground truth: an instance id at or above ForgedIDBase
// can only have come from a fabricated lie, and ForgedTime is the
// poisoned timestamp every forged entry carries.
const (
	ForgedIDBase = forgeIDBase
	ForgedTime   = forgedTime
)

// ArmOptions parameterizes the answer-forging adversary. Equal options
// over equal registration tables arm identical nodes with identical
// lies on every transport — the determinism the sim=mem=net voting
// equivalence gates rely on.
type ArmOptions struct {
	// Seed seeds the deterministic plan builder.
	Seed int64
	// Liars is the number of distinct rendezvous nodes to arm (the f of
	// r ≥ 2f+1). Zero arms nothing.
	Liars int
	// Classes restricts the forgery classes drawn; empty means all four.
	Classes []ForgeClass
}

// forgeRec is one armed lie: when the node is queried for the record's
// port, it either stays silent or answers with the forged entry instead
// of consulting its (healthy) store.
type forgeRec struct {
	silent bool
	e      core.Entry
}

// forgeOp is one transport-agnostic arming action: install rec as
// node's answer for queries about port.
type forgeOp struct {
	node graph.NodeID
	port core.Port
	rec  forgeRec
}

// forgeTable is the armed state a transport's locate path consults:
// per lying node, the lie to tell per queried port. Tables are
// immutable once built; transports swap them atomically.
type forgeTable map[graph.NodeID]map[core.Port]forgeRec

// lieFor returns node's armed lie for port, if any.
func (ft forgeTable) lieFor(node graph.NodeID, port core.Port) (forgeRec, bool) {
	byPort, ok := ft[node]
	if !ok {
		return forgeRec{}, false
	}
	rec, ok := byPort[port]
	return rec, ok
}

// nodes returns the armed nodes in ascending order.
func (ft forgeTable) nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(ft))
	for v := range ft {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// buildForgeTable folds a plan into the lookup table the locate paths
// read. Later ops for the same (node, port) win, matching the order the
// plan builder emits.
func buildForgeTable(plan []forgeOp) forgeTable {
	if len(plan) == 0 {
		return nil
	}
	ft := make(forgeTable)
	for _, op := range plan {
		byPort := ft[op.node]
		if byPort == nil {
			byPort = make(map[core.Port]forgeRec, 4)
			ft[op.node] = byPort
		}
		byPort[op.port] = op.rec
	}
	return ft
}

// buildForgePlan derives a deterministic forgery plan from opts and the
// registration ground truth (regs sorted by instance id, exactly as
// buildCorruptPlan's callers prepare them). n is the graph size; in is
// the geometry the transport family-scopes its reads with (nil when
// they are unscoped), used to pick forged addresses that pass the
// family filter of the family the liar honestly serves — a lie the
// filter discards would be no lie at all, on any transport that has a
// filter. Each armed node draws one class and lies about every port whose
// posting it holds, so the liar is consistent: the same wrong answer to
// every client, which is the hardest case for voting (a flaky liar is
// outvoted even at q=2).
func buildForgePlan(opts ArmOptions, regs []corruptReg, n int, in familyGeometry) []forgeOp {
	if opts.Liars <= 0 || len(regs) == 0 || n <= 0 {
		return nil
	}
	classes := opts.Classes
	if len(classes) == 0 {
		classes = []ForgeClass{ForgeFabricate, ForgeStale, ForgeWrongPort, ForgeSilence}
	}
	// Eligible liars are the nodes holding at least one live posting —
	// the nodes whose answers clients actually consume.
	seen := make(map[graph.NodeID]bool)
	var eligible []graph.NodeID
	for _, r := range regs {
		for _, v := range r.targets {
			if !seen[v] {
				seen[v] = true
				eligible = append(eligible, v)
			}
		}
	}
	slices.Sort(eligible)
	rng := rand.New(rand.NewSource(opts.Seed))
	liars := opts.Liars
	if liars > len(eligible) {
		liars = len(eligible)
	}
	var plan []forgeOp
	for l := 0; l < liars; l++ {
		i := rng.Intn(len(eligible))
		v := eligible[i]
		eligible = append(eligible[:i], eligible[i+1:]...)
		class := classes[rng.Intn(len(classes))]
		for _, r := range regs {
			if !slices.Contains(r.targets, v) {
				continue
			}
			var rec forgeRec
			switch class {
			case ForgeSilence:
				rec.silent = true
			case ForgeFabricate:
				rec.e = core.Entry{
					Port: r.port, Addr: forgeAddr(in, r.node, v, n),
					ServerID: forgeIDBase + r.id, Time: forgedTime, Active: true,
				}
			case ForgeStale:
				rec.e = core.Entry{
					Port: r.port, Addr: forgeAddr(in, r.node, v, n),
					ServerID: r.id, Time: forgedTime, Active: true,
				}
			case ForgeWrongPort:
				rec.e = core.Entry{
					Port: wrongPort(regs, r.port), Addr: r.node,
					ServerID: r.id, Time: forgedTime, Active: true,
				}
			}
			plan = append(plan, forgeOp{node: v, port: r.port, rec: rec})
		}
	}
	return plan
}

// forgeAddr picks the address a fabricated or stale lie advertises: a
// node other than the honest home that still passes the family filter
// of the (first) family under which the liar holds home's posting —
// the filter is InPost(k, addr, liar), so the forged address must keep
// the liar inside the claimed origin's family-k posting set or every
// transport would silently discard the lie. Where reads are unscoped
// there is no filter and any wrong address serves.
func forgeAddr(in familyGeometry, home, liar graph.NodeID, n int) graph.NodeID {
	if in == nil {
		return graph.NodeID((int(home) + 1) % n)
	}
	k := -1
	for f := 0; f < in.Replicas(); f++ {
		if in.InPost(f, home, liar) {
			k = f
			break
		}
	}
	if k < 0 {
		return graph.NodeID((int(home) + 1) % n)
	}
	for d := 1; d < n; d++ {
		a := graph.NodeID((int(home) + d) % n)
		if in.InPost(k, a, liar) {
			return a
		}
	}
	// Degenerate strategy where only home itself passes: lie about the
	// instance instead of the address (the fabricate class still forges
	// the id).
	return home
}

// wrongPort picks the port name a wrong-port echo answers with: another
// registered port when one exists (the realistic cross-wiring), or a
// synthesized name no server registered.
func wrongPort(regs []corruptReg, queried core.Port) core.Port {
	for _, o := range regs {
		if o.port != queried {
			return o.port
		}
	}
	return queried + "?echo"
}

// ByzantineTransport is implemented by replicated transports that
// support the answer-forging adversary and the attributed locates the
// cluster's voting mode needs.
type ByzantineTransport interface {
	ReplicatedTransport
	// Arm installs the deterministic forgery plan derived from opts on
	// the live rendezvous substrate and returns the number of lies
	// installed (one per armed node per port it holds). Arming replaces
	// any previous plan and bumps every hint generation — cached
	// addresses must re-verify against a newly hostile cluster.
	Arm(opts ArmOptions) (int, error)
	// Disarm removes every armed lie.
	Disarm() error
	// ArmedNodes returns the currently armed nodes in ascending order
	// (nil when disarmed).
	ArmedNodes() []graph.NodeID
	// LocateReplicaAt is LocateReplica with attribution: it additionally
	// returns the rendezvous node whose answer won the family's
	// freshest-entry reduction — the node a disagreeing vote quarantines.
	// The charge is identical to LocateReplica's.
	LocateReplicaAt(client graph.NodeID, port core.Port, replica int) (core.Entry, graph.NodeID, error)
	// Quarantine marks node suspect after a lost vote: every hint
	// generation is bumped so no cached address resolved through the
	// node survives. The node keeps serving — exclusion is the
	// cluster's job (it re-quarantines on the next disagreement until
	// anti-entropy re-verifies the node's rows).
	Quarantine(node graph.NodeID)
}

// Arm implements ByzantineTransport: it derives the deterministic
// forgery plan from the live registration table (the same ground truth,
// in the same order, as the anti-entropy corruption injector uses) and
// hands it to the substrate, whose armed nodes answer floods with the
// forged entry — or silence — instead of consulting their rows. The
// lies are aimed at the serving epoch's read filter. Every hint
// generation is bumped — cached addresses must re-verify against the
// newly hostile cluster.
func (c *coordinator) Arm(opts ArmOptions) (int, error) {
	plan := buildForgePlan(opts, c.corruptRegs(), c.g.N(), c.readScope(c.table.Load().ep))
	err := c.sub.arm(plan)
	ft := buildForgeTable(plan)
	c.forge.Store(&ft)
	c.gens.bumpAll()
	return len(plan), err
}

// Disarm implements ByzantineTransport.
func (c *coordinator) Disarm() error {
	err := c.sub.arm(nil)
	c.forge.Store(nil)
	c.gens.bumpAll()
	return err
}

// ArmedNodes implements ByzantineTransport.
func (c *coordinator) ArmedNodes() []graph.NodeID {
	if p := c.forge.Load(); p != nil {
		return p.nodes()
	}
	return nil
}

// Quarantine implements ByzantineTransport: hint invalidation only —
// the node keeps serving (and keeps lying if armed); the cluster's
// suspect set is what steers votes and re-quarantines repeat offenders.
func (c *coordinator) Quarantine(graph.NodeID) {
	c.gens.bumpAll()
}
