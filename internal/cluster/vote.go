package cluster

import (
	"errors"
	"fmt"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Answer voting: the cluster's Byzantine-tolerant locate path. The
// crash model's replica fallthrough trusts the first family that
// answers — correct when nodes can only fail silently, and exactly
// wrong when a node can lie: a forged reply in family 0 ends the
// fallthrough before any honest family is heard. With a vote quorum
// configured (Options.VoteQuorum, on a transport exposing answerer
// identity via ByzantineTransport) a locate instead floods q replica
// families, tallies their claims by (address, instance), and believes
// only a strict majority. Every flood is charged honestly — voting
// buys integrity with q× the locate traffic, measured in EXPERIMENTS.
//
// Nodes whose answer loses the vote are quarantined: their identity
// joins the cluster's suspect set (surfaced as SuspectedNodes in the
// metrics) and every hint generation is bumped, so no cached address
// they vouched for survives. A reconciliation round re-verifies all
// posting state against registration ground truth, so a successful
// ReconcileRound clears the suspect set — a node that was merely
// corrupted (not actively lying) is rehabilitated, while a persistent
// liar is re-quarantined by the next vote it loses.
//
// With r replica families and at most f of them infiltrated by liars,
// r >= 2f+1 and a full-width quorum guarantee an honest majority: the
// family scoping filter pins each liar's forgery to the families it
// actually serves, so f liars corrupt at most f of the q answers.

// voteAnswer is one replica family's reply in a voted locate.
type voteAnswer struct {
	e      core.Entry
	from   graph.NodeID
	family int
}

// voteKey is the claim a vote agrees on: which instance serves the
// port, and where. Timestamps deliberately stay out of the key — two
// honest families can hold different-aged copies of the same posting,
// and a forged timestamp alone must not split an honest majority.
type voteKey struct {
	addr graph.NodeID
	id   uint64
}

func (a voteAnswer) key() voteKey { return voteKey{addr: a.e.Addr, id: a.e.ServerID} }

// voteQuorum is the effective electorate width: the configured quorum
// clamped to the replication factor.
func (c *Cluster) voteQuorum() int {
	q := c.opts.VoteQuorum
	if r := c.repl.Replicas(); q > r {
		q = r
	}
	return q
}

// voteTally returns the most-supported claim and its vote count.
func voteTally(answers []voteAnswer) (voteKey, int) {
	var (
		bestKey voteKey
		bestN   int
	)
	for _, a := range answers {
		k := a.key()
		n := 0
		for _, b := range answers {
			if b.key() == k {
				n++
			}
		}
		if n > bestN {
			bestKey, bestN = k, n
		}
	}
	return bestKey, bestN
}

// voteLocate is floodLocate's Byzantine-tolerant twin: query q replica
// families from start (wrapping), majority-vote on the claims, believe
// only a strict majority of the configured quorum, quarantine the
// answerers the majority contradicts. Abstentions (rendezvous misses)
// count against the majority — a liar choosing silence can force the
// electorate wider but never steer it — and when the quorum cannot
// agree the electorate extends one family at a time before the locate
// fails closed with core.ErrNotFound. Any non-miss failure (crashed or
// invalid caller) aborts immediately, as in the fallthrough path.
func (c *Cluster) voteLocate(stripe int, client graph.NodeID, port core.Port, start int) (core.Entry, int, error) {
	r := c.repl.Replicas()
	q := c.voteQuorum()
	need := q/2 + 1
	if start < 0 || start >= r {
		start = 0
	}
	c.metrics.votedLocates.Add(stripe, 1)

	answers := make([]voteAnswer, 0, q)
	conflict := false
	asked := 0
	ask := func() error {
		k := (start + asked) % r
		asked++
		e, from, err := c.byz.LocateReplicaAt(client, port, k)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return nil // abstention
			}
			return err
		}
		if e.Port != port {
			// An answer for a port nobody asked about is a forgery in
			// itself: suspect the answerer, treat the family as silent.
			conflict = true
			c.suspect(from)
			return nil
		}
		answers = append(answers, voteAnswer{e: e, from: from, family: k})
		return nil
	}
	for asked < q {
		if err := ask(); err != nil {
			return core.Entry{}, 0, err
		}
	}
	for {
		if key, n := voteTally(answers); n >= need {
			return c.voteSettle(stripe, answers, key, conflict, start)
		}
		if asked >= r {
			break
		}
		if err := ask(); err != nil {
			return core.Entry{}, 0, err
		}
	}
	// No majority even with every family heard: fail closed. A split
	// electorate is a conflict (somebody lied, though the vote cannot
	// prove who, so nobody is suspected); an empty one is an honest
	// rendezvous miss.
	if keys := distinctKeys(answers); keys > 1 {
		conflict = true
	}
	if conflict {
		c.metrics.voteConflicts.Add(1)
	}
	c.metrics.replicaDepth.Fail()
	return core.Entry{}, start, fmt.Errorf("cluster: vote on %q from %d: no majority of quorum %d: %w", port, client, q, core.ErrNotFound)
}

func distinctKeys(answers []voteAnswer) int {
	seen := make(map[voteKey]struct{}, len(answers))
	for _, a := range answers {
		seen[a.key()] = struct{}{}
	}
	return len(seen)
}

// voteSettle reduces a decided vote: the freshest agreeing entry wins,
// the hint is recorded under the lowest agreeing family (the cheapest
// one a later invalidation's wrap order should retry after), and every
// answerer the majority contradicts is quarantined.
func (c *Cluster) voteSettle(stripe int, answers []voteAnswer, key voteKey, conflict bool, start int) (core.Entry, int, error) {
	var (
		best   core.Entry
		family int
		first  = true
	)
	for _, a := range answers {
		if a.key() != key {
			conflict = true
			c.suspect(a.from)
			continue
		}
		if first || a.e.Time > best.Time {
			best = a.e
		}
		if first || a.family < family {
			family = a.family
		}
		first = false
	}
	if conflict {
		c.metrics.voteConflicts.Add(1)
	}
	r := c.repl.Replicas()
	c.metrics.replicaDepth.Observe(stripe, (family-start+r)%r)
	return best, family, nil
}

// voteBatch resolves a batch through the voting path, one voted locate
// per request — batched floods cannot vote, because the transport's
// batch path reduces answers before the coordinator sees who answered.
func (c *Cluster) voteBatch(stripe int, reqs []LocateReq, res []LocateRes) {
	for i := range reqs {
		e, _, err := c.voteLocate(stripe, reqs[i].Client, reqs[i].Port, 0)
		res[i] = LocateRes{Entry: e, Err: err}
	}
}

// suspect quarantines a node whose answer a vote contradicted: it joins
// the suspect set and — on first entry — every hint generation is
// bumped, so no cached address it vouched for survives.
func (c *Cluster) suspect(node graph.NodeID) {
	c.suspectMu.Lock()
	_, dup := c.suspects[node]
	if !dup {
		c.suspects[node] = struct{}{}
	}
	c.suspectMu.Unlock()
	if !dup {
		c.byz.Quarantine(node)
	}
}

// SuspectedNodes returns the rendezvous nodes currently quarantined by
// answer voting, sorted. Empty unless voting is enabled.
func (c *Cluster) SuspectedNodes() []graph.NodeID {
	if c.byz == nil {
		return nil
	}
	c.suspectMu.Lock()
	out := make([]graph.NodeID, 0, len(c.suspects))
	for v := range c.suspects {
		out = append(out, v)
	}
	c.suspectMu.Unlock()
	slices.Sort(out)
	return out
}

func (c *Cluster) suspectCount() int {
	c.suspectMu.Lock()
	defer c.suspectMu.Unlock()
	return len(c.suspects)
}

// ReconcileRound drives one anti-entropy reconciliation round through
// the transport and — because a completed round has re-verified every
// posting row against registration ground truth — clears the voting
// suspect set: quarantine is not a death sentence, it lasts until the
// self-stabilizing layer vouches for the state again. A node still
// lying after rehabilitation is re-quarantined by the next vote it
// loses. Fails with ErrNoAntiEntropy on transports without the
// reconciliation layer.
func (c *Cluster) ReconcileRound() (int, error) {
	stripe, ok := c.enter()
	if !ok {
		return 0, ErrClosed
	}
	defer c.exit(stripe)
	at, ok := c.tr.(AntiEntropyTransport)
	if !ok {
		return 0, ErrNoAntiEntropy
	}
	n, err := at.ReconcileRound()
	if err == nil && c.byz != nil {
		c.suspectMu.Lock()
		clear(c.suspects)
		c.suspectMu.Unlock()
	}
	return n, err
}

// ErrNoAntiEntropy reports a reconciliation request against a transport
// without the self-stabilizing posting layer.
var ErrNoAntiEntropy = errors.New("cluster: transport has no anti-entropy reconciliation")
