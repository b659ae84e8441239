package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestSubstrateConformance runs one scripted row-level history against
// the in-process substrate and against the wire substrate (over
// in-process NodeServers on ephemeral loopback ports) and demands the
// same returned rows after every step. Everything above the substrate
// interface is one implementation, so this — not a pair of 1 000-line
// transports kept in step by hand — is what mem = net rests on. The
// script honours the substrate contract: it never posts to, reads or
// probes a node it has crashed; what a crashed address answers is the
// coordinator's call, so that step goes through the two transports.
func TestSubstrateConformance(t *testing.T) {
	const n = 36
	g := topology.Complete(n)
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer memT.Close()
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), loopbackNodes(t, n, 3), NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()

	// at is a node where the two replica families are distinguishable:
	// it holds in0's postings only as a member of family 0's posting
	// set, and in1's only as a member of family 1's.
	at, in0, in1 := graph.NodeID(-1), graph.NodeID(-1), graph.NodeID(-1)
	for v := 12; v < n && at < 0; v++ { // clear of the script's fixed nodes
		in0, in1 = -1, -1
		for o := 0; o < n; o++ {
			f0, f1 := rp.InPost(0, graph.NodeID(o), graph.NodeID(v)), rp.InPost(1, graph.NodeID(o), graph.NodeID(v))
			if f0 && !f1 {
				in0 = graph.NodeID(o)
			}
			if f1 && !f0 {
				in1 = graph.NodeID(o)
			}
		}
		if in0 >= 0 && in1 >= 0 {
			at = graph.NodeID(v)
		}
	}
	if at < 0 {
		t.Fatal("no node tells the two replica families apart")
	}

	// Every key list that reaches a substrate — the script's own, and
	// below it the coordinator's — must be grouped by request.
	memSub := &groupedSubstrate{substrate: memT.mem, t: t}
	wireSub := &groupedSubstrate{substrate: netT.wire, t: t}
	memT.coordinator.sub, netT.coordinator.sub = memSub, wireSub
	mem := conformanceScript(t, memSub, memT, rp, at, in0, in1)
	wire := conformanceScript(t, wireSub, netT, rp, at, in0, in1)
	for i := 0; i < len(mem) || i < len(wire); i++ {
		var m, w string
		if i < len(mem) {
			m = mem[i]
		}
		if i < len(wire) {
			w = wire[i]
		}
		if m != w {
			t.Errorf("step %d diverges:\n  mem:  %s\n  wire: %s", i, m, w)
		}
	}
	// Spot-check the shared transcript against the script's intent, so
	// two substrates wrong in the same way cannot pass.
	want := map[string]string{
		"freshest":           "a@5=a#1@3t1 a@7=a#2@9t2 b@5=b#3@3t3 b@7=-",
		"freshest-tombstone": "a@5=- a@7=a#2@9t2",
		"scoped-0":           fmt.Sprintf("s@%d=s#10@%dt10", at, in0),
		"scoped-1":           fmt.Sprintf("s@%d=s#11@%dt11", at, in1),
		"probe":              "hit miss miss",
		"probe-moved":        "miss hit",
		"probe-gone":         "miss",
		"probe-crashed":      "crashed=true, 1 passes",
		"crash-clears":       "7:[]",
		"restored":           "7:[a#4@1t20]",
		"expire":             "a@5=a#5@2t30 -> a@5=-",
		"corrupt":            "5:[a#1@3t4! b#3@30t1]",
		"armed":              "a@7=a#99@1t99 b@5=-",
		"armed-all":          "7:[a#99@1t99]",
		"armed-scoped":       fmt.Sprintf("s@%d=-", at),
		"disarmed":           "a@7=a#4@1t20 b@5=b#3@30t1",
		"coordinator-batch":  "g2@1=11/false g1@30=2/false nobody@8=0/true g3@8=20/false",
		"register-batch":     "hit hit hit miss / miss hit hit",
	}
	got := make(map[string]string, len(mem))
	for _, line := range mem {
		name, rest, _ := strings.Cut(line, ": ")
		got[name] = rest
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("step %q = %q, want %q", name, got[name], w)
		}
	}
}

// groupedSubstrate asserts the substrate contract's grouping rule on
// every key list it passes through: the keys of one request are
// adjacent, requests in ascending order. It counts the lists it saw that
// held more than one request, so the test can tell the rule was
// exercised.
type groupedSubstrate struct {
	substrate
	t     *testing.T
	multi int
}

func (g *groupedSubstrate) check(op string, keys []rowKey) {
	g.t.Helper()
	if !slices.IsSortedFunc(keys, func(a, b rowKey) int { return int(a.req - b.req) }) {
		g.t.Errorf("%s key list is not grouped by request: %v", op, keys)
	}
	if len(keys) > 0 && keys[0].req != keys[len(keys)-1].req {
		g.multi++
	}
}

func (g *groupedSubstrate) post(entries []core.Entry, rows []rowKey) {
	g.check("post", rows)
	g.substrate.post(entries, rows)
}

func (g *groupedSubstrate) readFreshest(fl *flood) {
	g.check("readFreshest", fl.keys)
	g.substrate.readFreshest(fl)
}

func (g *groupedSubstrate) readAll(fl *flood) {
	g.check("readAll", fl.keys)
	g.substrate.readAll(fl)
}

// conformanceScript drives the scripted history against sub (tr is the
// transport owning it, for the steps that need the coordinator's crash
// marks) and returns one transcript line per step.
func conformanceScript(t *testing.T, sub substrate, tr Transport, rp *strategy.Replicated, at, in0, in1 graph.NodeID) []string {
	t.Helper()
	var out []string
	say := func(step, format string, args ...any) {
		out = append(out, step+": "+fmt.Sprintf(format, args...))
	}
	show := func(e core.Entry) string {
		s := fmt.Sprintf("%s#%d@%dt%d", e.Port, e.ServerID, e.Addr, e.Time)
		if !e.Active {
			s += "!"
		}
		return s
	}
	entry := func(port core.Port, id uint64, addr graph.NodeID, time uint64, active bool) core.Entry {
		return core.Entry{Port: port, ServerID: id, Addr: addr, Time: time, Active: active}
	}
	post := func(e core.Entry, nodes ...graph.NodeID) {
		rows := make([]rowKey, len(nodes))
		for i, v := range nodes {
			rows[i] = rowKey{node: v}
		}
		sub.post([]core.Entry{e}, rows)
	}
	// flood asks every (port, node) pair, one request per distinct port.
	type ask struct {
		port core.Port
		node graph.NodeID
	}
	mkFlood := func(sc scope, asks []ask) *flood {
		fl := &flood{scope: sc}
		for _, a := range asks {
			req := slices.IndexFunc(fl.reqs, func(r LocateReq) bool { return r.Port == a.port })
			if req < 0 {
				req = len(fl.reqs)
				fl.reqs = append(fl.reqs, LocateReq{Port: a.port})
			}
			fl.keys = append(fl.keys, rowKey{req: int32(req), node: a.node})
		}
		slices.SortStableFunc(fl.keys, func(a, b rowKey) int { return int(a.req - b.req) })
		fl.ans = make([]rowAnswer, len(fl.keys))
		return fl
	}
	freshest := func(sc scope, asks ...ask) string {
		fl := mkFlood(sc, asks)
		sub.readFreshest(fl)
		var parts []string
		for i, k := range fl.keys {
			ans := "-"
			if fl.ans[i].ok {
				ans = show(fl.ans[i].e)
			}
			parts = append(parts, fmt.Sprintf("%s@%d=%s", fl.reqs[k.req].Port, k.node, ans))
		}
		return strings.Join(parts, " ")
	}
	rowsOf := func(byNode map[graph.NodeID][]core.Entry, nodes ...graph.NodeID) string {
		var parts []string
		for _, v := range nodes {
			rows, ok := byNode[v]
			if !ok {
				parts = append(parts, fmt.Sprintf("%d:unreadable", v))
				continue
			}
			shown := make([]string, len(rows))
			for i, e := range rows {
				shown[i] = show(e)
			}
			slices.Sort(shown)
			parts = append(parts, fmt.Sprintf("%d:[%s]", v, strings.Join(shown, " ")))
		}
		return strings.Join(parts, " ")
	}
	all := func(sc scope, asks ...ask) string {
		fl := mkFlood(sc, asks)
		sub.readAll(fl)
		byNode := make(map[graph.NodeID][]core.Entry)
		for _, a := range asks {
			byNode[a.node] = nil
		}
		for _, ke := range fl.all {
			v := fl.keys[ke.key].node
			byNode[v] = append(byNode[v], ke.e)
		}
		nodes := make([]graph.NodeID, 0, len(byNode))
		for v := range byNode {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		return rowsOf(byNode, nodes...)
	}
	dump := func(nodes ...graph.NodeID) string { return rowsOf(sub.dump(nodes), nodes...) }

	// Post, merge and tombstone.
	post(entry("a", 1, 3, 1, true), 5)
	post(entry("a", 2, 9, 2, true), 7)
	post(entry("b", 3, 3, 3, true), 5)
	say("freshest", "%s", freshest(scope{}, ask{"a", 5}, ask{"a", 7}, ask{"b", 5}, ask{"b", 7}))
	post(entry("a", 1, 3, 4, false), 5, 7) // tombstone: instance 1 is gone
	post(entry("a", 1, 3, 2, true), 5)     // stale re-post loses the merge
	say("freshest-tombstone", "%s", freshest(scope{}, ask{"a", 5}, ask{"a", 7}))
	say("all", "%s", all(scope{}, ask{"a", 5}, ask{"a", 7}, ask{"b", 5}))
	say("dump", "%s", dump(5, 7, 9))

	// Family-scoped reads: the same slot answers each family only with
	// the rows posted there as part of that family.
	post(entry("s", 10, in0, 10, true), at)
	post(entry("s", 11, in1, 11, true), at)
	for k := 0; k < 2; k++ {
		sc := scope{in: rp, fam: k}
		say(fmt.Sprintf("scoped-%d", k), "%s", freshest(sc, ask{"s", at}))
		say(fmt.Sprintf("scoped-all-%d", k), "%s", all(sc, ask{"s", at}))
	}
	say("unscoped", "%s", freshest(scope{}, ask{"s", at}))

	// Liveness records.
	answer := func(a probeAnswer) string { return [...]string{"miss", "hit", "silent"}[a] }
	if err := sub.register([]liveReg{{id: 1, port: "a", node: 3, from: noNode}}); err != nil {
		t.Fatal(err)
	}
	say("probe", "%s %s %s", answer(sub.probe("a", 3, 1)), answer(sub.probe("a", 4, 1)), answer(sub.probe("b", 3, 1)))
	if err := sub.register([]liveReg{{id: 1, port: "a", node: 30, from: 3}}); err != nil { // a move across owner processes
		t.Fatal(err)
	}
	say("probe-moved", "%s %s", answer(sub.probe("a", 3, 1)), answer(sub.probe("a", 30, 1)))
	sub.deregister(1, 30)
	say("probe-gone", "%s", answer(sub.probe("a", 30, 1)))

	// Crash and restore, through the coordinator that owns the marks.
	if err := sub.register([]liveReg{{id: 2, port: "a", node: 7, from: noNode}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Crash(7); err != nil {
		t.Fatal(err)
	}
	before := tr.Passes()
	_, err := tr.Probe(0, core.Entry{Port: "a", Addr: 7, ServerID: 2})
	say("probe-crashed", "crashed=%v, %d passes", errors.Is(err, sim.ErrCrashed), tr.Passes()-before)
	if err := tr.Restore(7); err != nil {
		t.Fatal(err)
	}
	say("crash-clears", "%s", dump(7))
	say("probe-restored", "%s", answer(sub.probe("a", 7, 2)))
	post(entry("a", 4, 1, 20, true), 7)
	say("restored", "%s", dump(7))

	// Expiry by identity, then digests against a dump of everything.
	post(entry("a", 5, 2, 30, true), 5)
	held := freshest(scope{}, ask{"a", 5})
	sub.expire([]rowID{{node: 5, port: "a", id: 5}, {node: 5, port: "a", id: 77}})
	say("expire", "%s -> %s", held, freshest(scope{}, ask{"a", 5}))
	dg, readable := make([]uint64, len(rpNodes(rp))), make([]bool, len(rpNodes(rp)))
	sub.digests(dg, readable)
	rows := sub.dump(rpNodes(rp))
	for _, v := range rpNodes(rp) {
		var want uint64
		for _, e := range rows[v] {
			if e.Active {
				want ^= postingDigest(e.Port, e.ServerID, e.Addr)
			}
		}
		if !readable[v] || dg[v] != want {
			t.Errorf("digest of node %d = %#x (readable %v), dump says %#x", v, dg[v], readable[v], want)
		}
	}
	say("digests", "%x", dg)

	// Corruption bypasses the merge rule in both directions.
	if err := sub.corrupt([]corruptOp{
		{node: 5, e: entry("b", 3, 30, 1, true)}, // older timestamp, still replaces
		{node: 5, e: entry("a", 1, 3, 4, false)},
		{node: 9, drop: true, port: "a", id: 1},
	}); err != nil {
		t.Fatal(err)
	}
	say("corrupt", "%s", dump(5))

	// Armed lies replace reads, face the family filter, and disarm.
	if err := sub.arm([]forgeOp{
		{node: 7, port: "a", rec: forgeRec{e: entry("a", 99, 1, 99, true)}},
		{node: 5, port: "b", rec: forgeRec{silent: true}},
		{node: at, port: "s", rec: forgeRec{e: entry("s", 98, in1, 98, true)}},
	}); err != nil {
		t.Fatal(err)
	}
	say("armed", "%s", freshest(scope{}, ask{"a", 7}, ask{"b", 5}))
	say("armed-all", "%s", all(scope{}, ask{"a", 7}))
	say("armed-scoped", "%s", freshest(scope{in: rp, fam: 0}, ask{"s", at}))
	if err := sub.arm(nil); err != nil {
		t.Fatal(err)
	}
	say("disarmed", "%s", freshest(scope{}, ask{"a", 7}, ask{"b", 5}))

	// The coordinator is what builds key lists in production: a batch of
	// registrations and a batch of locates (with replica fallthrough for
	// the port nobody serves) go through it to the same substrate.
	grouped := sub.(*groupedSubstrate)
	multi0 := grouped.multi
	if _, err := tr.PostBatch([]Registration{{Port: "g1", Node: 2}, {Port: "g2", Node: 11}, {Port: "g3", Node: 20}}); err != nil {
		t.Fatal(err)
	}
	reqs := []LocateReq{{Client: 1, Port: "g2"}, {Client: 30, Port: "g1"}, {Client: 8, Port: "nobody"}, {Client: 8, Port: "g3"}}
	res := make([]LocateRes, len(reqs))
	tr.LocateBatch(reqs, res)
	var parts []string
	for i, r := range res {
		parts = append(parts, fmt.Sprintf("%s@%d=%d/%v", reqs[i].Port, reqs[i].Client, r.Entry.Addr, errors.Is(r.Err, core.ErrNotFound)))
	}
	say("coordinator-batch", "%s", strings.Join(parts, " "))
	if grouped.multi-multi0 < 2 {
		t.Errorf("coordinator batches handed the substrate %d multi-request key lists; want a post and a read at least", grouped.multi-multi0)
	}

	// A batch of liveness records lands in one call, each record with its
	// own host — here on all three owner processes — and a later batch
	// moves one of them across owners beside a fresh one.
	if err := sub.register([]liveReg{
		{id: 40, port: "m", node: 2, from: noNode},
		{id: 41, port: "m", node: 14, from: noNode},
		{id: 42, port: "n", node: 33, from: noNode},
	}); err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprintf("%s %s %s %s", answer(sub.probe("m", 2, 40)), answer(sub.probe("m", 14, 41)), answer(sub.probe("n", 33, 42)), answer(sub.probe("n", 14, 41)))
	if err := sub.register([]liveReg{
		{id: 40, port: "m", node: 30, from: 2},
		{id: 43, port: "n", node: 3, from: noNode},
	}); err != nil {
		t.Fatal(err)
	}
	say("register-batch", "%s / %s %s %s", first, answer(sub.probe("m", 2, 40)), answer(sub.probe("m", 30, 40)), answer(sub.probe("n", 3, 43)))
	return out
}

// rpNodes lists every node of rp's universe.
func rpNodes(rp *strategy.Replicated) []graph.NodeID {
	nodes := make([]graph.NodeID, rp.N())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}
