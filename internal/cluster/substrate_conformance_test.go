package cluster

import (
	"fmt"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestSubstrateConformance pins the row-level rules no transport step
// reaches, on the in-process substrate and the wire substrate (over
// in-process NodeServers on ephemeral loopback ports) alike: a
// family-scoped read answers each replica family only with the rows
// posted there as part of that family, expiry drops rows by identity,
// and the digests agree with a dump of every row. Everything a
// transport step reaches is checked by the history runner.
func TestSubstrateConformance(t *testing.T) {
	const n = 36
	g := topology.Complete(n)
	rp := must(strategy.NewReplicated(rendezvous.Checkerboard(n), 2))
	memT := must(NewLayoutMemTransport(g, fixedOf(t, rp), 0))
	defer memT.Close()
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), loopbackNodes(t, n, 3), NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()

	// Node 0 holds 5's postings only as a member of family 0's posting
	// set, and 23's only as a member of family 1's.
	const at, in0, in1 = graph.NodeID(0), graph.NodeID(5), graph.NodeID(23)
	if !rp.InPost(0, in0, at) || rp.InPost(1, in0, at) || !rp.InPost(1, in1, at) || rp.InPost(0, in1, at) {
		t.Fatal("node 0 no longer tells the two replica families apart")
	}
	for name, sub := range map[string]substrate{"mem": memT.mem, "wire": netT.wire} {
		read := func(sc scope, port core.Port, v graph.NodeID) string {
			fl := &flood{scope: sc, reqs: []LocateReq{{Port: port}}, keys: []rowKey{{node: v}}, ans: make([]rowAnswer, 1)}
			sub.readFreshest(fl)
			if !fl.ans[0].ok {
				return "-"
			}
			return fmt.Sprintf("#%d@%d", fl.ans[0].e.ServerID, fl.ans[0].e.Addr)
		}
		post := func(id uint64, addr graph.NodeID, time uint64, nodes ...graph.NodeID) {
			rows := make([]rowKey, len(nodes))
			for i, v := range nodes {
				rows[i] = rowKey{node: v}
			}
			sub.post([]core.Entry{{Port: "s", ServerID: id, Addr: addr, Time: time, Active: true}}, rows)
		}
		post(10, in0, 10, at)
		post(11, in1, 11, at)
		post(12, 2, 12, 5)
		got := fmt.Sprintf("%s %s %s", read(scope{in: rp, fam: 0}, "s", at), read(scope{in: rp, fam: 1}, "s", at), read(scope{}, "s", at))
		if want := fmt.Sprintf("#10@%d #11@%d #11@%d", in0, in1, in1); got != want {
			t.Errorf("%s: scoped reads at %d = %s, want %s", name, at, got, want)
		}
		sub.expire([]rowID{{node: 5, port: "s", id: 12}, {node: 5, port: "s", id: 77}})
		if got := read(scope{}, "s", 5); got != "-" {
			t.Errorf("%s: expired row still reads %s", name, got)
		}
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = graph.NodeID(i)
		}
		dg, readable := make([]uint64, n), make([]bool, n)
		sub.digests(dg, readable)
		rows := sub.dump(nodes)
		for _, v := range nodes {
			var want uint64
			for _, e := range rows[v] {
				if e.Active {
					want ^= postingDigest(e.Port, e.ServerID, e.Addr)
				}
			}
			if !readable[v] || dg[v] != want || (v == at) != (want != 0) {
				t.Errorf("%s: digest of node %d = %#x (readable %v), its dump says %#x", name, v, dg[v], readable[v], want)
			}
		}
	}
}
