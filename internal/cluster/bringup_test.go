package cluster

import (
	"errors"
	"maps"
	"net"
	"slices"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

// liveIDs lists the instance ids in the servers' live tables.
func liveIDs(servers []*NodeServer) map[uint64]graph.NodeID {
	out := make(map[uint64]graph.NodeID)
	for _, s := range servers {
		for _, rec := range s.sub.liveIn(s.lo, s.hi) {
			out[rec.id] = rec.node
		}
	}
	return out
}

// TestRegisterRecords pins opRegister's multi-record form on the node
// process: one status byte per (id, port, node) record, refused records
// — a node owned elsewhere, a crashed node — not applied, the accepted
// ones around them applied, and a body that stops mid-record refused as
// a frame.
func TestRegisterRecords(t *testing.T) {
	const n = 16
	addrs, servers := loopbackServers(t, n, 2) // the first owns [0, 8)
	pool := netwire.NewPool(addrs[0], 1)
	defer pool.Close()
	if st, _, err := pool.Call(opCrash, netwire.AppendUvarint(nil, 5), nil); err != nil || st != stOK {
		t.Fatalf("crash 5: status %d, %v", st, err)
	}
	var req []byte
	for _, r := range []liveReg{{id: 1, port: "a", node: 2}, {id: 2, port: "b", node: 12}, {id: 3, port: "c", node: 5}, {id: 4, port: "d", node: 7}} {
		req = appendLiveRec(req, r.id, r.port, r.node)
	}
	st, resp, err := pool.Call(opRegister, req, nil)
	if err != nil || st != stOK {
		t.Fatalf("register: status %d, %v", st, err)
	}
	if want := []byte{stOK, stBadRequest, stCrashed, stOK}; string(resp) != string(want) {
		t.Errorf("per-record statuses = %v, want %v (owned, not owned, crashed, owned)", resp, want)
	}
	if got := liveIDs(servers); len(got) != 2 || got[1] != 2 || got[4] != 7 {
		t.Errorf("live table = %v, want only the accepted records 1@2 and 4@7", got)
	}
	// A lone registration is a batch of one.
	if st, resp, err = pool.Call(opRegister, appendLiveRec(nil, 9, "e", 0), nil); err != nil || st != stOK || string(resp) != string([]byte{stOK}) {
		t.Errorf("single record: status %d, body %v, %v", st, resp, err)
	}
	// A body that ends inside its second record.
	short := appendLiveRec(appendLiveRec(nil, 10, "f", 1), 11, "g", 3)
	if st, _, err = pool.Call(opRegister, short[:len(short)-1], nil); err != nil || st != stBadRequest {
		t.Errorf("short body: status %d, %v; want stBadRequest", st, err)
	}
	if _, ok := liveIDs(servers)[11]; ok {
		t.Error("the truncated record was applied")
	}
}

// TestPostBatchUndo refuses a batch at the substrate, after the
// coordinator's own checks have passed — the k-th home is crashed on its
// node process by another coordinator — and demands that nothing of the
// batch survives: no registration, no liveness record, no posting.
func TestPostBatchUndo(t *testing.T) {
	const n, k = 16, 5
	g, strat := topology.Complete(n), rendezvous.Checkerboard(n)
	addrs, servers := loopbackServers(t, n, 2)
	tr, err := NewNetTransport(g, strat, addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	other, err := NewNetTransport(g, strat, addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	regs := make([]Registration, 8)
	for i := range regs {
		regs[i] = Registration{Port: core.Port("p" + string(rune('0'+i))), Node: graph.NodeID(2*i + 1)}
	}
	if err := other.Crash(regs[k].Node); err != nil {
		t.Fatal(err)
	}
	refs, err := tr.PostBatch(regs)
	if !errors.Is(err, sim.ErrCrashed) || refs != nil {
		t.Fatalf("PostBatch = %v, %v; want no refs and %v", refs, err, sim.ErrCrashed)
	}
	if live := tr.liveServers(); len(live) != 0 {
		t.Errorf("%d registrations survive the refused batch", len(live))
	}
	if ids := liveIDs(servers); len(ids) != 0 {
		t.Errorf("liveness records survive the refused batch: %v", ids)
	}
	for _, s := range servers {
		if rows := s.sub.store.DumpRange(0, n); len(rows) != 0 {
			t.Errorf("postings survive the refused batch: %v", rows)
		}
	}
	for _, r := range regs {
		if _, err := tr.Locate(0, r.Port); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("locate %q after the refused batch: %v, want not found", r.Port, err)
		}
	}
	if err := other.Restore(regs[k].Node); err != nil {
		t.Fatal(err)
	}
	if refs, err = tr.PostBatch(regs); err != nil || len(refs) != len(regs) {
		t.Fatalf("PostBatch after restore: %d refs, %v", len(refs), err)
	}
	if ids := liveIDs(servers); len(ids) != len(regs) {
		t.Errorf("%d liveness records after the accepted batch, want %d", len(ids), len(regs))
	}
}

// TestWriteFrames counts the request frames the node processes serve for
// the writes that used to pay one round trip per server or per posting
// set: a Migrate is one opRegister and one opPost per process (the
// tombstone and the fresh posting share the frame), and a Rescale
// replays each chunk's liveness records in a single opRegister — a chunk
// is one opSnapshot out and at most three frames in (opPost, opRegister,
// opCrash), however many postings, records and crash marks it holds.
func TestWriteFrames(t *testing.T) {
	const n, servers = 16, 12
	g, strat := topology.Complete(n), rendezvous.Checkerboard(n)
	addrs, old := loopbackServers(t, n, 1)
	tr, err := NewNetTransport(g, strat, addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	regs := make([]Registration, servers)
	for i := range regs {
		regs[i] = Registration{Port: core.Port("p" + string(rune('a'+i))), Node: graph.NodeID(i)}
	}
	refs, err := tr.PostBatch(regs)
	if err != nil {
		t.Fatal(err)
	}
	before := old[0].OpCounts()
	if err := refs[0].Migrate(15); err != nil {
		t.Fatal(err)
	}
	after := old[0].OpCounts()
	if r, p := after["register"]-before["register"], after["post"]-before["post"]; r != 1 || p != 1 {
		t.Errorf("Migrate sent %d opRegister and %d opPost frames, want 1 and 1", r, p)
	}
	if e, err := tr.Locate(3, regs[0].Port); err != nil || e.Addr != 15 {
		t.Errorf("locate after migrate = %+v, %v; want addr 15", e, err)
	}

	newAddrs, fresh := loopbackServers(t, n, 2)
	if err := tr.Rescale(newAddrs); err != nil {
		t.Fatal(err)
	}
	for i, s := range fresh {
		if got := s.OpCounts()["register"]; got != 1 {
			t.Errorf("new process %d served %d opRegister frames for its one chunk, want 1", i, got)
		}
	}
	if ids := liveIDs(fresh); len(ids) != servers {
		t.Errorf("%d liveness records after the rescale, want %d", len(ids), servers)
	}

	// Back onto one process: its partition is filled by two chunks, 12
	// liveness records between them and three crashed nodes in the second
	// (wire slots 12–14).
	for _, v := range tr.wire.node[12:15] {
		if err := tr.Crash(v); err != nil {
			t.Fatal(err)
		}
	}
	oneAddr, one := loopbackServers(t, n, 1)
	if err := tr.Rescale(oneAddr); err != nil {
		t.Fatal(err)
	}
	for i, s := range fresh {
		if got := s.OpCounts()["snapshot"]; got != 1 {
			t.Errorf("donor %d served %d opSnapshot frames for its one chunk, want 1", i, got)
		}
	}
	got := one[0].OpCounts()
	delete(got, "hello")
	if want := map[string]int64{"post": 2, "register": 2, "crash": 1}; !maps.Equal(got, want) {
		t.Errorf("two chunks replayed as %v, want %v: at most three frames a chunk, none for an empty section", got, want)
	}
	if ids := liveIDs(one); len(ids) != servers {
		t.Errorf("%d liveness records after the second rescale, want %d", len(ids), servers)
	}
	for s := range one[0].crashed {
		if got, want := one[0].crashed[s].Load(), s >= 12 && s <= 14; got != want {
			t.Errorf("node %d (wire slot %d) crashed = %v on the new process, want %v", tr.wire.node[s], s, got, want)
		}
	}
}

// TestDumpCorruptSnapshot answers the reconciler's row dump with a reply
// whose first section claims 2^62 bytes: the node is unreadable this
// round (absent from the result), where a count-prefixed reply sized an
// allocation by the claim and panicked.
func TestDumpCorruptSnapshot(t *testing.T) {
	const n = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := netwire.NewServer(ln, func(op byte, _, resp []byte) (byte, []byte) {
		if op == opSnapshot {
			return stOK, netwire.AppendUvarint(resp, 1<<62)
		}
		return stOK, netwire.AppendUvarint(netwire.AppendUvarint(netwire.AppendUvarint(resp, n), 0), n) // hello
	})
	go peer.Serve()
	defer peer.Close()
	tr, err := NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), []string{ln.Addr().String()}, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if rows := tr.wire.dump([]graph.NodeID{3}); len(rows) != 0 {
		t.Errorf("dump of a node whose snapshot is corrupt = %v, want the node absent", rows)
	}
}

// TestQueryLocalPlacement pins the wire placement. At r = 1 every
// client's family-0 query set lies in one node process, so an
// uncoalesced locate is one request frame, while a posting row still
// reaches both processes it spans; two transports built from one layout
// place alike, so one registers and the other locates. At r = 2 the
// order stays the identity, which keeps the two families' meeting nodes
// for every pair in different processes.
func TestQueryLocalPlacement(t *testing.T) {
	const n = 64
	g := topology.Complete(n)
	lay := must(FixedLayout(n, rendezvous.Checkerboard(n), 1))
	addrs, srv := loopbackServers(t, n, 2)
	tr, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{DisableCoalescing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	procOf := func(tr *NetTransport, v graph.NodeID) int {
		_, p := tr.wire.at(tr.wire.procs.Load(), v)
		return p
	}
	for j := range n {
		q := lay.Epoch.QuerySet(graph.NodeID(j), 0)
		r := tr.wire.procs.Load().ranges[procOf(tr, q[0])]
		for _, v := range q {
			// The repair paths select a process's nodes through hosts.
			if procOf(tr, v) != procOf(tr, q[0]) || !tr.wire.hosts(r[0], r[1])(v) {
				t.Fatalf("client %d's query set %v spans two processes", j, q)
			}
		}
	}
	posts := func() int64 { return srv[0].OpCounts()["post"] + srv[1].OpCounts()["post"] }
	before := posts()
	if _, err := tr.Register("svc", 5); err != nil {
		t.Fatal(err)
	}
	if got := posts() - before; got != 2 {
		t.Errorf("a Register sent %d opPost frames, want 2", got)
	}
	// Digests come back slot by slot and dumps go out by slot: both land
	// on the posting row of node 5.
	row := lay.Epoch.PostSet(5)
	dg, readable := make([]uint64, n), make([]bool, n)
	tr.wire.digests(dg, readable)
	rows := tr.wire.dump(row)
	for v := range graph.NodeID(n) {
		if in := slices.Contains(row, v); !readable[v] || (dg[v] != 0) != in || in && len(rows[v]) != 1 {
			t.Errorf("node %d: digest %x, dumped %v; want a posting iff it is in %v", v, dg[v], rows[v], row)
		}
	}
	wire := tr.WireStats()
	if _, err := tr.Locate(40, "svc"); err != nil {
		t.Fatal(err)
	}
	if got := tr.WireStats().Sub(wire).FramesSent; got != 1 {
		t.Errorf("an uncoalesced locate sent %d request frames, want 1", got)
	}
	other, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if e, err := other.Locate(63, "svc"); err != nil || e.Addr != 5 {
		t.Errorf("the second transport located %+v, %v; want the first's server at 5", e, err)
	}

	rlay := fixedOf(t, mkReplicated(t, n, 2))
	rt, err := NewLayoutNetTransport(g, rlay, loopbackNodes(t, n, 2), NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if !slices.IsSorted(rt.wire.node) { // a sorted permutation is the identity
		t.Fatalf("r = 2 places nodes in wire order %v, want the identity", rt.wire.node)
	}
	rp := rlay.Epoch.Replicated()
	for i := range graph.NodeID(n) {
		for j := range graph.NodeID(n) {
			family := map[int]int{} // process → the family meeting there
			for k := range 2 {
				for _, v := range rendezvous.Intersect(rp.Replica(k).Post(i), rp.Replica(k).Query(j)) {
					if f, ok := family[procOf(rt, v)]; ok && f != k {
						t.Fatalf("pair (%d, %d): families %d and %d meet in process %d", i, j, f, k, procOf(rt, v))
					}
					family[procOf(rt, v)] = k
				}
			}
		}
	}
}
