package cluster

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// fuzzLo, fuzzHi and fuzzN are the range FuzzNodeHandle's server owns;
// fuzzDown is the one node of it marked crashed.
const fuzzN, fuzzLo, fuzzHi, fuzzDown = 16, 4, 12, 5

// walkNodeBody reads body as op's records, the way netproto.go's header
// states the grammar, and reports the nodes each whole record names
// (one list per record), whether the body ended on a record boundary,
// and whether a record asks for something no process grants whatever it
// owns (an opSnapshot or opDigest range outside [fuzzLo, fuzzHi), a
// record on opHello).
func walkNodeBody(op byte, body []byte) (named [][]graph.NodeID, whole, refused bool) {
	d := netwire.NewDec(body)
	for d.Len() > 0 {
		var nodes []graph.NodeID
		switch op {
		case opPost, opCorrupt:
			node, _ := decodePosting(&d)
			nodes = append(nodes, node)
		case opQuery, opQueryAll:
			_ = d.Bytes()
			for cnt := d.Uvarint(); cnt > 0 && d.Err() == nil; cnt-- {
				nodes = append(nodes, graph.NodeID(d.Uvarint()))
			}
		case opProbe:
			_ = d.Bytes()
			nodes = append(nodes, graph.NodeID(d.Uvarint()))
			_ = d.Uvarint()
		case opRegister:
			nodes = append(nodes, decodeLiveRec(&d).node)
		case opDeregister:
			_ = d.Uvarint()
		case opCrash, opRestore:
			nodes = append(nodes, graph.NodeID(d.Uvarint()))
		case opExpire:
			nodes = append(nodes, decodeRowID(&d).node)
		case opSnapshot, opDigest:
			lo, hi := int(d.Uvarint()), int(d.Uvarint())
			refused = refused || lo < fuzzLo || hi > fuzzHi || hi <= lo
		case opArm:
			nodes = append(nodes, decodeForgeOp(&d).node)
		default: // opHello
			return nil, true, true
		}
		if d.Err() != nil {
			return named, false, refused
		}
		named = append(named, nodes)
	}
	return named, true, refused
}

// FuzzNodeHandle drives arbitrary (opcode, body) frames through
// NodeServer.handle on a process owning [4, 12) of 16 nodes with node 5
// crashed. Whatever the bytes: no panic; an unknown opcode, a body that
// stops inside a record, and — off the per-record-status opcodes — a
// record naming a node outside the range are refused as a frame
// (stBadRequest) and change nothing; on opProbe and opRegister the reply
// is one status byte per whole record, a foreign node's is stBadRequest,
// the crashed node's stCrashed, and only the records answered stOK are
// in the live table afterwards.
func FuzzNodeHandle(f *testing.F) {
	e := core.Entry{Port: "svc", Addr: 6, ServerID: 9, Time: 3, Active: true}
	query := netwire.AppendUvarint(netwire.AppendUvarint(netwire.AppendUvarint(netwire.AppendString(nil, "svc"), 2), 6), fuzzDown)
	probe := netwire.AppendUvarint(netwire.AppendUvarint(netwire.AppendString(nil, "svc"), 6), 9)
	seeds := map[byte][]byte{
		opPost:       appendPosting(appendPosting(nil, 7, e), fuzzDown, e),
		opQuery:      query,
		opQueryAll:   query,
		opProbe:      append(probe, probe...),
		opRegister:   appendLiveRec(appendLiveRec(appendLiveRec(nil, 9, "svc", 6), 10, "svc", fuzzDown), 11, "svc", 13),
		opDeregister: netwire.AppendUvarint(netwire.AppendUvarint(nil, 9), 1<<40),
		opCrash:      netwire.AppendUvarint(netwire.AppendUvarint(nil, 8), 9),
		opRestore:    netwire.AppendUvarint(nil, fuzzDown),
		opExpire:     appendRowID(nil, rowID{node: 7, port: "svc", id: 9}),
		opSnapshot:   rangeReq(fuzzLo, fuzzHi),
		opDigest:     rangeReq(6, 8),
		opCorrupt:    appendPosting(nil, fuzzDown, e),
		opArm:        appendForgeOp(appendForgeOp(nil, forgeOp{node: 7, port: "svc", rec: forgeRec{e: e}}), forgeOp{node: 8, port: "svc", rec: forgeRec{silent: true}}),
	}
	f.Add(opHello, []byte{})
	f.Add(opHello, []byte{1})
	for op, body := range seeds {
		f.Add(op, body)
		f.Add(op, body[:len(body)-1]) // cut inside its last record
	}
	f.Add(opPost, appendPosting(nil, 13, e)) // a node owned elsewhere
	f.Add(opCrash, netwire.AppendUvarint(nil, 1<<63))
	f.Add(opQuery, netwire.AppendUvarint(netwire.AppendString(nil, "svc"), 1<<62)) // a count no body holds
	f.Add(opArm+1, []byte{1, 2, 3})
	f.Add(byte(0), []byte{})

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		s := must(NewNodeServer(fuzzN, fuzzLo, fuzzHi, nil)) // never served: no listener needed
		if st, _ := s.handle(opCrash, netwire.AppendUvarint(nil, fuzzDown), nil); st != stOK {
			t.Fatalf("crash %d: status %d", fuzzDown, st)
		}
		state := func() []byte {
			st, snap := s.handle(opSnapshot, rangeReq(fuzzLo, fuzzHi), nil)
			if st != stOK {
				t.Fatalf("snapshot: status %d", st)
			}
			if s.sub.forge.Load() != nil {
				snap = append(snap, "armed"...)
			}
			return snap
		}
		before := state()
		st, resp := s.handle(op, body, nil)
		if int(op) >= len(nodeOps) || nodeOps[op].name == "" {
			if st != stBadRequest {
				t.Fatalf("unknown opcode %d: status %d, want stBadRequest", op, st)
			}
			return
		}
		named, whole, refused := walkNodeBody(op, body)
		foreign := func(v graph.NodeID) bool { return v < fuzzLo || v >= fuzzHi }
		if nodeOps[op].status && whole {
			if st != stOK || len(resp) != len(named) {
				t.Fatalf("op %d: status %d with %d status bytes for %d whole records", op, st, len(resp), len(named))
			}
			for i, nodes := range named {
				got := resp[i]
				if op == opProbe && got == stNotFound {
					got = stOK // the process did answer for the node
				}
				if want := s.admit(nodes[0]); got != want {
					t.Fatalf("op %d record %d names node %d: status %d, want %d", op, i, nodes[0], resp[i], want)
				}
			}
			accepted := map[uint64]bool{}
			if d := netwire.NewDec(body); op == opRegister {
				for i := range named {
					if r := decodeLiveRec(&d); resp[i] == stOK {
						accepted[r.id] = true
					}
				}
			}
			live := map[uint64]bool{}
			for _, r := range s.sub.liveIn(0, fuzzN) {
				live[r.id] = true
			}
			if !maps.Equal(live, accepted) {
				t.Fatalf("op %d: live table holds %v, the records answered stOK are %v", op, live, accepted)
			}
			if rows := s.sub.store.DumpRange(0, fuzzN); len(rows) != 0 {
				t.Fatalf("op %d wrote rows: %v", op, rows)
			}
			return
		}
		refused = refused || !whole || slices.ContainsFunc(named, func(nodes []graph.NodeID) bool { return slices.ContainsFunc(nodes, foreign) })
		if refused != (st == stBadRequest) || (st != stOK && st != stBadRequest) {
			t.Fatalf("op %d: status %d; whole records %v, body whole %v, refusable %v", op, st, named, whole, refused)
		}
		if refused && (len(resp) != 0 || !bytes.Equal(state(), before)) {
			t.Fatalf("op %d: refused frame answered %d bytes or changed the process's state", op, len(resp))
		}
	})
}

// handleFrames builds a warm node process owning all 16 nodes — "svc"
// posted at nodes 0–7 and its server registered at node 6 — and the
// three frames BenchmarkNodeHandle times on it: an opQuery of one record
// naming the 8 posting nodes (8 hits), an opProbe of one record that
// hits, and an opPost re-posting the 8 postings.
func handleFrames(tb testing.TB) (s *NodeServer, query, probe, post []byte) {
	s = must(NewNodeServer(16, 0, 16, nil))
	e := core.Entry{Port: "svc", Addr: 6, ServerID: 9, Time: 3, Active: true}
	query = netwire.AppendUvarint(netwire.AppendString(nil, "svc"), 8)
	for v := range 8 {
		post = appendPosting(post, graph.NodeID(v), e)
		query = netwire.AppendUvarint(query, uint64(v))
	}
	probe = netwire.AppendUvarint(netwire.AppendUvarint(netwire.AppendString(nil, "svc"), 6), 9)
	for op, body := range map[byte][]byte{opPost: post, opRegister: appendLiveRec(nil, 9, "svc", 6)} {
		if st, _ := s.handle(op, body, nil); st != stOK {
			tb.Fatalf("op %d: status %d", op, st)
		}
	}
	return s, query, probe, post
}

// BenchmarkNodeHandle times NodeServer.handle alone, one frame per
// iteration on a warm process, with no socket in the way: the node's
// share of a flood, a hint probe and a re-post.
func BenchmarkNodeHandle(b *testing.B) {
	s, query, probe, post := handleFrames(b)
	for _, f := range []struct {
		name string
		op   byte
		body []byte
	}{{"op=query", opQuery, query}, {"op=probe", opProbe, probe}, {"op=post", opPost, post}} {
		b.Run(f.name, func(b *testing.B) {
			resp := make([]byte, 0, 256)
			b.ReportAllocs()
			for b.Loop() {
				if st, _ := s.handle(f.op, f.body, resp[:0]); st != stOK {
					b.Fatalf("status %d", st)
				}
			}
		})
	}
}

// TestNodeQueryZeroAllocs pins the shard's flood read: once a port has
// been seen, an opQuery frame naming it allocates nothing — the pooled
// batch interns the port instead of copying it out of every frame. A
// stream of ports the process has never seen still resets the intern
// table past its bound instead of growing it.
func TestNodeQueryZeroAllocs(t *testing.T) {
	s, query, _, _ := handleFrames(t)
	resp := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		if st, out := s.handle(opQuery, query, resp[:0]); st != stOK || len(out) == 0 {
			t.Fatalf("query: status %d, %d bytes", st, len(out))
		}
	})
	ceiling := 0.0
	if raceDetector {
		ceiling = 6 // sync.Pool drops a quarter of Puts under the detector: 3–4 measured
	}
	if allocs > ceiling {
		t.Fatalf("an opQuery frame for a known port allocates %.1f objects, want at most %.0f", allocs, ceiling)
	}

	b := newNodeBatch()
	defer b.release()
	for i := range 3 * maxInternedPorts {
		b.port(fmt.Appendf(nil, "fresh-%d", i))
		if len(b.ports) > maxInternedPorts {
			t.Fatalf("intern table holds %d ports after %d distinct ones, bound is %d", len(b.ports), i+1, maxInternedPorts)
		}
	}
	if p := b.port([]byte("fresh-7")); p != "fresh-7" {
		t.Fatalf("port(%q) = %q", "fresh-7", p)
	}
}
