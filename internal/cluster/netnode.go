package cluster

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"sync/atomic"
	"syscall"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// NodeServer hosts one node-shard of a NetTransport cluster as a
// network service: a memSubstrate — the rows, the live-server table and
// the armed lies of a contiguous wire slot range [lo, hi), the very
// code MemTransport runs — behind the node protocol's frame codec (see
// netproto.go), served over internal/netwire. What the process adds is
// what only a process has: the check that a record names a node it owns,
// the crash marks, the per-opcode counters and the listener. The crash
// marks sit in front of the substrate exactly as the coordinator's do
// in-process — a substrate is never handed a crashed node — so the
// substrate's read path knows nothing of them. It holds state and
// answers requests but charges no message passes — the paper's cost
// accounting lives in the client-side NetTransport, which knows the
// routing tables. cmd/mmnode wraps one NodeServer per OS process;
// cmd/mmctl spawns, partitions and kills whole local clusters of them.
type NodeServer struct {
	n      int
	lo, hi int

	sub     *memSubstrate
	crashed []atomic.Bool

	// ops counts served requests per opcode (index = opcode), the raw
	// material of the worker's /metrics endpoint; badOps counts frames
	// with an unknown opcode.
	ops    [len(nodeOps)]atomic.Int64
	badOps atomic.Int64

	srv *netwire.Server
}

// OpCounts returns the cumulative served-request count per operation
// name (plus "unknown" for undecodable opcodes, when any occurred) —
// the counters behind cmd/mmnode's /metrics endpoint.
func (s *NodeServer) OpCounts() map[string]int64 {
	out := make(map[string]int64, len(nodeOps))
	for op := range nodeOps {
		if v := s.ops[op].Load(); v > 0 {
			out[nodeOps[op].name] = v
		}
	}
	if v := s.badOps.Load(); v > 0 {
		out["unknown"] = v
	}
	return out
}

// Range returns the owned wire slot range [lo, hi) and the cluster size
// n. A slot is a node id as the wire spells it; the transport that dials
// the process decides which graph node each slot is, so the server never
// interprets one beyond this range check and its crash marks.
func (s *NodeServer) Range() (lo, hi, n int) { return s.lo, s.hi, s.n }

// NewNodeServer builds a node server owning [lo, hi) of an n-node
// cluster, serving on ln. Call Serve to start accepting.
func NewNodeServer(n, lo, hi int, ln net.Listener) (*NodeServer, error) {
	if n <= 0 || lo < 0 || hi <= lo || hi > n {
		return nil, fmt.Errorf("cluster: node server range [%d,%d) invalid for n=%d", lo, hi, n)
	}
	s := &NodeServer{
		n:       n,
		lo:      lo,
		hi:      hi,
		sub:     newMemSubstrate(n, 0),
		crashed: make([]atomic.Bool, n),
	}
	s.srv = netwire.NewServer(ln, s.handle)
	// Node ops are pure in-memory store work — never blocking on I/O of
	// their own — so they run inline on each connection's read loop:
	// no per-request goroutine, and pipelined bursts share one response
	// flush.
	s.srv.InlineHandlers()
	return s, nil
}

// Addr returns the listening address.
func (s *NodeServer) Addr() net.Addr { return s.srv.Addr() }

// Serve accepts and serves requests until Drain or Close; it returns
// nil on a clean shutdown.
func (s *NodeServer) Serve() error { return s.srv.Serve() }

// Drain gracefully shuts the server down: stop accepting, finish
// in-flight requests, then close connections — the SIGTERM path of
// cmd/mmnode.
func (s *NodeServer) Drain() { s.srv.Drain() }

// Close shuts down immediately, abandoning in-flight requests.
func (s *NodeServer) Close() error { return s.srv.Close() }

// ServeUntilTerm serves until SIGTERM or SIGINT, then drains
// gracefully — stop accepting, finish in-flight requests, close — and
// only then returns. It is the one shutdown sequence every worker
// entry point (cmd/mmnode, cmd/mmctl's re-exec workers, the test
// workers) shares, so none of them can exit before the drain finishes.
func (s *NodeServer) ServeUntilTerm() error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	drained := make(chan struct{})
	go func() {
		<-sig
		s.Drain()
		close(drained)
	}()
	if err := s.Serve(); err != nil {
		return err
	}
	// Serve returned because Drain closed the listener; wait for the
	// in-flight requests to finish before letting the process exit.
	<-drained
	return nil
}

// RunNodeWorker is the whole body of a spawned node-server worker
// process: listen on listenAddr, announce the bound address as an
// "ADDR host:port" line on out (orchestrators scan for it to collect
// ephemeral ports), serve the wire slot range [lo, hi) of an n-node
// cluster, and drain gracefully on SIGTERM before returning.
func RunNodeWorker(n, lo, hi int, listenAddr string, out io.Writer) error {
	return RunNodeWorkerWithReady(n, lo, hi, listenAddr, out, nil)
}

// RunNodeWorkerWithReady is RunNodeWorker with a hook that receives
// the built NodeServer after its listener is bound but before serving
// begins — cmd/mmnode uses it to mount the /metrics endpoint on the
// live server.
func RunNodeWorkerWithReady(n, lo, hi int, listenAddr string, out io.Writer, ready func(*NodeServer)) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	srv, err := NewNodeServer(n, lo, hi, ln)
	if err != nil {
		ln.Close()
		return err
	}
	if ready != nil {
		ready(srv)
	}
	fmt.Fprintf(out, "ADDR %s\n", ln.Addr())
	fmt.Fprintf(out, "serving wire slots [%d,%d) of %d\n", lo, hi, n)
	return srv.ServeUntilTerm()
}

// admit is the process's own word on a record naming node: stBadRequest
// outside [lo, hi), stCrashed while the node is marked down, else stOK.
func (s *NodeServer) admit(node graph.NodeID) byte {
	switch {
	case int(node) < s.lo || int(node) >= s.hi:
		return stBadRequest
	case s.crashed[node].Load():
		return stCrashed
	}
	return stOK
}

// handle serves one request frame: records until end of body, decoded
// into a pooled batch, then one substrate call and its reply. It runs
// concurrently.
func (s *NodeServer) handle(op byte, req, resp []byte) (byte, []byte) {
	if int(op) >= len(nodeOps) || nodeOps[op].name == "" {
		s.badOps.Add(1)
		return stBadRequest, resp
	}
	s.ops[op].Add(1)
	b := newNodeBatch()
	defer b.release()
	d := netwire.NewDec(req)
	for d.Len() > 0 {
		st := s.record(op, &d, b)
		switch {
		case d.Err() != nil:
			return stBadRequest, resp[:0]
		case nodeOps[op].status:
			resp = append(resp, st)
		case st == stBadRequest:
			return stBadRequest, resp[:0]
		}
	}
	return stOK, s.apply(op, b, resp)
}

// record decodes one record of op into b and returns the process's word
// on it (see admit). Only what is admitted is staged; opProbe, a read of
// one record, is answered here.
func (s *NodeServer) record(op byte, d *netwire.Dec, b *nodeBatch) byte {
	switch op {
	case opPost:
		node, e := decodePosting(d)
		st := s.admit(node)
		if st == stOK { // a crashed rendezvous node drops postings
			b.fl.keys = append(b.fl.keys, rowKey{req: int32(len(b.fl.posts)), node: node})
			b.fl.posts = append(b.fl.posts, e)
		}
		return st
	case opQuery, opQueryAll:
		req := int32(len(b.fl.reqs))
		b.fl.reqs = append(b.fl.reqs, LocateReq{Port: b.port(d.Bytes())})
		for cnt := d.Uvarint(); cnt > 0 && d.Err() == nil; cnt-- {
			node := graph.NodeID(d.Uvarint())
			st := s.admit(node)
			if st == stBadRequest {
				return st
			}
			if b.up = append(b.up, st == stOK); st == stOK { // crashed nodes do not answer
				b.fl.keys = append(b.fl.keys, rowKey{req: req, node: node})
			}
		}
		return stOK
	case opProbe:
		port, addr, id := d.Bytes(), graph.NodeID(d.Uvarint()), d.Uvarint()
		st := s.admit(addr)
		if st == stOK && s.sub.probe(noNode, core.Port(port), addr, id) != probeHit {
			st = stNotFound
		}
		return st
	case opRegister:
		r := decodeLiveRec(d)
		st := s.admit(r.node)
		if st == stOK {
			b.regs = append(b.regs, r)
		}
		return st
	case opDeregister:
		b.regs = append(b.regs, liveReg{id: d.Uvarint(), node: noNode})
		return stOK
	case opCrash, opRestore:
		node := graph.NodeID(d.Uvarint())
		b.nodes = append(b.nodes, node)
		return s.admit(node)
	case opExpire:
		r := decodeRowID(d)
		b.rows = append(b.rows, r)
		return s.admit(r.node)
	case opSnapshot, opDigest:
		lo, hi := int(d.Uvarint()), int(d.Uvarint())
		if lo < s.lo || hi > s.hi || hi <= lo {
			return stBadRequest
		}
		b.ranges = append(b.ranges, [2]int{lo, hi})
		return stOK
	case opCorrupt: // a backdoor, not a message: crash marks are not consulted
		node, e := decodePosting(d)
		b.inject = append(b.inject, corruptOp{node: node, e: e})
		return s.admit(node)
	case opArm:
		f := decodeForgeOp(d)
		b.lies = append(b.lies, f)
		return s.admit(f.node)
	}
	return stBadRequest // opHello takes no records
}

// apply makes op's substrate call on the decoded batch and appends the
// reply.
func (s *NodeServer) apply(op byte, b *nodeBatch, resp []byte) []byte {
	fl := &b.fl
	switch op {
	case opHello:
		for _, v := range [...]int{s.n, s.lo, s.hi} {
			resp = netwire.AppendUvarint(resp, uint64(v))
		}
	case opPost:
		s.sub.post(fl.posts, fl.keys)
	case opQuery, opQueryAll:
		if op == opQueryAll {
			s.sub.readAll(fl)
		} else {
			fl.ans = slices.Grow(fl.ans[:0], len(fl.keys))[:len(fl.keys)]
			clear(fl.ans)
			s.sub.readFreshest(fl)
			for i, a := range fl.ans {
				if a.ok {
					fl.all = append(fl.all, keyedEntry{key: int32(i), e: a.e})
				}
			}
		}
		// fl.all is in key order: each node that is up takes the next key
		// and the entries filed under it; misses and crashed nodes are
		// silent (§1.5).
		key, rest := int32(0), fl.all
		for _, up := range b.up {
			n := 0
			if up {
				for n < len(rest) && rest[n].key == key {
					n++
				}
				key++
			}
			resp = netwire.AppendUvarint(resp, uint64(n))
			for _, ke := range rest[:n] {
				resp = appendEntry(resp, ke.e)
			}
			rest = rest[n:]
		}
	case opRegister:
		_ = s.sub.register(b.regs) // the in-process table refuses nothing
	case opDeregister:
		for _, r := range b.regs {
			s.sub.deregister(r.id, r.node)
		}
	case opCrash:
		for _, v := range b.nodes {
			s.crashed[v].Store(true)
			s.sub.crash(v)
		}
	case opRestore:
		for _, v := range b.nodes {
			s.crashed[v].Store(false)
			s.sub.restore(v)
		}
	case opExpire:
		s.sub.expire(b.rows)
	case opSnapshot:
		for _, r := range b.ranges {
			resp = s.appendSnapshot(resp, r[0], r[1])
		}
	case opDigest:
		dg := make([]uint64, s.n)
		s.sub.digests(dg, make([]bool, s.n))
		for _, r := range b.ranges {
			for _, x := range dg[r[0]:r[1]] {
				resp = netwire.AppendUvarint(resp, x)
			}
		}
	case opCorrupt:
		_ = s.sub.corrupt(b.inject) // in-process, nothing to fail
	case opArm:
		_ = s.sub.arm(b.lies)
	}
	return resp
}

// appendSnapshot appends the state of [lo, hi) as opSnapshot's three
// sections, each the body of the frame that replays it.
func (s *NodeServer) appendSnapshot(resp []byte, lo, hi int) []byte {
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	sec := *buf
	for _, ne := range s.sub.store.DumpRange(lo, hi) {
		sec = appendPosting(sec, ne.Node, ne.E)
	}
	resp = netwire.AppendBytes(resp, sec)
	sec = sec[:0]
	for _, r := range s.sub.liveIn(lo, hi) {
		sec = appendLiveRec(sec, r.id, r.port, r.node)
	}
	resp = netwire.AppendBytes(resp, sec)
	sec = sec[:0]
	for v := lo; v < hi; v++ {
		if s.crashed[v].Load() {
			sec = netwire.AppendUvarint(sec, uint64(v))
		}
	}
	*buf = sec
	return netwire.AppendBytes(resp, sec)
}
