package cluster

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// NodeServer hosts one node-shard of a NetTransport cluster as a
// network service: the rendezvous caches (a Store partition) and the
// live-server table for a contiguous range [lo, hi) of graph nodes,
// served over the internal/netwire protocol. It holds state and
// answers requests but charges no message passes — the paper's cost
// accounting lives in the client-side NetTransport, which knows the
// routing tables. cmd/mmnode wraps one NodeServer per OS process;
// cmd/mmctl spawns, partitions and kills whole local clusters of them.
type NodeServer struct {
	n      int
	lo, hi int

	store *Store

	// live is the registration table probes answer from — the node
	// server's equivalent of a host knowing its own processes. Guarded
	// by mu; probe traffic is light relative to store reads.
	mu   sync.Mutex
	live map[uint64]liveRec

	crashed []atomic.Bool

	// armed is the Byzantine lie table opArm installed (nil when
	// disarmed): queries for an armed (node, port) answer with the
	// forged entry — or not at all — instead of reading the store.
	armed atomic.Pointer[forgeTable]

	// ops counts served requests per opcode (index = opcode), the raw
	// material of the worker's /metrics endpoint; badOps counts frames
	// with an unknown opcode.
	ops    [opArm + 1]atomic.Int64
	badOps atomic.Int64

	srv *netwire.Server
}

// opNames maps node-protocol opcodes to stable metric label values.
var opNames = [opArm + 1]string{
	opHello:      "hello",
	opPost:       "post",
	opQuery:      "query",
	opQueryAll:   "query_all",
	opProbe:      "probe",
	opRegister:   "register",
	opDeregister: "deregister",
	opCrash:      "crash",
	opRestore:    "restore",
	opExpire:     "expire",
	opSnapshot:   "snapshot",
	opDigest:     "digest",
	opCorrupt:    "corrupt",
	opArm:        "arm",
}

// OpCounts returns the cumulative served-request count per operation
// name (plus "unknown" for undecodable opcodes, when any occurred) —
// the counters behind cmd/mmnode's /metrics endpoint.
func (s *NodeServer) OpCounts() map[string]int64 {
	out := make(map[string]int64, len(opNames))
	for op, name := range opNames {
		if name == "" {
			continue
		}
		if v := s.ops[op].Load(); v > 0 {
			out[name] = v
		}
	}
	if v := s.badOps.Load(); v > 0 {
		out["unknown"] = v
	}
	return out
}

// Range returns the owned node range [lo, hi) and the cluster size n.
func (s *NodeServer) Range() (lo, hi, n int) { return s.lo, s.hi, s.n }

// liveRec is one registered server instance: the port it serves and
// the owned node it currently lives at.
type liveRec struct {
	port core.Port
	node graph.NodeID
}

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
		store:   NewStore(n, 0),
		live:    make(map[uint64]liveRec, 64),
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
// ephemeral ports), serve the node range [lo, hi) of an n-node
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
	fmt.Fprintf(out, "serving nodes [%d,%d) of %d\n", lo, hi, n)
	return srv.ServeUntilTerm()
}

// owned reports whether node falls in the server's range.
func (s *NodeServer) owned(node graph.NodeID) bool {
	return int(node) >= s.lo && int(node) < s.hi
}

// handle serves one decoded request frame; it runs concurrently.
func (s *NodeServer) handle(op byte, req, resp []byte) (byte, []byte) {
	if int(op) < len(s.ops) && opNames[op] != "" {
		s.ops[op].Add(1)
	} else {
		s.badOps.Add(1)
	}
	d := netwire.NewDec(req)
	switch op {
	case opHello:
		resp = netwire.AppendUvarint(resp, uint64(s.n))
		resp = netwire.AppendUvarint(resp, uint64(s.lo))
		resp = netwire.AppendUvarint(resp, uint64(s.hi))
		return stOK, resp
	case opPost:
		return s.handlePost(&d, resp)
	case opQuery:
		return s.handleQueries(&d, resp, false)
	case opQueryAll:
		return s.handleQueries(&d, resp, true)
	case opProbe:
		return s.handleProbe(&d, resp)
	case opRegister:
		return s.handleRegister(&d, resp)
	case opDeregister:
		id := d.Uvarint()
		if d.Err() != nil {
			return stBadRequest, resp
		}
		s.mu.Lock()
		delete(s.live, id)
		s.mu.Unlock()
		return stOK, resp
	case opCrash:
		return s.handleCrash(&d, resp, true)
	case opRestore:
		return s.handleCrash(&d, resp, false)
	case opExpire:
		return s.handleExpire(&d, resp)
	case opSnapshot:
		return s.handleSnapshot(&d, resp)
	case opDigest:
		return s.handleDigest(&d, resp)
	case opCorrupt:
		return s.handleCorrupt(&d, resp)
	case opArm:
		return s.handleArm(&d, resp)
	default:
		return stBadRequest, resp
	}
}

// handleDigest answers opDigest: per-node xor digests over the active
// cached entries of an owned node range — the cheap row summary the
// coordinator's anti-entropy round compares against ground truth before
// deciding whether a full opSnapshot dump is worth pulling.
func (s *NodeServer) handleDigest(d *netwire.Dec, resp []byte) (byte, []byte) {
	lo, hi := int(d.Uvarint()), int(d.Uvarint())
	if d.Err() != nil || lo < s.lo || hi > s.hi || hi <= lo {
		return stBadRequest, resp
	}
	digests := make([]uint64, hi-lo)
	for _, ne := range s.store.DumpRange(lo, hi) {
		if ne.E.Active {
			digests[int(ne.Node)-lo] ^= postingDigest(ne.E.Port, ne.E.ServerID, ne.E.Addr)
		}
	}
	for _, dg := range digests {
		resp = netwire.AppendUvarint(resp, dg)
	}
	return stOK, resp
}

// handleCorrupt applies opCorrupt's adversarial state mutations: kind 0
// drops a cached posting by identity, kind 1 force-injects a raw entry
// through Store.Inject, bypassing the timestamp merge rule. Crash marks
// are ignored on purpose — corruption is a backdoor, not a protocol
// message — and nothing is charged.
func (s *NodeServer) handleCorrupt(d *netwire.Dec, resp []byte) (byte, []byte) {
	for d.Len() > 0 {
		switch d.Byte() {
		case 0:
			node := graph.NodeID(d.Uvarint())
			port := core.Port(d.String())
			id := d.Uvarint()
			if d.Err() != nil || !s.owned(node) {
				return stBadRequest, resp
			}
			s.store.Drop(node, port, id)
		case 1:
			node := graph.NodeID(d.Uvarint())
			e := decodeEntry(d)
			if d.Err() != nil || !s.owned(node) {
				return stBadRequest, resp
			}
			s.store.Inject(node, e)
		default:
			return stBadRequest, resp
		}
	}
	return stOK, resp
}

// armedTable returns the installed lie table, or a nil table when
// disarmed (nil-safe for lookups).
func (s *NodeServer) armedTable() forgeTable {
	p := s.armed.Load()
	if p == nil {
		return nil
	}
	return *p
}

// handleArm installs opArm's answer-forging plan, replacing the
// previous one; an empty body disarms. Like opCorrupt it is a chaos
// backdoor and charges nothing.
func (s *NodeServer) handleArm(d *netwire.Dec, resp []byte) (byte, []byte) {
	if d.Len() == 0 {
		s.armed.Store(nil)
		return stOK, resp
	}
	ft := make(forgeTable)
	for d.Len() > 0 {
		node := graph.NodeID(d.Uvarint())
		port := core.Port(d.String())
		silent := d.Byte() == 1
		var e core.Entry
		if !silent {
			e = decodeEntry(d)
		}
		if d.Err() != nil || !s.owned(node) {
			return stBadRequest, resp
		}
		byPort := ft[node]
		if byPort == nil {
			byPort = make(map[core.Port]forgeRec, 4)
			ft[node] = byPort
		}
		byPort[port] = forgeRec{silent: silent, e: e}
	}
	s.armed.Store(&ft)
	return stOK, resp
}

// handleExpire drops cached postings by (node, port, serverID) — the
// local garbage collection of a retired epoch (see opExpire).
func (s *NodeServer) handleExpire(d *netwire.Dec, resp []byte) (byte, []byte) {
	for d.Len() > 0 {
		node := graph.NodeID(d.Uvarint())
		port := core.Port(d.String())
		id := d.Uvarint()
		if d.Err() != nil || !s.owned(node) {
			return stBadRequest, resp
		}
		s.store.Drop(node, port, id)
	}
	return stOK, resp
}

// handleSnapshot dumps the owned state for a node range — the donor
// side of a partition transfer (see opSnapshot).
func (s *NodeServer) handleSnapshot(d *netwire.Dec, resp []byte) (byte, []byte) {
	lo, hi := int(d.Uvarint()), int(d.Uvarint())
	if d.Err() != nil || lo < s.lo || hi > s.hi || hi <= lo {
		return stBadRequest, resp
	}
	dump := s.store.DumpRange(lo, hi)
	resp = netwire.AppendUvarint(resp, uint64(len(dump)))
	for _, ne := range dump {
		resp = netwire.AppendUvarint(resp, uint64(ne.Node))
		resp = appendEntry(resp, ne.E)
	}
	var lives []byte
	count := 0
	s.mu.Lock()
	for id, rec := range s.live {
		if int(rec.node) >= lo && int(rec.node) < hi {
			lives = appendLiveRec(lives, id, rec.port, rec.node)
			count++
		}
	}
	s.mu.Unlock()
	resp = append(netwire.AppendUvarint(resp, uint64(count)), lives...)
	var crashed []graph.NodeID
	for v := lo; v < hi; v++ {
		if s.crashed[v].Load() {
			crashed = append(crashed, graph.NodeID(v))
		}
	}
	resp = netwire.AppendUvarint(resp, uint64(len(crashed)))
	for _, v := range crashed {
		resp = netwire.AppendUvarint(resp, uint64(v))
	}
	return stOK, resp
}

func (s *NodeServer) handlePost(d *netwire.Dec, resp []byte) (byte, []byte) {
	for d.Len() > 0 {
		node := graph.NodeID(d.Uvarint())
		e := decodeEntry(d)
		if d.Err() != nil {
			return stBadRequest, resp
		}
		if !s.owned(node) {
			return stBadRequest, resp
		}
		if s.crashed[node].Load() {
			continue // a crashed rendezvous node drops postings
		}
		s.store.Put(node, e)
	}
	return stOK, resp
}

// handleQueries answers opQuery and opQueryAll: a sequence of (port,
// nodeCount, nodes...) sub-requests until end of body — replicated batch
// floods pack many per frame — each node answered with a flag and, when
// set, its freshest entry, or under all with (count, entries...). It
// resolves each sub-request's port once (Store.Rows) and then indexes
// its rows per node, so a flood's √n reads cost one port lookup on the
// shard process too.
func (s *NodeServer) handleQueries(d *netwire.Dec, resp []byte, all bool) (byte, []byte) {
	var buf [8]core.Entry
	ft := s.armedTable()
	for d.Len() > 0 {
		port := core.Port(d.String())
		cnt := int(d.Uvarint())
		rows := s.store.Rows(port)
		for i := 0; i < cnt; i++ {
			node := graph.NodeID(d.Uvarint())
			if d.Err() != nil || !s.owned(node) {
				return stBadRequest, resp
			}
			// Crashed nodes do not answer and misses are silent (§1.5). A
			// lying node never consults its store: its whole answer is
			// the one forged entry, or nothing under selective silence —
			// indistinguishable from a miss on the wire.
			entries := buf[:0]
			if !s.crashed[node].Load() {
				if rec, armed := ft.lieFor(node, port); armed {
					if !rec.silent {
						entries = append(entries, rec.e)
					}
				} else if all {
					entries = rows.slot(node).appendActive(entries)
				} else if e, ok := rows.Get(node); ok {
					entries = append(entries, e)
				}
			}
			if all {
				resp = netwire.AppendUvarint(resp, uint64(len(entries)))
			} else {
				resp = append(resp, byte(len(entries))) // flag: 0 or 1
			}
			for _, e := range entries {
				resp = appendEntry(resp, e)
			}
		}
		if d.Err() != nil {
			return stBadRequest, resp
		}
	}
	return stOK, resp
}

// handleProbe answers opProbe: one status byte per (port, addr, id)
// record, from the live table under one lock for the whole frame.
func (s *NodeServer) handleProbe(d *netwire.Dec, resp []byte) (byte, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d.Len() > 0 {
		port := d.Bytes() // compared in place; no copy out of the frame
		addr := graph.NodeID(d.Uvarint())
		rec, ok := s.live[d.Uvarint()]
		switch {
		case d.Err() != nil:
			return stBadRequest, resp
		case !s.owned(addr):
			resp = append(resp, stBadRequest)
		case s.crashed[addr].Load():
			resp = append(resp, stCrashed)
		case ok && string(rec.port) == string(port) && rec.node == addr:
			resp = append(resp, stOK)
		default:
			resp = append(resp, stNotFound)
		}
	}
	return stOK, resp
}

// handleRegister answers opRegister: one status byte per (id, port,
// node) record, the accepted ones recorded under one lock for the whole
// frame; a refused record changes nothing. A body that stops mid-record
// is refused as a frame from there on — the sender treats a refused
// frame like any refused record and withdraws its whole batch.
func (s *NodeServer) handleRegister(d *netwire.Dec, resp []byte) (byte, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d.Len() > 0 {
		id := d.Uvarint()
		port := core.Port(d.String())
		node := graph.NodeID(d.Uvarint())
		switch {
		case d.Err() != nil:
			return stBadRequest, resp
		case !s.owned(node):
			resp = append(resp, stBadRequest)
		case s.crashed[node].Load():
			resp = append(resp, stCrashed)
		default:
			s.live[id] = liveRec{port: port, node: node}
			resp = append(resp, stOK)
		}
	}
	return stOK, resp
}

func (s *NodeServer) handleCrash(d *netwire.Dec, resp []byte, down bool) (byte, []byte) {
	node := graph.NodeID(d.Uvarint())
	if d.Err() != nil || !s.owned(node) {
		return stBadRequest, resp
	}
	s.crashed[node].Store(down)
	if down {
		s.store.ClearNode(node)
	}
	return stOK, resp
}
