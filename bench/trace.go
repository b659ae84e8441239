package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/gate"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/stats"
)

// Span names. A traced request is a tree of these: the driver's own
// call at the root, the gateway's wire handler under it on gate_open,
// and the Transport-seam calls at the leaves.
const (
	spDriverLocate   = iota // gate_open: released → answered (self time = wait in the due-queue)
	spGateClient            // gate_open: ClientTransport.Locate, issue → answered
	spGateHandler           // gate_open: the gateway's WireHandler
	spClusterLocate         // closed loop: Cluster.Locate
	spClusterMigrate        // closed loop: ServerRef.Migrate
	spSeamLocate            // Transport.Locate
	spSeamProbe             // Transport.Probe
	spSeamMigrate           // transport ServerRef.Migrate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.locate", "gate.client", "gate.handler", "cluster.locate", "cluster.migrate",
	"transport.locate", "transport.probe", "transport.migrate",
}

// span is one timed call: times are nanoseconds since the recorder's
// start, parent is the id (index + 1) of the span that caused it, and
// spans of one request share req.
type span struct {
	name       uint8
	parent     uint32
	req        uint32
	start, end int64
}

// recorder keeps spans in memory, preallocated, and records without
// allocating or locking so the traced run takes the untraced run's code
// path: a writer reserves an index with one atomic add and fills it
// when the call returns.
type recorder struct {
	t0    time.Time
	on    atomic.Bool // spans are recorded only while a traced segment runs
	spans []span
	n     atomic.Uint32
	calls [numSpanNames]stats.StripedCounter // seam calls, counted whether or not traced

	// The Transport interface carries no request context, so a layer
	// finds its parent by (client, port) among the requests in flight
	// in the layer above: driver holds the driver's calls, handler (on
	// gate_open) the gateway handler's, and above is whichever of the
	// two sits directly over the Transport seam.
	driver, handler, above *inflight
}

// newRecorder sizes the span store; names are the ports as the driver
// names them and folded as the Transport seam sees them (the same
// unless a gateway folds the tenant in).
func newRecorder(capacity int, names, folded []core.Port, gated bool) *recorder {
	r := &recorder{t0: time.Now(), spans: make([]span, capacity)}
	r.driver = newInflight(names, max(callers, openWorkers))
	r.above = r.driver
	if gated {
		r.handler = newInflight(folded, 64)
		r.above = r.handler
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// reserve returns a span id for put, or 0 when tracing is off or full.
func (r *recorder) reserve() uint32 {
	if !r.on.Load() {
		return 0
	}
	id := r.n.Add(1)
	if int(id) > len(r.spans) {
		return 0
	}
	return id
}

func (r *recorder) put(id uint32, name uint8, req, parent uint32, start, end int64) {
	if id != 0 {
		r.spans[id-1] = span{name: name, parent: parent, req: req, start: start, end: end}
	}
}

func (r *recorder) recorded() []span {
	return r.spans[:min(int(r.n.Load()), len(r.spans))]
}

// inflight is a fixed table of the traced requests currently inside a
// layer. Slots are written by their owner and scanned by child layers
// on other goroutines, so every field is atomic and a reader re-checks
// the key after reading the ids.
type inflight struct {
	names []core.Port // port index → the name this layer's children see
	slots []inflightSlot
}

type inflightSlot struct {
	key  atomic.Uint64 // 0 = free, 1 = claimed, else 1<<63 | client<<32 | port index
	span atomic.Uint32
	req  atomic.Uint32
	_    [48]byte // one slot per cache line
}

func newInflight(names []core.Port, slots int) *inflight {
	return &inflight{names: names, slots: make([]inflightSlot, slots)}
}

func inflightKey(client graph.NodeID, port int32) uint64 {
	return 1<<63 | uint64(client)<<32 | uint64(port)
}

func (t *inflight) set(slot int, client graph.NodeID, port int32, span, req uint32) {
	s := &t.slots[slot]
	s.span.Store(span)
	s.req.Store(req)
	s.key.Store(inflightKey(client, port))
}

func (t *inflight) clear(slot int) { t.slots[slot].key.Store(0) }

// claim takes any free slot, for layers whose concurrency is not fixed.
func (t *inflight) claim(client graph.NodeID, port int32, span, req uint32) int {
	for i := range t.slots {
		if s := &t.slots[i]; s.key.Load() == 0 && s.key.CompareAndSwap(0, 1) {
			t.set(i, client, port, span, req)
			return i
		}
	}
	return -1
}

// find returns the span and request id of the one traced request in
// flight for (client, port), and its port index. Two requests in flight
// for the same pair cannot be told apart from below (the second caller
// usually joins the first one's flight anyway), so neither is a parent;
// a request in flight but not traced (span 0) is there to be seen as
// that second one.
func (t *inflight) find(client graph.NodeID, port string) (span, req uint32, idx int32, ok bool) {
	for i := range t.slots {
		s := &t.slots[i]
		k := s.key.Load()
		if k>>63 == 0 || graph.NodeID(k>>32&0x7fffffff) != client || string(t.names[uint32(k)]) != port {
			continue
		}
		if ok {
			return 0, 0, 0, false
		}
		span, req = s.span.Load(), s.req.Load()
		if s.key.Load() == k {
			idx, ok = int32(uint32(k)), true
		}
	}
	return span, req, idx, ok && span != 0
}

// seam times the Transport-seam calls of whichever concrete transport
// embeds it.
type seam struct{ rec *recorder }

func (s seam) call(name uint8, client graph.NodeID, port core.Port, fn func()) {
	s.rec.calls[name].Add(int(client), 1)
	parent, req, _, ok := s.rec.above.find(client, string(port))
	if !ok {
		fn()
		return
	}
	id := s.rec.reserve()
	start := s.rec.now()
	fn()
	s.rec.put(id, name, req, parent, start, s.rec.now())
}

// tracedMem and tracedNet embed the concrete transport, so every
// optional interface cluster.New type-asserts for — including the
// unexported genSlotter — is still there and the traced run takes the
// same path through the cluster as the untraced one. They override
// only what the workloads reach: Locate, Probe, Register and PostBatch.
// (LocateReplica and LocateBatch are reached only at r > 1 or from
// Cluster.LocateBatch, which no workload uses.)
type tracedMem struct {
	*cluster.MemTransport
	seam
}

type tracedNet struct {
	*cluster.NetTransport
	seam
}

func (t tracedMem) Locate(client graph.NodeID, port core.Port) (e core.Entry, err error) {
	t.call(spSeamLocate, client, port, func() { e, err = t.MemTransport.Locate(client, port) })
	return e, err
}

func (t tracedMem) Probe(client graph.NodeID, h core.Entry) (e core.Entry, err error) {
	t.call(spSeamProbe, client, h.Port, func() { e, err = t.MemTransport.Probe(client, h) })
	return e, err
}

func (t tracedMem) Register(port core.Port, node graph.NodeID) (cluster.ServerRef, error) {
	ref, err := t.MemTransport.Register(port, node)
	return t.wrapRef(ref), err
}

func (t tracedMem) PostBatch(regs []cluster.Registration) ([]cluster.ServerRef, error) {
	refs, err := t.MemTransport.PostBatch(regs)
	return t.wrapRefs(refs), err
}

func (t tracedNet) Locate(client graph.NodeID, port core.Port) (e core.Entry, err error) {
	t.call(spSeamLocate, client, port, func() { e, err = t.NetTransport.Locate(client, port) })
	return e, err
}

func (t tracedNet) Probe(client graph.NodeID, h core.Entry) (e core.Entry, err error) {
	t.call(spSeamProbe, client, h.Port, func() { e, err = t.NetTransport.Probe(client, h) })
	return e, err
}

func (t tracedNet) Register(port core.Port, node graph.NodeID) (cluster.ServerRef, error) {
	ref, err := t.NetTransport.Register(port, node)
	return t.wrapRef(ref), err
}

func (t tracedNet) PostBatch(regs []cluster.Registration) ([]cluster.ServerRef, error) {
	refs, err := t.NetTransport.PostBatch(regs)
	return t.wrapRefs(refs), err
}

// tracedRef times Migrate at the seam. A migration has no client, so
// its parent is found under the pseudo-client migrateClient.
type tracedRef struct {
	cluster.ServerRef
	seam
}

const migrateClient = graph.NodeID(nodes)

func (s seam) wrapRef(ref cluster.ServerRef) cluster.ServerRef {
	if ref == nil {
		return nil
	}
	return tracedRef{ref, s}
}

func (s seam) wrapRefs(refs []cluster.ServerRef) []cluster.ServerRef {
	for i, ref := range refs {
		refs[i] = s.wrapRef(ref)
	}
	return refs
}

func (r tracedRef) Migrate(to graph.NodeID) (err error) {
	r.call(spSeamMigrate, migrateClient, r.Port(), func() { err = r.ServerRef.Migrate(to) })
	return err
}

// wrapHandler times the gateway's wire handler for locates whose
// driver span is in flight, and publishes itself as the parent of the
// seam calls beneath it.
func (r *recorder) wrapHandler(h netwire.Handler) netwire.Handler {
	return func(op byte, req, resp []byte) (byte, []byte) {
		if op != gate.GopLocate || !r.on.Load() {
			return h(op, req, resp)
		}
		d := netwire.NewDec(req)
		d.Bytes() // token
		client := graph.NodeID(d.Uvarint())
		port := d.Bytes()
		parent, reqID, idx, ok := r.driver.find(client, string(port))
		if d.Err() != nil || !ok {
			return h(op, req, resp)
		}
		id := r.reserve()
		slot := r.handler.claim(client, idx, id, reqID)
		start := r.now()
		st, out := h(op, req, resp)
		end := r.now()
		if slot >= 0 {
			r.handler.clear(slot)
		}
		r.put(id, spGateHandler, reqID, parent, start, end)
		return st, out
	}
}

// traceStats is what the spans of one traced segment say about its
// layers.
type traceStats struct {
	requests int
	rootP50  float64               // median root span, ns
	self     [numSpanNames]float64 // median self time per request (0 where absent), ns
	dur      [numSpanNames]float64 // median duration over the spans of that name, ns
}

// analyse computes self times over the requests whose root span is
// rootName and starts in [lo, hi): a span's self time is its duration
// minus its children's, and a request's self time in a layer is the sum
// over its spans of that name.
func analyse(spans []span, rootName uint8, lo, hi int64) traceStats {
	var ts traceStats
	childSum := make([]int64, len(spans)+1)
	for _, s := range spans {
		childSum[s.parent] += s.end - s.start
	}
	perReq := map[uint32]*[numSpanNames]int64{}
	var roots []float64
	durs := [numSpanNames][]float64{}
	for _, s := range spans {
		if s.start < lo || s.start >= hi {
			continue
		}
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
		if s.parent == 0 && s.name == rootName {
			roots = append(roots, float64(s.end-s.start))
			perReq[s.req] = new([numSpanNames]int64)
		}
	}
	for i, s := range spans {
		if self := perReq[s.req]; self != nil {
			self[s.name] += max(s.end-s.start-childSum[i+1], 0)
		}
	}
	ts.requests, ts.rootP50 = len(roots), medianOf(roots)
	for name := range ts.self {
		vals := make([]float64, 0, len(perReq))
		for _, self := range perReq {
			vals = append(vals, float64(self[name]))
		}
		ts.self[name] = medianOf(vals)
		ts.dur[name] = medianOf(durs[name])
	}
	return ts
}

// spansNest reports whether every span lies inside its parent and
// carries its parent's request id.
func spansNest(spans []span) bool {
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		if p := spans[s.parent-1]; s.start < p.start || s.end > p.end || s.req != p.req {
			return false
		}
	}
	return true
}

// traceFileSpans caps the trace file; the statistics use every span.
const traceFileSpans = 20000

type spanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  uint32 `json:"parent"`
	Req     uint32 `json:"req"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		TotalSpans int        `json:"total_spans"`
		Spans      []spanJSON `json:"spans"`
	}{Workload: workload, Seed: seed, TotalSpans: len(spans)}
	for i, s := range spans[:min(len(spans), traceFileSpans)] {
		doc.Spans = append(doc.Spans, spanJSON{i + 1, spanNames[s.name], s.start, s.end, s.parent, s.req})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
