package cluster

import (
	"sync"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// The node protocol. A node process serves a contiguous range [lo, hi) of
// wire slots: graph nodes numbered in the transport's placement, so
// every node, addr and range a record below names is a slot, while an
// entry's Addr stays a graph node, data the process never reads. The
// client-side NetTransport fans each match-making operation out to the
// processes owning the involved nodes and keeps the paper's pass
// accounting locally, so the wire moves state and never charges costs
// (see internal/netwire for the frame and field layer).
//
// One grammar: every request body is a sequence of records, all of one
// kind, until the end of the body — a lone operation is a sequence of
// one, an empty body a sequence of none. The process decodes the records
// into its substrate's batch argument, calls the substrate once, and
// encodes what came back (NodeServer.handle). A body that stops inside a
// record, or a record naming a node the process does not own, refuses
// the frame with stBadRequest and changes nothing — except on the two
// opcodes marked "status", whose reply is one status byte per record: a
// refused record there (stBadRequest: node not owned; stCrashed: node
// marked down) is not applied and does not stop its neighbours.
//
//	opcode        record                      reply, per record
//	opHello       —                           (n, lo, hi), once
//	opPost        posting = node, entry       —; a crashed node drops it (§1.5)
//	opQuery       port, count, count × node   per node: 0, or 1 + freshest entry
//	opQueryAll    port, count, count × node   per node: count, count × entry
//	opProbe       port, addr, serverID        status: stOK lives there, stNotFound
//	opRegister    live = serverID, port, node status: stOK recorded
//	opDeregister  serverID                    —
//	opCrash       node                        —; clears the node's volatile rows
//	opRestore     node                        —; the rows stay lost
//	opExpire      node, port, serverID        —; the row is dropped where it lies
//	opSnapshot    lo, hi                      three length-prefixed sections
//	opDigest      lo, hi                      hi−lo digests, one per node
//	opCorrupt     posting                     —; force-placed, no §2.1 merge
//	opArm         node, port, silent, entry?  —; the body is the process's whole plan
//
// A crashed node answers opQuery/opQueryAll with 0 — silence. opQuery's
// flag is opQueryAll's count, so one decoder reads both. opSnapshot's
// sections are the partition's postings (tombstones included), liveness
// records and crash marks, each already the body of the frame that
// replays it — opPost, opRegister, opCrash — so a transfer forwards them
// undecoded. opDigest's digest is the xor of postingDigest over a node's
// active rows. opExpire, opDigest and opSnapshot are local decisions and
// maintenance metadata in the paper's model (§5) and are never charged;
// opExpire also carries the drops of a corruption plan, opCorrupt its
// injections, and opArm (empty body: disarm) the Byzantine lies — chaos
// backdoors, not protocol messages.
const (
	opHello byte = iota + 1
	opPost
	opQuery
	opQueryAll
	opProbe
	opRegister
	opDeregister
	opCrash
	opRestore
	opExpire
	opSnapshot
	opDigest
	opCorrupt
	opArm
)

// nodeOps is the grammar's table: per opcode, its stable metric label
// and whether its reply is one status byte per record.
var nodeOps = [opArm + 1]struct {
	name   string
	status bool
}{
	opHello:      {name: "hello"},
	opPost:       {name: "post"},
	opQuery:      {name: "query"},
	opQueryAll:   {name: "query_all"},
	opProbe:      {name: "probe", status: true},
	opRegister:   {name: "register", status: true},
	opDeregister: {name: "deregister"},
	opCrash:      {name: "crash"},
	opRestore:    {name: "restore"},
	opExpire:     {name: "expire"},
	opSnapshot:   {name: "snapshot"},
	opDigest:     {name: "digest"},
	opCorrupt:    {name: "corrupt"},
	opArm:        {name: "arm"},
}

// nodeBatch is what one request body decodes into on a node process:
// the batch arguments of the substrate call its opcode makes. Pooled, so
// a steady stream of floods allocates nothing.
type nodeBatch struct {
	fl     flood          // opPost: posts, keys; opQuery, opQueryAll: reqs, keys → ans, all
	up     []bool         // opQuery, opQueryAll: per queried node, whether it is up to answer
	regs   []liveReg      // opRegister, opDeregister
	rows   []rowID        // opExpire
	nodes  []graph.NodeID // opCrash, opRestore
	ranges [][2]int       // opSnapshot, opDigest
	inject []corruptOp    // opCorrupt
	lies   []forgeOp      // opArm

	// ports interns the ports opQuery and opQueryAll records name; it
	// outlives the frame with the pooled batch (see port).
	ports map[string]core.Port
}

// maxInternedPorts bounds a batch's port intern table. A peer naming a
// new port in every frame empties the table each time it reaches this
// size: what a peer sends sizes nothing.
const maxInternedPorts = 1024

// port returns the port the wire bytes p spell, as the string an earlier
// frame on this batch already copied out, so a flood of a known port
// decodes without allocating.
func (b *nodeBatch) port(p []byte) core.Port {
	if port, ok := b.ports[string(p)]; ok {
		return port
	}
	if len(b.ports) >= maxInternedPorts {
		clear(b.ports)
	}
	port := core.Port(p)
	b.ports[string(port)] = port
	return port
}

var nodeBatches = sync.Pool{New: func() any { return &nodeBatch{ports: make(map[string]core.Port)} }}

// newNodeBatch returns an empty batch from the pool; release returns it.
func newNodeBatch() *nodeBatch {
	b := nodeBatches.Get().(*nodeBatch)
	fl := &b.fl
	fl.reqs, fl.keys, fl.posts, fl.all = fl.reqs[:0], fl.keys[:0], fl.posts[:0], fl.all[:0]
	b.up, b.regs, b.rows, b.nodes = b.up[:0], b.regs[:0], b.rows[:0], b.nodes[:0]
	b.ranges, b.inject, b.lies = b.ranges[:0], b.inject[:0], b.lies[:0]
	return b
}

func (b *nodeBatch) release() { nodeBatches.Put(b) }

// Response status bytes.
const (
	stOK byte = iota
	stNotFound
	stCrashed
	stBadRequest
)

// appendEntry appends one core.Entry to b in wire form.
func appendEntry(b []byte, e core.Entry) []byte {
	b = netwire.AppendString(b, string(e.Port))
	b = netwire.AppendUvarint(b, uint64(e.Addr))
	b = netwire.AppendUvarint(b, e.ServerID)
	b = netwire.AppendUvarint(b, e.Time)
	if e.Active {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendPosting and decodePosting are the posting record of opPost,
// opCorrupt and opSnapshot's first section: the node that caches e.
func appendPosting(b []byte, node graph.NodeID, e core.Entry) []byte {
	return appendEntry(netwire.AppendUvarint(b, uint64(node)), e)
}

func decodePosting(d *netwire.Dec) (graph.NodeID, core.Entry) {
	return graph.NodeID(d.Uvarint()), decodeEntry(d)
}

// appendLiveRec and decodeLiveRec are the liveness record of opRegister
// and opSnapshot's second section.
func appendLiveRec(b []byte, id uint64, port core.Port, node graph.NodeID) []byte {
	b = netwire.AppendUvarint(b, id)
	b = netwire.AppendString(b, string(port))
	return netwire.AppendUvarint(b, uint64(node))
}

func decodeLiveRec(d *netwire.Dec) liveReg {
	return liveReg{id: d.Uvarint(), port: core.Port(d.String()), node: graph.NodeID(d.Uvarint()), from: noNode}
}

// appendRowID and decodeRowID are opExpire's record.
func appendRowID(b []byte, r rowID) []byte {
	b = netwire.AppendUvarint(b, uint64(r.node))
	b = netwire.AppendString(b, string(r.port))
	return netwire.AppendUvarint(b, r.id)
}

func decodeRowID(d *netwire.Dec) rowID {
	return rowID{node: graph.NodeID(d.Uvarint()), port: core.Port(d.String()), id: d.Uvarint()}
}

// appendForgeOp and decodeForgeOp are opArm's record; a silent lie
// carries no entry.
func appendForgeOp(b []byte, op forgeOp) []byte {
	b = netwire.AppendUvarint(b, uint64(op.node))
	b = netwire.AppendString(b, string(op.port))
	if op.rec.silent {
		return append(b, 1)
	}
	return appendEntry(append(b, 0), op.rec.e)
}

func decodeForgeOp(d *netwire.Dec) forgeOp {
	op := forgeOp{node: graph.NodeID(d.Uvarint()), port: core.Port(d.String())}
	if op.rec.silent = d.Byte() == 1; !op.rec.silent {
		op.rec.e = decodeEntry(d)
	}
	return op
}

// decodeEntry consumes one wire-form entry from d.
func decodeEntry(d *netwire.Dec) core.Entry {
	return core.Entry{
		Port:     core.Port(d.String()),
		Addr:     graph.NodeID(d.Uvarint()),
		ServerID: d.Uvarint(),
		Time:     d.Uvarint(),
		Active:   d.Byte() == 1,
	}
}

// decodeEntryFor is decodeEntry reusing port for the entry's port when
// the wire bytes match it — which they always do on a query reply,
// since nodes answer for the port they were asked — so the locate hot
// path decodes entries without copying strings out of the frame
// buffer. A mismatch (a malformed or foreign reply) falls back to the
// copying path rather than mislabeling the entry.
func decodeEntryFor(d *netwire.Dec, port core.Port) core.Entry {
	b := d.Bytes()
	p := port
	if string(b) != string(port) { // compared in place; no allocation
		p = core.Port(b)
	}
	return core.Entry{
		Port:     p,
		Addr:     graph.NodeID(d.Uvarint()),
		ServerID: d.Uvarint(),
		Time:     d.Uvarint(),
		Active:   d.Byte() == 1,
	}
}

// PartitionRange returns the contiguous wire slot range [lo, hi) that
// process i of procs owns in an n-node cluster — the node-shard layout
// cmd/mmctl spawns and NewNetTransport verifies against each process's
// opHello answer. Which graph nodes the slots hold is the transport's
// placement (strategy.Epoch.QueryOrder).
func PartitionRange(n, procs, i int) (lo, hi int) {
	return i * n / procs, (i + 1) * n / procs
}
