package cluster

import (
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// The node protocol: every request body is a sequence of varint-coded
// fields (see internal/netwire for the frame and codec layer). A node
// process serves a contiguous range of graph nodes; the client-side
// NetTransport fans each match-making operation out to the processes
// owning the involved nodes and keeps the paper's pass accounting
// locally, so the wire layer moves state but never charges costs.
const (
	// opHello returns (n, lo, hi): the graph size the process was built
	// for and the node range it owns. The transport handshakes every
	// process with it and refuses mismatched layouts.
	opHello byte = iota + 1
	// opPost merges postings into the receiver's store: a sequence of
	// (targetNode, entry) items until end of body. Items for crashed or
	// foreign nodes are dropped, matching the fast path's silent skip of
	// crashed rendezvous nodes.
	opPost
	// opQuery reads rendezvous caches: a sequence of sub-requests
	// (port, nodeCount, nodes...). The response answers node by node in
	// request order: flag byte 0 (miss — silent, as in §1.5) or 1
	// followed by the freshest entry.
	opQuery
	// opQueryAll is opQuery returning every active entry per node:
	// response is per node (count, entries...).
	opQueryAll
	// opProbe asks the owner of hinted addresses whether each (serverID,
	// port) still lives at its addr: a sequence of (port, addr, serverID)
	// records until end of body — the concurrent probes the coordinator
	// coalesced for this process; a lone probe is a sequence of one. The
	// response body answers record by record with one status byte: stOK,
	// stNotFound (live node, negative answer), stCrashed (the address is
	// down — no answer) or stBadRequest (addr not owned here).
	opProbe
	// opRegister records server instances in the owner's live table, the
	// table opProbe answers from: a sequence of (serverID, port, node)
	// records until end of body — a batch's registrations homed at this
	// process, or a rescale chunk's; a lone registration is a sequence of
	// one. The response body answers record by record with one status
	// byte: stOK (recorded), stCrashed (the node is down; not recorded) or
	// stBadRequest (node not owned here; not recorded). opSnapshot dumps
	// liveness records in the same form, so a transfer replays them as is.
	opRegister
	// opDeregister removes a server instance from the live table.
	opDeregister
	// opCrash marks an owned node failed: postings and queries for it
	// are dropped and its volatile store is cleared.
	opCrash
	// opRestore brings an owned node back (volatile cache stays lost).
	opRestore
	// opExpire drops cached postings by identity: a sequence of
	// (targetNode, port, serverID) triples until end of body. It is the
	// epoch garbage collection of the elastic membership protocol —
	// postings belonging only to a retired epoch expire where they lie.
	// In the paper's model this is each node's local decision, so the
	// operation charges no message passes (the wire is the vehicle, as
	// everywhere else in this protocol).
	opExpire
	// opSnapshot dumps the owned partition state for a node range
	// (request: lo, hi): postings including tombstones as (count, then
	// node+entry each), liveness records as (count, then
	// id+port+node each), and crash marks as (count, then node each).
	// It is the donor side of a coordinator-driven partition transfer
	// when the cluster rescales across a different process set.
	opSnapshot
	// opDigest returns the anti-entropy posting digests for a node range
	// (request: lo, hi): hi−lo uvarints, one per node, each the xor of
	// postingDigest over the node's active cached entries (tombstones
	// excluded). Digest exchange is §5 maintenance metadata, so — like
	// opExpire — it charges no message passes; only the repair traffic a
	// mismatch triggers is charged, at its real multicast cost.
	opDigest
	// opCorrupt is the adversarial state-corruption injector: a sequence
	// of ops until end of body, each a kind byte followed by its operands
	// — 0 drops a cached posting (targetNode, port, serverID), 1 force-
	// injects a raw entry (targetNode, entry) bypassing the §2.1
	// timestamp merge rule. A fault-injection backdoor for chaos testing
	// only; it models silent state corruption, not a protocol message,
	// and charges nothing.
	opCorrupt
	// opArm installs (or, with an empty body, removes) the Byzantine
	// answer-forging plan on a node process: a sequence of records until
	// end of body, each (targetNode, port, silent byte, then — unless
	// silent — the forged entry). An armed node answers opQuery/
	// opQueryAll floods for that port with the forged entry (or not at
	// all) instead of consulting its store. Like opCorrupt it is a chaos
	// backdoor, not a protocol message, and charges nothing; each opArm
	// replaces the process's whole plan, so arming ships one frame to
	// every process (empty for processes with no lying nodes).
	opArm
)

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

// appendLiveRec appends one liveness record in the form opRegister
// takes and opSnapshot dumps.
func appendLiveRec(b []byte, id uint64, port core.Port, node graph.NodeID) []byte {
	b = netwire.AppendUvarint(b, id)
	b = netwire.AppendString(b, string(port))
	return netwire.AppendUvarint(b, uint64(node))
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

// PartitionRange returns the contiguous node range [lo, hi) that
// process i of procs owns in an n-node cluster — the node-shard layout
// cmd/mmctl spawns and NewNetTransport verifies against each process's
// opHello answer.
func PartitionRange(n, procs, i int) (lo, hi int) {
	return i * n / procs, (i + 1) * n / procs
}
