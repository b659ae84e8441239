package cluster

import (
	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// substrate is where rendezvous rows physically sit. The coordinator
// decides everything the paper's model defines — which nodes a posting
// or a flood reaches, what it costs, who is registered where — and the
// substrate only moves rows: it stores what it is handed, answers reads
// for the (request, node) pairs it is asked about, keeps the liveness
// records probes answer from, and executes the chaos backdoors. It
// charges nothing and selects nothing, and it is never handed a crashed
// node: crash marks are the coordinator's, which filters targets before
// every call. Two implementations exist: memSubstrate (a Store) and
// wireSubstrate (node processes). Both are safe for concurrent use.
//
// No closure crosses this interface — a func value would escape and put
// an allocation on every locate — so reads take their family scope as a
// value and return their answers in the caller's pooled flood.
//
// Every key list handed to post, readFreshest or readAll is grouped by
// request: the keys of one request are adjacent and the requests ascend,
// the order the coordinator's appendLive produces. A request is one
// port, so a substrate resolves the port once per run of keys —
// memSubstrate one Store.Rows lookup, wireSubstrate one (port, nodes…)
// sub-request per owning process — instead of once per row. A substrate
// stays correct on an ungrouped list; it only pays a lookup per run.
// Every history's mem and net columns assert the rule on every list
// (groupedSubstrate, history_test.go).
type substrate interface {
	// kind names the substrate in transport names ("mem", "net").
	kind() string
	// close releases the substrate's resources.
	close()

	// post merges entries[rows[i].req] into node rows[i].node's cache
	// under the §2.1 timestamp rule; rows is grouped by req.
	post(entries []core.Entry, rows []rowKey)
	// readFreshest answers every key of fl: fl.ans[i] receives the
	// freshest active row node fl.keys[i].node holds for the port of
	// request fl.keys[i].req, within fl.scope. Silent nodes — a miss, an
	// unreachable process, an armed node under selective silence — are
	// left untouched (the coordinator clears fl.ans beforehand).
	readFreshest(fl *flood)
	// readAll appends to fl.all every active row, within fl.scope, that
	// each key's node holds for its request's port.
	readAll(fl *flood)

	// probe asks the host of addr whether instance id of port lives
	// there.
	probe(port core.Port, addr graph.NodeID, id uint64) probeAnswer
	// register lands a batch of liveness records, each where probes of
	// its node are answered — a lone registration is a batch of one.
	// Records are independent: a refused one (its host holds the node
	// crashed, or cannot be reached) does not stop the others, and the
	// error returned is that of the first refused record in batch order.
	// deregister removes instance id's record from node.
	register(recs []liveReg) error
	deregister(id uint64, node graph.NodeID)

	// crash drops every row cached at node (its volatile state is
	// lost); restore lets node store rows again.
	crash(node graph.NodeID)
	restore(node graph.NodeID)
	// expire drops rows by identity where they lie — local garbage
	// collection, never a message.
	expire(rows []rowID)

	// digests fills dg[v] with the xor of postingDigest over node v's
	// active rows and marks ok[v] for every node it could read; dump
	// returns every row (tombstones included) cached at each of nodes —
	// a node that could not be read is absent from the result, a
	// readable node with no rows is present and empty.
	digests(dg []uint64, ok []bool)
	dump(nodes []graph.NodeID) map[graph.NodeID][]core.Entry

	// corrupt applies an adversarial plan straight to the rows,
	// bypassing the merge rule; arm installs plan as the lies the named
	// nodes tell instead of reading their rows, replacing any previous
	// plan (an empty plan disarms).
	corrupt(plan []corruptOp) error
	arm(plan []forgeOp) error
}

// liveReg is one record of a register batch: instance id of port lives
// at node, moving there from node from when from is not noNode.
type liveReg struct {
	id         uint64
	port       core.Port
	node, from graph.NodeID
}

// noNode is liveReg's "no previous home" marker.
const noNode = graph.NodeID(-1)

// rowKey addresses one row access of a batched substrate call: node's
// row for request (or entry) number req of the batch.
type rowKey struct {
	req  int32
	node graph.NodeID
}

// rowID names one cached row by identity, for expire.
type rowID struct {
	node graph.NodeID
	port core.Port
	id   uint64
}

// rowAnswer is one node's reply to a freshest read.
type rowAnswer struct {
	e  core.Entry
	ok bool
}

// keyedEntry is one row of a read-all reply: e, held by the node of
// fl.keys[key].
type keyedEntry struct {
	key int32
	e   core.Entry
}

// probeAnswer is a probed host's reply.
type probeAnswer uint8

const (
	probeMiss   probeAnswer = iota // the host answered: not here
	probeHit                       // the host answered: lives here
	probeSilent                    // no answer came back
)

// scope family-scopes a read: a rendezvous node answers a family-k
// flood only with rows it holds as a member of Pₖ(origin), which keeps
// the replica families (and, mid-migration, the two epochs) independent
// channels even where their node sets overlap. The zero scope admits
// every row. A small value, not a predicate func, so it does not escape.
type scope struct {
	in  familyGeometry // nil admits every row
	fam int
}

// familyGeometry is what family-scoping asks of an epoch (or, on the
// simulator, a replicated strategy): how many replica families there
// are, and whether node at belongs to family k's posting set of a
// server at origin.
type familyGeometry interface {
	Replicas() int
	InPost(k int, origin, at graph.NodeID) bool
}

// on reports whether the scope filters at all; a scoped wire flood must
// see every candidate row per node (opQueryAll) to reduce them itself.
func (s scope) on() bool { return s.in != nil }

// admits reports whether a row whose origin is origin, held at node at,
// belongs to the scope's family.
func (s scope) admits(origin, at graph.NodeID) bool {
	return s.in == nil || s.in.InPost(s.fam, origin, at)
}

// flood is the pooled workspace of one batched substrate call. For a
// read the coordinator fills reqs, keys (grouped by request, in request
// order) and scope, the substrate fills ans or all, and the coordinator
// reduces them; for a write it stages posts, their keys and their summed
// cost (see coordinator.stage). Pooled so a steady stream of locates
// allocates nothing; the one-element arrays let a single locate run as a
// batch of one, also without.
type flood struct {
	reqs  []LocateReq
	keys  []rowKey
	scope scope
	ans   []rowAnswer  // ans[i] answers keys[i]
	all   []keyedEntry // read-all replies

	posts []core.Entry // staged postings; keys[i].req indexes them
	cost  int64        // their summed multicast cost

	found   []bool // per request, coordinator-side
	stripe  int    // the pass stripe this flood charges on, fixed at creation
	oneReq  [1]LocateReq
	oneRes  [1]LocateRes
	oneFrom [1]graph.NodeID
}
