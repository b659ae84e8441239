package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// netCoalescer merges concurrent wire reads of one kind into shared
// round trips: while one batch is on the wire, every call that arrives
// queues up behind it, and the whole queue then leaves as one
// process-grouped batch — one frame per node-shard process instead of
// one per call. A NetTransport runs two instances of this one state
// machine: the coordinator's merges single locates into multi-query
// floods (flushLocates), the wire substrate's merges hint probes into
// multi-record opProbe frames (flushProbes). The paper's cost model is
// untouched: passes are charged from the routing tables per logical
// locate or probe, and a batch charges exactly what the equivalent
// sequence of single calls would (pinned by TestNetCoalescedEquivalence),
// so coalescing compresses wire frames, never model messages.
//
// The state machine:
//
//	idle    — no leader. The first call to arrive appends itself, sees
//	          no leader mark, and becomes the leader.
//	leading — the leader yields the processor once, holding no lock,
//	          then seals up to maxBatch queued ops as one batch and
//	          flushes it. Calls arriving meanwhile just queue.
//	handoff — after its flush the leader promotes the oldest still-
//	          queued op to leader and returns; with an empty queue it
//	          clears the leader mark (back to idle). A leader's own op
//	          is always in the batch it flushes, so every call leads at
//	          most one turn and none waits more than one round trip it
//	          isn't part of.
//
// The yield is what fills batches. The callers a flush just released
// come back within microseconds of each other, and without it the first
// one back seals a batch of one while the others — already runnable,
// not yet enqueued — wait out that whole round trip: two closed-loop
// callers settle into pair, single, pair, single. runtime.Gosched lets
// exactly the goroutines that are runnable now (the ones the last flush
// woke, a burst the gateway just decoded) enqueue first, and returns at
// once when there are none, so a strictly sequential caller still
// flushes alone with no added wait. A timer cannot do this — the
// shortest sleep the runtime honours is many loopback round trips —
// and a spin burns the core the node shards need.
type netCoalescer struct {
	flush    func(batch []*coalOp)
	maxBatch int

	mu      sync.Mutex
	queue   []*coalOp
	buf     []*coalOp // leader's double buffer for the queue head
	leading bool

	coalesced atomic.Int64 // calls that shared a flush with others
	shared    atomic.Int64 // flushes carrying more than one call
}

// defaultCoalesceBatch caps a coalesced flush when NetOptions leaves
// CoalesceBatch zero: big enough to flatten syscall overhead, small
// enough to bound frame size and per-flush decode latency.
const defaultCoalesceBatch = 64

func newNetCoalescer(flush func([]*coalOp), maxBatch int) *netCoalescer {
	if maxBatch <= 0 {
		maxBatch = defaultCoalesceBatch
	}
	return &netCoalescer{flush: flush, maxBatch: maxBatch}
}

// coalOp is one queued call of either kind — a locate reads (node =
// client, port, replica) and is answered in entry/err, a probe reads
// (node = hinted address, port, id) and is answered in ans — plus two
// buffered signal channels (done: result ready; lead: promoted to
// leader). Ops are pooled, so the steady-state queue churn allocates
// nothing.
type coalOp struct {
	node    graph.NodeID
	port    core.Port
	replica int
	id      uint64

	entry core.Entry
	err   error
	ans   probeAnswer

	done chan struct{}
	lead chan struct{}
}

var coalOpPool = sync.Pool{New: func() any {
	return &coalOp{done: make(chan struct{}, 1), lead: make(chan struct{}, 1)}
}}

// do runs op through the coalescer: enqueue, lead a flush turn if no
// leader is active (or if promoted while waiting), and return once the
// op's result is in.
func (co *netCoalescer) do(op *coalOp) {
	co.mu.Lock()
	co.queue = append(co.queue, op)
	lead := !co.leading
	if lead {
		co.leading = true
	}
	co.mu.Unlock()

	if !lead {
		select {
		case <-op.done:
			return
		case <-op.lead:
		}
	}
	co.run()
	<-op.done
}

// run is one leader turn: yield once, take up to maxBatch ops off the
// queue, flush them, then hand leadership to the oldest op still queued
// (or go idle). The caller's own op is at the head of the queue when
// run starts, so it is always in the batch.
func (co *netCoalescer) run() {
	runtime.Gosched()
	co.mu.Lock()
	n := min(len(co.queue), co.maxBatch)
	batch := append(co.buf[:0], co.queue[:n]...)
	co.buf = batch
	rest := copy(co.queue, co.queue[n:])
	clear(co.queue[rest:]) // drop refs: pooled ops must not pin reuse
	co.queue = co.queue[:rest]
	co.mu.Unlock()

	co.flush(batch)
	if len(batch) > 1 {
		co.coalesced.Add(int64(len(batch)))
		co.shared.Add(1)
	}
	// Signal results before handing off leadership: batch aliases
	// co.buf, and the next leader reuses that buffer the moment it is
	// promoted, so every read of batch must come first. done is
	// buffered, so the leader never blocks here.
	for _, op := range batch {
		op.done <- struct{}{}
	}

	co.mu.Lock()
	var next *coalOp
	if len(co.queue) > 0 {
		next = co.queue[0]
	} else {
		co.leading = false
	}
	co.mu.Unlock()
	if next != nil {
		next.lead <- struct{}{}
	}
}

// coalescedLocate is LocateReplica through the coalescer.
func (c *coordinator) coalescedLocate(client graph.NodeID, port core.Port, replica int) (core.Entry, error) {
	op := coalOpPool.Get().(*coalOp)
	op.node, op.port, op.replica = client, port, replica
	c.coal.do(op)
	e, err := op.entry, op.err
	op.err = nil
	coalOpPool.Put(op)
	return e, err
}

// coalBatch is the pooled request/result workspace of one coalesced
// flood.
type coalBatch struct {
	reqs []LocateReq
	res  []LocateRes
	ops  []*coalOp
}

var coalBatchPool = sync.Pool{New: func() any { return &coalBatch{} }}

// flushLocates executes one coalesced batch: the ops are grouped by
// replica family — in practice almost always all family 0, since
// fallthrough re-floods are rare — and each group runs as one batch
// flood, whose per-request charges are exactly those of the equivalent
// sequence of single floods (a single flood is a batch of one). That
// equality is what keeps coalesced and uncoalesced pass accounting
// identical.
func (c *coordinator) flushLocates(batch []*coalOp) {
	lo, hi := batch[0].replica, batch[0].replica
	for _, op := range batch[1:] {
		lo, hi = min(lo, op.replica), max(hi, op.replica)
	}
	cb := coalBatchPool.Get().(*coalBatch)
	for rep := lo; rep <= hi; rep++ {
		cb.reqs, cb.res, cb.ops = cb.reqs[:0], cb.res[:0], cb.ops[:0]
		for _, op := range batch {
			if op.replica == rep {
				cb.reqs = append(cb.reqs, LocateReq{Client: op.node, Port: op.port})
				cb.res = append(cb.res, LocateRes{})
				cb.ops = append(cb.ops, op)
			}
		}
		c.locateBatchReplica(cb.reqs, cb.res, rep)
		for i, op := range cb.ops {
			op.entry, op.err = cb.res[i].Entry, cb.res[i].Err
		}
	}
	clear(cb.ops[:cap(cb.ops)]) // drop refs: pooled ops must not pin reuse
	coalBatchPool.Put(cb)
}
