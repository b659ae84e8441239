package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// netCoalescer merges concurrent single locates into shared wire
// floods: while one coordinator-side flood is on the wire, every
// locate that arrives queues up behind it, and the whole queue is then
// flushed as one process-grouped batch — one multi-query frame per
// node-shard process instead of one frame per locate. The paper's cost
// model is untouched: passes are charged from the routing tables per
// logical locate, and the batch machinery charges exactly what the
// equivalent sequence of single floods would (pinned by
// TestNetCoalescedEquivalence), so coalescing compresses wire frames,
// never model messages.
//
// The window state machine:
//
//	idle    — no leader. The first locate to arrive appends itself,
//	          sees no leader mark, and becomes the leader.
//	leading — the leader (optionally, see below) waits CoalesceWindow,
//	          then takes up to CoalesceBatch queued ops as one batch
//	          and floods them grouped by replica family. Locates
//	          arriving meanwhile just queue: this is natural batching —
//	          concurrency, not a timer, is what builds batches.
//	handoff — after its flood the leader promotes the oldest still-
//	          queued op to leader and returns; with an empty queue it
//	          clears the leader mark (back to idle). A leader's own op
//	          is always in the batch it flushes, so every locate leads
//	          at most one turn and none waits more than one flood it
//	          isn't part of.
//
// The window wait is adaptive: a leader sleeps only when it was
// promoted — proof a flood just finished with callers still queued,
// i.e. the path is under concurrent load. The first locate after an
// idle period (and every locate of a strictly sequential caller)
// flushes immediately, so low concurrency degenerates to zero-latency
// passthrough of the direct flood path.
type netCoalescer struct {
	c        *coordinator
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	queue   []*coalOp
	flush   []*coalOp // leader's double buffer for the queue head
	leading bool

	coalesced atomic.Int64 // locates that shared a flood with others
	floods    atomic.Int64 // floods carrying more than one locate
}

// defaultCoalesceBatch caps a coalesced flood when NetOptions leaves
// CoalesceBatch zero: big enough to flatten syscall overhead, small
// enough to bound frame size and per-flush decode latency.
const defaultCoalesceBatch = 64

func newNetCoalescer(c *coordinator, window time.Duration, maxBatch int) *netCoalescer {
	if maxBatch <= 0 {
		maxBatch = defaultCoalesceBatch
	}
	return &netCoalescer{c: c, window: window, maxBatch: maxBatch}
}

// coalOp is one queued locate: inputs, result slot, and two buffered
// signal channels (done: result ready; lead: promoted to leader). Ops
// are pooled, so the steady-state queue churn allocates nothing.
type coalOp struct {
	client  graph.NodeID
	port    core.Port
	replica int

	entry core.Entry
	err   error

	done chan struct{}
	lead chan struct{}
}

var coalOpPool = sync.Pool{New: func() any {
	return &coalOp{done: make(chan struct{}, 1), lead: make(chan struct{}, 1)}
}}

// locate runs one locate through the coalescer: enqueue, lead a flush
// turn if no leader is active (or if promoted while waiting), and
// collect the op's result.
func (co *netCoalescer) locate(client graph.NodeID, port core.Port, replica int) (core.Entry, error) {
	op := coalOpPool.Get().(*coalOp)
	op.client, op.port, op.replica = client, port, replica
	op.entry, op.err = core.Entry{}, nil

	co.mu.Lock()
	co.queue = append(co.queue, op)
	lead := !co.leading
	if lead {
		co.leading = true
	}
	co.mu.Unlock()

	if lead {
		co.run(false)
		<-op.done
	} else {
		select {
		case <-op.done:
		case <-op.lead:
			co.run(true)
			<-op.done
		}
	}
	e, err := op.entry, op.err
	coalOpPool.Put(op)
	return e, err
}

// run is one leader turn: optionally wait the adaptive window, take up
// to maxBatch ops off the queue, flood them, then hand leadership to
// the oldest op still queued (or go idle). The caller's own op is at
// the head of the queue when run starts, so it is always in the batch.
func (co *netCoalescer) run(promoted bool) {
	if co.window > 0 && promoted {
		time.Sleep(co.window)
	}
	co.mu.Lock()
	n := len(co.queue)
	if n > co.maxBatch {
		n = co.maxBatch
	}
	batch := append(co.flush[:0], co.queue[:n]...)
	co.flush = batch
	rest := copy(co.queue, co.queue[n:])
	for i := rest; i < len(co.queue); i++ {
		co.queue[i] = nil // drop refs: pooled ops must not pin reuse
	}
	co.queue = co.queue[:rest]
	co.mu.Unlock()

	co.c.flushLocates(batch)
	if len(batch) > 1 {
		co.coalesced.Add(int64(len(batch)))
		co.floods.Add(1)
	}
	// Signal results before handing off leadership: batch aliases
	// co.flush, and the next leader reuses that buffer the moment it is
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

// coalBatch is the pooled request/result workspace of one coalesced
// flush.
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
				cb.reqs = append(cb.reqs, LocateReq{Client: op.client, Port: op.port})
				cb.res = append(cb.res, LocateRes{})
				cb.ops = append(cb.ops, op)
			}
		}
		c.locateBatchReplica(cb.reqs, cb.res, rep)
		for i, op := range cb.ops {
			op.entry, op.err = cb.res[i].Entry, cb.res[i].Err
		}
	}
	cb.ops = cb.ops[:0] // drop refs: pooled ops must not pin reuse
	coalBatchPool.Put(cb)
}
