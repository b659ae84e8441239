// Package sim provides the store-and-forward message-passing substrate the
// locate engines run on: one goroutine per network node, hop-by-hop
// forwarding along shortest-path routing tables, exact message-pass
// accounting, node crash injection and request/reply calls.
//
// The simulator counts cost exactly as the paper does: a message pass (or
// hop) is "the sending of a message from one node to one of its direct
// neighbors". Unicasts cost their path length; multicasts flood the union
// of shortest paths (the spanning-tree broadcast of §2.3.5) and cost one
// pass per tree edge.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"matchmake/internal/graph"
)

// Errors returned by network operations.
var (
	// ErrCrashed reports a send from or to a crashed node.
	ErrCrashed = errors.New("sim: node crashed")
	// ErrNoRoute reports an unreachable or crash-blocked destination.
	ErrNoRoute = errors.New("sim: no route")
	// ErrClosed reports use of a closed network.
	ErrClosed = errors.New("sim: network closed")
	// ErrNoReply reports a Call whose remote handler returned without
	// replying.
	ErrNoReply = errors.New("sim: no reply")
)

// Message is a delivered network message.
type Message struct {
	From    graph.NodeID
	To      graph.NodeID
	Payload any

	reply chan any // non-nil for Call requests
	req   *count   // the originator's request this message belongs to, or nil
	net   *Network
}

// CanReply reports whether the message came from Call and expects a reply.
func (m *Message) CanReply() bool { return m.reply != nil }

// Reply routes a response back to the caller, paying the return-path hops.
// It is a no-op error if the message did not come from Call.
func (m *Message) Reply(payload any) error {
	if m.reply == nil {
		return fmt.Errorf("sim: reply to one-way message")
	}
	// The reply travels back through the network and pays for its hops.
	if _, err := m.net.traverse(m.To, m.From); err != nil {
		return err
	}
	select {
	case m.reply <- payload:
	default:
		// A Call takes one reply; a second is dropped.
	}
	return nil
}

// Send routes a one-way message from the node handling m to to, as part
// of the request m belongs to: the originator waiting on that request
// (Call, Flood) also waits for this message and whatever it causes.
func (m *Message) Send(to graph.NodeID, payload any) error {
	return m.net.send(m.To, to, payload, m.req)
}

// Handler processes messages delivered to a node. By default each
// delivery runs in its own goroutine, so handlers of one node may run
// concurrently — a node is a processor with internal concurrency, not a
// single thread. This is what lets a server process block inside a
// handler on a nested request/locate (§1.3's hierarchy of services)
// while the same node keeps answering name-server traffic. Handlers
// must synchronize shared state. Note that a network switched to
// SetInlineHandlers(true) — as the cluster layer's SimTransport does to
// its own network — revokes the may-block allowance: there, handlers
// run on the node's delivery loop and must never wait for a message
// delivered to their own node.
//
// The simulator has no clock: an originator (Call, Flood) learns that its
// request is over by counting the request's messages in at delivery and
// out when their handler returns. The count relies on one rule: whatever
// a handler sends because of msg, it sends before returning and through
// msg — msg.Reply, msg.Send — never later from a goroutine it leaves
// behind, and never through the Network, whose sends belong to no request.
type Handler func(self graph.NodeID, msg Message)

// Network is a running simulation over a fixed graph. Create with New,
// install handlers, then exchange messages; Close stops all node
// goroutines.
type Network struct {
	g       *graph.Graph
	routing atomic.Pointer[graph.Routing]

	nodes   []*node
	crashed []atomic.Bool

	hops     atomic.Int64 // total message passes, the paper's cost measure
	messages atomic.Int64 // total messages injected
	dropped  atomic.Int64 // messages lost to crashes / no route

	// inflight counts every undelivered or in-handler message; Drain and
	// Close wait on it. A request's own count (Message.req) is the same
	// counter scoped to the messages one Call or Flood caused.
	inflight *count

	closed atomic.Bool
	inline atomic.Bool
	wg     sync.WaitGroup
}

// count is a counter of undelivered or in-handler messages that can be
// waited on for zero. It is cond-guarded rather than a WaitGroup because
// senders keep adding while other goroutines wait: a WaitGroup forbids
// Add racing Wait across zero, a condition variable does not. A nil
// *count counts nothing.
type count struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func newCount() *count {
	c := &count{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *count) add(delta int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n += delta
	if c.n == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// wait blocks until the count passes through zero.
func (c *count) wait() {
	c.mu.Lock()
	for c.n > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// handled counts msg out of the network and out of its request: its
// handler has returned, or it was consumed unhandled.
func (n *Network) handled(msg Message) {
	msg.req.add(-1)
	n.inflight.add(-1)
}

type node struct {
	id      graph.NodeID
	handler atomic.Pointer[Handler]

	mu      sync.Mutex
	queue   []Message
	stopped bool // the delivery loop has exited; deliver drops
	wake    chan struct{}
}

// New builds a network over g with precomputed routing tables.
func New(g *graph.Graph) (*Network, error) {
	routing, err := graph.NewRouting(g)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	n := &Network{
		g:        g,
		nodes:    make([]*node, g.N()),
		crashed:  make([]atomic.Bool, g.N()),
		inflight: newCount(),
	}
	n.routing.Store(routing)
	for i := range n.nodes {
		nd := &node{id: graph.NodeID(i), wake: make(chan struct{}, 1)}
		n.nodes[i] = nd
		n.wg.Add(1)
		go n.runNode(nd)
	}
	return n, nil
}

func (n *Network) runNode(nd *node) {
	defer n.wg.Done()
	for {
		nd.mu.Lock()
		for len(nd.queue) == 0 {
			if n.closed.Load() {
				nd.stopped = true
				nd.mu.Unlock()
				return
			}
			nd.mu.Unlock()
			<-nd.wake
			nd.mu.Lock()
		}
		msg := nd.queue[0]
		nd.queue = nd.queue[1:]
		nd.mu.Unlock()

		if h := nd.handler.Load(); h != nil && !n.crashed[nd.id].Load() {
			if n.inline.Load() {
				(*h)(nd.id, msg)
				n.handled(msg)
				continue
			}
			// Run the handler in its own goroutine so a handler that
			// blocks (e.g. on a nested Call) does not stall the node's
			// delivery loop and deadlock its own replies.
			go func() {
				(*h)(nd.id, msg)
				n.handled(msg)
			}()
			continue
		}
		n.handled(msg)
	}
}

// Close stops all node goroutines after in-flight messages drain. The
// wake channels are nudged, never closed, so a send racing Close gets
// ErrClosed, is processed, or is consumed unhandled by a node whose loop
// has exited — it never panics and never leaves a request waiting; each
// node loop re-checks the closed flag before blocking again. Senders
// should still quiesce before Close for deterministic delivery of their
// last messages.
func (n *Network) Close() {
	if n.closed.Swap(true) {
		return
	}
	n.Drain()
	for _, nd := range n.nodes {
		select {
		case nd.wake <- struct{}{}:
		default:
			// A wake is already pending; the node will see the closed
			// flag on its next pass.
		}
	}
	n.wg.Wait()
}

// Graph returns the underlying graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// Routing returns the current routing tables. They are built at creation
// and, like real store-and-forward routers, go stale when nodes crash —
// until RebuildRouting models the routing protocol reconverging.
func (n *Network) Routing() *graph.Routing { return n.routing.Load() }

// RebuildRouting recomputes the next-hop tables over the surviving
// subnetwork, with crashed nodes excluded. This answers §2.4's "problem
// of how, or whether it is still possible, to route the match-making
// messages to their destinations in the surviving subnetwork": after a
// rebuild, traffic detours around the crashes wherever a path survives.
func (n *Network) RebuildRouting() error {
	g := n.g.Clone()
	for v := 0; v < g.N(); v++ {
		if n.crashed[v].Load() {
			if err := g.RemoveNode(graph.NodeID(v)); err != nil {
				return fmt.Errorf("sim: rebuild: %w", err)
			}
		}
	}
	routing, err := graph.NewRouting(g)
	if err != nil {
		return fmt.Errorf("sim: rebuild: %w", err)
	}
	n.routing.Store(routing)
	return nil
}

// SetInlineHandlers switches handler execution between one goroutine per
// delivery (the default, required for handlers that block on nested
// Calls, e.g. the service layer's request dispatch) and inline execution
// on the node's delivery loop. Inline mode removes a goroutine
// spawn/schedule from every message — a large win for high-throughput
// serving layers whose handlers only touch caches and issue one-way
// sends — but a handler that blocks waiting for a message delivered to
// its own node will deadlock that node. Only enable it on networks whose
// installed handlers never block.
func (n *Network) SetInlineHandlers(inline bool) {
	n.inline.Store(inline)
}

// SetHandler installs the message handler for a node. Installing nil
// removes it (messages are then consumed silently).
func (n *Network) SetHandler(v graph.NodeID, h Handler) error {
	if !n.g.Valid(v) {
		return fmt.Errorf("sim: handler: %w", graph.ErrNodeRange)
	}
	if h == nil {
		n.nodes[v].handler.Store(nil)
		return nil
	}
	n.nodes[v].handler.Store(&h)
	return nil
}

// Crash marks a node crashed: it stops processing, cannot originate
// messages, and blocks any route through it.
func (n *Network) Crash(v graph.NodeID) error {
	if !n.g.Valid(v) {
		return fmt.Errorf("sim: crash: %w", graph.ErrNodeRange)
	}
	n.crashed[v].Store(true)
	return nil
}

// Restore clears the crash flag of a node.
func (n *Network) Restore(v graph.NodeID) error {
	if !n.g.Valid(v) {
		return fmt.Errorf("sim: restore: %w", graph.ErrNodeRange)
	}
	n.crashed[v].Store(false)
	return nil
}

// Crashed reports whether v is crashed.
func (n *Network) Crashed(v graph.NodeID) bool {
	return n.g.Valid(v) && n.crashed[v].Load()
}

// Hops returns the total number of message passes so far.
func (n *Network) Hops() int64 { return n.hops.Load() }

// Messages returns the total number of messages injected so far.
func (n *Network) Messages() int64 { return n.messages.Load() }

// Dropped returns the number of messages lost to crashes or missing routes.
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// ResetCounters zeroes the hop/message/drop counters.
func (n *Network) ResetCounters() {
	n.hops.Store(0)
	n.messages.Store(0)
	n.dropped.Store(0)
}

// traverse walks the routed path from u to v, paying one hop per edge. It
// stops early (returning ErrNoRoute or ErrCrashed) if the path crosses a
// crashed node; hops already taken remain counted, as in a real network.
func (n *Network) traverse(u, v graph.NodeID) (int, error) {
	if n.crashed[u].Load() {
		return 0, fmt.Errorf("traverse from %d: %w", u, ErrCrashed)
	}
	if u == v {
		return 0, nil
	}
	routing := n.routing.Load()
	taken := 0
	at := u
	for at != v {
		next := routing.NextHop(at, v)
		if next == -1 {
			n.dropped.Add(1)
			return taken, fmt.Errorf("traverse %d->%d: %w", u, v, ErrNoRoute)
		}
		n.hops.Add(1)
		taken++
		at = next
		if n.crashed[at].Load() {
			n.dropped.Add(1)
			return taken, fmt.Errorf("traverse %d->%d via %d: %w", u, v, at, ErrCrashed)
		}
	}
	return taken, nil
}

// deliver enqueues msg at its destination node and counts it in. A node
// whose loop has exited (Close) consumes it unhandled, so no request
// waits on a message nobody will dequeue.
func (n *Network) deliver(msg Message) {
	nd := n.nodes[msg.To]
	n.inflight.add(1)
	msg.req.add(1)
	nd.mu.Lock()
	if nd.stopped {
		nd.mu.Unlock()
		n.handled(msg)
		return
	}
	nd.queue = append(nd.queue, msg)
	nd.mu.Unlock()
	select {
	case nd.wake <- struct{}{}:
	default:
	}
}

// Send routes a one-way message from from to to, counting one pass per
// hop. Delivery is asynchronous and belongs to no request; a handler
// sending on behalf of the message it is handling uses Message.Send.
func (n *Network) Send(from, to graph.NodeID, payload any) error {
	return n.send(from, to, payload, nil)
}

func (n *Network) send(from, to graph.NodeID, payload any, req *count) error {
	if n.closed.Load() {
		return ErrClosed
	}
	if !n.g.Valid(from) || !n.g.Valid(to) {
		return fmt.Errorf("sim: send: %w", graph.ErrNodeRange)
	}
	n.messages.Add(1)
	if _, err := n.traverse(from, to); err != nil {
		return err
	}
	n.deliver(Message{From: from, To: to, Payload: payload, req: req, net: n})
	return nil
}

// Multicast floods one message from from to every node in targets along
// the union of shortest paths (a spanning-tree broadcast), paying one pass
// per tree edge — the paper's cheap way to address a whole row, subcube or
// line. Unreachable or crash-blocked targets are skipped and counted in
// Dropped; the number of targets actually reached is returned. Delivery
// is asynchronous; Flood is the multicast that waits.
func (n *Network) Multicast(from graph.NodeID, targets []graph.NodeID, payload any) (int, error) {
	return n.multicast(from, targets, payload, nil)
}

// Flood is Multicast as a request: it returns once every message the
// multicast caused — the deliveries and, transitively, whatever their
// handlers sent through them — has been handled. It waits for exactly
// those messages, never for other callers' traffic as Drain would.
func (n *Network) Flood(from graph.NodeID, targets []graph.NodeID, payload any) (int, error) {
	req := newCount()
	reached, err := n.multicast(from, targets, payload, req)
	req.wait()
	return reached, err
}

func (n *Network) multicast(from graph.NodeID, targets []graph.NodeID, payload any, req *count) (int, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	if !n.g.Valid(from) {
		return 0, fmt.Errorf("sim: multicast: %w", graph.ErrNodeRange)
	}
	if n.crashed[from].Load() {
		return 0, fmt.Errorf("sim: multicast from %d: %w", from, ErrCrashed)
	}
	n.messages.Add(1)
	routing := n.routing.Load()
	// Edges already paid for in this multicast: child node -> true.
	paid := map[graph.NodeID]bool{from: true}
	reached := 0
	for _, t := range targets {
		if !n.g.Valid(t) {
			return reached, fmt.Errorf("sim: multicast target %d: %w", t, graph.ErrNodeRange)
		}
		ok := true
		at := from
		for at != t {
			next := routing.NextHop(at, t)
			if next == -1 {
				n.dropped.Add(1)
				ok = false
				break
			}
			if !paid[next] {
				n.hops.Add(1)
				paid[next] = true
			}
			at = next
			if n.crashed[at].Load() {
				n.dropped.Add(1)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		n.deliver(Message{From: from, To: t, Payload: payload, req: req, net: n})
		reached++
	}
	return reached, nil
}

// Call routes a request to to and returns the reply the remote handler
// sent via Message.Reply, or ErrNoReply the instant that handler has
// returned without one (or the message was consumed by a node that
// crashed after it was routed). Request and reply hops are both counted.
func (n *Network) Call(from, to graph.NodeID, payload any) (any, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if !n.g.Valid(from) || !n.g.Valid(to) {
		return nil, fmt.Errorf("sim: call: %w", graph.ErrNodeRange)
	}
	n.messages.Add(1)
	if _, err := n.traverse(from, to); err != nil {
		return nil, err
	}
	reply := make(chan any, 1)
	req := newCount()
	n.deliver(Message{From: from, To: to, Payload: payload, reply: reply, req: req, net: n})
	req.wait()
	select {
	case v := <-reply:
		return v, nil
	default:
		return nil, fmt.Errorf("sim: call %d->%d: %w", from, to, ErrNoReply)
	}
}

// Drain blocks until every delivered message has been processed — i.e.
// until the whole network passes through a quiescent instant. Requests
// (Call, Flood) wait for their own messages and do not need it; it is for
// callers of the fire-and-forget Send and Multicast. Messages injected by
// other goroutines while Drain waits extend the wait; the guarantee is
// quiescence at some moment, not a happens-before fence against
// concurrent senders.
func (n *Network) Drain() { n.inflight.wait() }
