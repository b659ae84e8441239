package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/topology"
)

func lineNet(t *testing.T, n int) *Network {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	net, err := New(g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(net.Close)
	return net
}

// recorder collects delivered payloads at a node.
type recorder struct {
	mu   sync.Mutex
	got  []any
	from []graph.NodeID
}

func (r *recorder) handler(_ graph.NodeID, msg Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, msg.Payload)
	r.from = append(r.from, msg.From)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func TestSendCountsHops(t *testing.T) {
	net := lineNet(t, 5)
	var rec recorder
	if err := net.SetHandler(4, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Send(0, 4, "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Drain()
	if rec.count() != 1 {
		t.Fatalf("delivered %d messages, want 1", rec.count())
	}
	if net.Hops() != 4 {
		t.Fatalf("hops = %d, want 4", net.Hops())
	}
	if net.Messages() != 1 {
		t.Fatalf("messages = %d, want 1", net.Messages())
	}
}

func TestSendToSelf(t *testing.T) {
	net := lineNet(t, 3)
	var rec recorder
	if err := net.SetHandler(1, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Send(1, 1, "loop"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Drain()
	if rec.count() != 1 || net.Hops() != 0 {
		t.Fatalf("delivered=%d hops=%d, want 1,0", rec.count(), net.Hops())
	}
}

func TestSendInvalidNode(t *testing.T) {
	net := lineNet(t, 3)
	if err := net.Send(0, 9, "x"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestSendThroughCrashedNode(t *testing.T) {
	net := lineNet(t, 5)
	var rec recorder
	if err := net.SetHandler(4, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Crash(2); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	err := net.Send(0, 4, "blocked")
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	net.Drain()
	if rec.count() != 0 {
		t.Fatal("message should not be delivered through a crash")
	}
	// Hops up to the crash are still paid: 0->1->2 = 2 hops.
	if net.Hops() != 2 {
		t.Fatalf("hops = %d, want 2 (paid up to the crash)", net.Hops())
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
}

func TestCrashedSourceCannotSend(t *testing.T) {
	net := lineNet(t, 3)
	if err := net.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.Send(0, 2, "x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if err := net.Restore(0); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := net.Send(0, 2, "x"); err != nil {
		t.Fatalf("Send after restore: %v", err)
	}
}

func TestCrashedNodeDoesNotProcess(t *testing.T) {
	net := lineNet(t, 3)
	var rec recorder
	if err := net.SetHandler(2, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	// Crash after routing but before processing is impossible to schedule
	// deterministically; crash first and verify traverse rejects at the
	// destination.
	if err := net.Crash(2); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.Send(0, 2, "x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	net.Drain()
	if rec.count() != 0 {
		t.Fatal("crashed node processed a message")
	}
}

func TestMulticastSharesPathEdges(t *testing.T) {
	net := lineNet(t, 6)
	var rec recorder
	for _, v := range []graph.NodeID{3, 4, 5} {
		if err := net.SetHandler(v, rec.handler); err != nil {
			t.Fatalf("SetHandler: %v", err)
		}
	}
	reached, err := net.Multicast(0, []graph.NodeID{3, 4, 5}, "post")
	if err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	net.Drain()
	if reached != 3 || rec.count() != 3 {
		t.Fatalf("reached=%d delivered=%d, want 3,3", reached, rec.count())
	}
	// Tree edges 0-1,1-2,2-3,3-4,4-5 paid once each.
	if net.Hops() != 5 {
		t.Fatalf("hops = %d, want 5", net.Hops())
	}
}

func TestMulticastSkipsBlockedTargets(t *testing.T) {
	net := lineNet(t, 6)
	var rec recorder
	for _, v := range []graph.NodeID{1, 5} {
		if err := net.SetHandler(v, rec.handler); err != nil {
			t.Fatalf("SetHandler: %v", err)
		}
	}
	if err := net.Crash(3); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	reached, err := net.Multicast(0, []graph.NodeID{1, 5}, "post")
	if err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	net.Drain()
	if reached != 1 || rec.count() != 1 {
		t.Fatalf("reached=%d delivered=%d, want 1,1", reached, rec.count())
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
}

func TestMulticastFromCrashed(t *testing.T) {
	net := lineNet(t, 3)
	if err := net.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := net.Multicast(0, []graph.NodeID{1}, "x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
}

func TestMulticastSelfOnly(t *testing.T) {
	net := lineNet(t, 3)
	var rec recorder
	if err := net.SetHandler(1, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	reached, err := net.Multicast(1, []graph.NodeID{1}, "self")
	if err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	net.Drain()
	if reached != 1 || net.Hops() != 0 {
		t.Fatalf("reached=%d hops=%d, want 1,0", reached, net.Hops())
	}
}

func TestCallRoundTrip(t *testing.T) {
	net := lineNet(t, 4)
	err := net.SetHandler(3, func(self graph.NodeID, msg Message) {
		if !msg.CanReply() {
			return
		}
		if err := msg.Reply("pong"); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	got, err := net.Call(0, 3, "ping")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != "pong" {
		t.Fatalf("reply = %v, want pong", got)
	}
	// 3 hops out, 3 hops back.
	if net.Hops() != 6 {
		t.Fatalf("hops = %d, want 6", net.Hops())
	}
}

func TestCallNoReply(t *testing.T) {
	net := lineNet(t, 3)
	// A handler that returns without replying is an immediate named
	// error, as is a node with no handler at all.
	if err := net.SetHandler(2, func(graph.NodeID, Message) {}); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	for _, to := range []graph.NodeID{2, 1} {
		if _, err := net.Call(0, to, "ping"); !errors.Is(err, ErrNoReply) {
			t.Fatalf("call to %d: err = %v, want ErrNoReply", to, err)
		}
	}
}

func TestReplyToOneWayFails(t *testing.T) {
	net := lineNet(t, 3)
	var replyErr atomic.Value
	err := net.SetHandler(2, func(self graph.NodeID, msg Message) {
		replyErr.Store(msg.Reply("nope"))
	})
	if err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Send(0, 2, "oneway"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Drain()
	if v := replyErr.Load(); v == nil {
		t.Fatal("reply error not recorded")
	} else if v.(error) == nil {
		t.Fatal("Reply on one-way message should fail")
	}
}

func TestHandlerForwarding(t *testing.T) {
	// Node 1 forwards everything to node 2; chained in-flight accounting
	// must keep Drain correct.
	net := lineNet(t, 3)
	var rec recorder
	if err := net.SetHandler(2, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	err := net.SetHandler(1, func(self graph.NodeID, msg Message) {
		if err := net.Send(self, 2, msg.Payload); err != nil {
			t.Errorf("forward: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Send(0, 1, "relay"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Drain()
	if rec.count() != 1 {
		t.Fatalf("delivered %d, want 1", rec.count())
	}
	if net.Hops() != 2 {
		t.Fatalf("hops = %d, want 2", net.Hops())
	}
}

func TestResetCounters(t *testing.T) {
	net := lineNet(t, 3)
	if err := net.Send(0, 2, "x"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Drain()
	net.ResetCounters()
	if net.Hops() != 0 || net.Messages() != 0 || net.Dropped() != 0 {
		t.Fatal("counters not reset")
	}
}

func TestClosedNetworkRejectsSends(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	net, err := New(g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	net.Close()
	if err := net.Send(0, 2, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := net.Call(0, 2, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := net.Multicast(0, []graph.NodeID{2}, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	net.Close() // double close is safe
}

func TestRebuildRoutingDetours(t *testing.T) {
	// A 2x3 grid: 0-1-2 / 3-4-5. Crash node 1; the static route 0→2 via 1
	// is blocked until the tables reconverge around the bottom row.
	gr, err := topology.NewGrid(2, 3)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	net, err := New(gr.G)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	var rec recorder
	if err := net.SetHandler(2, rec.handler); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	if err := net.Crash(1); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.Send(0, 2, "x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale-route err = %v, want ErrCrashed", err)
	}
	if err := net.RebuildRouting(); err != nil {
		t.Fatalf("RebuildRouting: %v", err)
	}
	net.ResetCounters()
	if err := net.Send(0, 2, "x"); err != nil {
		t.Fatalf("Send after rebuild: %v", err)
	}
	net.Drain()
	if rec.count() != 1 {
		t.Fatal("message not delivered after rebuild")
	}
	// Detour 0→3→4→5→2 costs 4 hops.
	if net.Hops() != 4 {
		t.Fatalf("detour hops = %d, want 4", net.Hops())
	}
	// Restoring the node and rebuilding again shortens the route back.
	if err := net.Restore(1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := net.RebuildRouting(); err != nil {
		t.Fatalf("RebuildRouting: %v", err)
	}
	net.ResetCounters()
	if err := net.Send(0, 2, "x"); err != nil {
		t.Fatalf("Send after restore: %v", err)
	}
	net.Drain()
	if net.Hops() != 2 {
		t.Fatalf("restored hops = %d, want 2", net.Hops())
	}
}

func TestRebuildRoutingPartition(t *testing.T) {
	// Crashing the middle of a path partitions the survivors; rebuild
	// succeeds but cross-partition routes stay impossible.
	net := lineNet(t, 5)
	if err := net.Crash(2); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.RebuildRouting(); err != nil {
		t.Fatalf("RebuildRouting: %v", err)
	}
	if err := net.Send(0, 4, "x"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute across the partition", err)
	}
	// Within a surviving side, traffic flows.
	if err := net.Send(0, 1, "x"); err != nil {
		t.Fatalf("Send within partition: %v", err)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	g := topology.Complete(16)
	net, err := New(g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	var delivered atomic.Int64
	for v := 0; v < 16; v++ {
		if err := net.SetHandler(graph.NodeID(v), func(graph.NodeID, Message) {
			delivered.Add(1)
		}); err != nil {
			t.Fatalf("SetHandler: %v", err)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for d := 0; d < 16; d++ {
				if err := net.Send(graph.NodeID(s), graph.NodeID(d), s*16+d); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	net.Drain()
	if delivered.Load() != 256 {
		t.Fatalf("delivered = %d, want 256", delivered.Load())
	}
	// Hops on a complete graph: 240 off-diagonal sends × 1 hop.
	if net.Hops() != 240 {
		t.Fatalf("hops = %d, want 240", net.Hops())
	}
}

func TestGridMulticastRowCost(t *testing.T) {
	// Posting along a 1×q row of a grid costs q−1 passes from the row's
	// end; from the middle it still costs q−1 (tree = the row).
	gr, err := topology.NewGrid(4, 7)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	net, err := New(gr.G)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	row := gr.Row(2)
	src := gr.At(2, 3) // middle of the row
	if _, err := net.Multicast(src, row, "post"); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	net.Drain()
	if net.Hops() != 6 {
		t.Fatalf("row multicast hops = %d, want q-1 = 6", net.Hops())
	}
}
