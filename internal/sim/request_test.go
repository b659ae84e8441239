package sim

import (
	"errors"
	"sync"
	"testing"

	"matchmake/internal/graph"
)

// pending reports how many of the request's messages are undelivered or
// in a handler.
func (c *count) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// parkingHandler blocks every delivery of the payload "park" until
// release is closed, announcing each on parked, then runs then.
func parkingHandler(parked chan<- struct{}, release <-chan struct{}, then Handler) Handler {
	return func(self graph.NodeID, msg Message) {
		if msg.Payload == "park" {
			parked <- struct{}{}
			<-release
		}
		then(self, msg)
	}
}

// TestRequestEndsWhenTargetCrashesAfterEnqueue: a message routed to a
// live node that crashes before dequeuing it is consumed unhandled, and
// the request it belongs to ends — the silent loss costs no wait.
func TestRequestEndsWhenTargetCrashesAfterEnqueue(t *testing.T) {
	net := lineNet(t, 3)
	net.SetInlineHandlers(true)
	parked, release := make(chan struct{}), make(chan struct{})
	var rec recorder
	if err := net.SetHandler(2, parkingHandler(parked, release, rec.handler)); err != nil {
		t.Fatal(err)
	}
	// Node 2's delivery loop is busy, so the request's message queues
	// behind the parked one.
	if err := net.Send(0, 2, "park"); err != nil {
		t.Fatal(err)
	}
	<-parked
	req := newCount()
	if reached, err := net.multicast(0, []graph.NodeID{2}, "query", req); err != nil || reached != 1 {
		t.Fatalf("multicast = %d, %v", reached, err)
	}
	if req.pending() != 1 {
		t.Fatalf("pending = %d with the message enqueued, want 1", req.pending())
	}
	if err := net.Crash(2); err != nil {
		t.Fatal(err)
	}
	close(release)
	req.wait()
	if got := rec.count(); got != 1 { // "park" only: the query died with the node
		t.Fatalf("node 2 handled %d messages, want 1", got)
	}
}

// TestRequestCoversFollowUps: what a handler sends through the message
// it is handling belongs to the same request, generation after
// generation, so Flood returns only after the last of them is handled.
func TestRequestCoversFollowUps(t *testing.T) {
	net := lineNet(t, 3)
	net.SetInlineHandlers(true)
	parked, release := make(chan struct{}), make(chan struct{})
	var rec recorder
	forward := func(to graph.NodeID) Handler {
		return func(_ graph.NodeID, msg Message) {
			if err := msg.Send(to, msg.Payload); err != nil {
				t.Errorf("forward: %v", err)
			}
		}
	}
	// 0 → 1 → 2 → 0: the second generation parks at node 2.
	for v, h := range []Handler{rec.handler, forward(2), parkingHandler(parked, release, forward(0))} {
		if err := net.SetHandler(graph.NodeID(v), h); err != nil {
			t.Fatal(err)
		}
	}
	req := newCount()
	if _, err := net.multicast(0, []graph.NodeID{1}, "park", req); err != nil {
		t.Fatal(err)
	}
	<-parked
	if req.pending() < 1 {
		t.Fatal("request over while its second generation is still in a handler")
	}
	close(release)
	req.wait()
	if rec.count() != 1 {
		t.Fatalf("originator saw %d third-generation messages by the end of the wait, want 1", rec.count())
	}
	// The public form of the same thing.
	if reached, err := net.Flood(0, []graph.NodeID{1}, "again"); err != nil || reached != 1 {
		t.Fatalf("Flood = %d, %v", reached, err)
	}
	if rec.count() != 2 {
		t.Fatalf("Flood returned with %d of 2 round trips delivered", rec.count())
	}
	if net.Hops() != 2*4 {
		t.Fatalf("hops = %d, want 8 (1+1+2 per round trip)", net.Hops())
	}
}

// TestCallThroughBlockedHandler: with a goroutine per delivery a handler
// may block in a nested Call; the outer request lasts as long as its
// handler does and carries the nested answer back.
func TestCallThroughBlockedHandler(t *testing.T) {
	net := lineNet(t, 3)
	if err := net.SetHandler(2, func(_ graph.NodeID, msg Message) { _ = msg.Reply("pong") }); err != nil {
		t.Fatal(err)
	}
	if err := net.SetHandler(1, func(self graph.NodeID, msg Message) {
		inner, err := net.Call(self, 2, "inner")
		if err != nil {
			t.Errorf("nested call: %v", err)
			return
		}
		_ = msg.Reply(inner.(string) + "!")
	}); err != nil {
		t.Fatal(err)
	}
	got, err := net.Call(0, 1, "outer")
	if err != nil || got != "pong!" {
		t.Fatalf("Call = %v, %v; want pong!", got, err)
	}
}

// TestConcurrentRequestsIndependent is the property Drain lacks: a
// request waits for its own messages only, so one caller's stuck handler
// does not hold another caller up.
func TestConcurrentRequestsIndependent(t *testing.T) {
	net := lineNet(t, 3)
	net.SetInlineHandlers(true)
	parked, release := make(chan struct{}), make(chan struct{})
	reply := func(_ graph.NodeID, msg Message) { _ = msg.Reply(msg.Payload) }
	if err := net.SetHandler(1, parkingHandler(parked, release, reply)); err != nil {
		t.Fatal(err)
	}
	if err := net.SetHandler(2, reply); err != nil {
		t.Fatal(err)
	}
	stuck := make(chan error, 1)
	go func() {
		_, err := net.Call(0, 1, "park")
		stuck <- err
	}()
	<-parked
	if got, err := net.Call(0, 2, "ping"); err != nil || got != "ping" {
		t.Fatalf("second caller: %v, %v", got, err)
	}
	if reached, err := net.Flood(0, []graph.NodeID{2}, "post"); err != nil || reached != 1 {
		t.Fatalf("second caller's flood: %d, %v", reached, err)
	}
	select {
	case err := <-stuck:
		t.Fatalf("first caller returned (%v) while its handler was parked", err)
	default:
	}
	close(release)
	if err := <-stuck; err != nil {
		t.Fatalf("first caller: %v", err)
	}
}

// TestCloseNeverStrandsARequest: a message delivered to a node whose
// loop has exited is consumed, not queued for nobody; and callers racing
// Close all return.
func TestCloseNeverStrandsARequest(t *testing.T) {
	net := lineNet(t, 4)
	if err := net.SetHandler(3, func(_ graph.NodeID, msg Message) { _ = msg.Reply("pong") }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := net.Call(0, 3, "ping")
				if _, ferr := net.Flood(0, []graph.NodeID{1, 2, 3}, "post"); err == nil {
					err = ferr
				}
				if i == 0 {
					started <- struct{}{}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrNoReply) { // the reply's node stopped under it
					t.Errorf("call racing Close: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-started
	}
	net.Close()
	wg.Wait()

	// Past the closed check, as a send that lost the race would be.
	req := newCount()
	net.deliver(Message{From: 0, To: 3, Payload: "late", req: req, net: net})
	req.wait()
	net.Drain()
}
