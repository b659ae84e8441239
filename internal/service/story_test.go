package service

import (
	"errors"
	"fmt"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// TestCateringServiceStory replays §1.1's motivating scenario end to
// end: you want a caterer but don't know where one lives today; the
// caterer, to execute your job, is itself a client of a car rental
// service; outfits "come and go so fast" — the caterer moves and a new
// one appears — and match-making keeps finding the current addresses.
func TestCateringServiceStory(t *testing.T) {
	const n = 49 // Silicon Valley, 49 houses, fully connected phone lines
	r, err := NewRegistry(topology.Complete(n), rendezvous.Checkerboard(n))
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	r.InvokeRetries = 2

	// The car rental outfit.
	if _, err := r.Serve("car-rental", 30, func(method string, body any) (any, error) {
		return fmt.Sprintf("van for %v", body), nil
	}); err != nil {
		t.Fatalf("Serve car-rental: %v", err)
	}

	// The catering service: a server to you, a client to the car rental.
	catererHost := graph.NodeID(12)
	caterer, err := r.Serve("catering", catererHost, func(method string, body any) (any, error) {
		van, err := r.Invoke(catererHost, "car-rental", "book", body)
		if err != nil {
			return nil, fmt.Errorf("cannot deliver: %w", err)
		}
		return fmt.Sprintf("party at %v, delivered by %v", body, van), nil
	})
	if err != nil {
		t.Fatalf("Serve catering: %v", err)
	}

	// You, at home, just ask for "catering" — no address needed.
	yourHome := graph.NodeID(3)
	got, err := r.Invoke(yourHome, "catering", "order", "your place")
	if err != nil {
		t.Fatalf("ordering catering: %v", err)
	}
	want := "party at your place, delivered by van for your place"
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}

	// Outfits come and go: the caterer relocates across town. The stale
	// address would be useless — "the number gets you somebody who has
	// never heard of your old catering service" — but match-making
	// re-finds it.
	newHost := graph.NodeID(44)
	if err := caterer.Migrate(newHost); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	// The handler closure still books from the old host variable; replace
	// the process to model the new premises properly.
	if err := caterer.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := r.Serve("catering", newHost, func(method string, body any) (any, error) {
		van, err := r.Invoke(newHost, "car-rental", "book", body)
		if err != nil {
			return nil, fmt.Errorf("cannot deliver: %w", err)
		}
		return fmt.Sprintf("party at %v, delivered by %v", body, van), nil
	}); err != nil {
		t.Fatalf("Serve relocated catering: %v", err)
	}
	got, err = r.Invoke(yourHome, "catering", "order", "your place")
	if err != nil {
		t.Fatalf("ordering from relocated caterer: %v", err)
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}

	// If every caterer in town folds, you finally get an error — the
	// irrecoverable case the human has to cope with.
	res, err := r.tr.LocateAll(yourHome, "catering")
	if err != nil {
		t.Fatalf("LocateAll: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("live caterers = %d, want 1", len(res))
	}
}

func TestInvokeNearestPicksLocalInstance(t *testing.T) {
	// Two replicas of a service on a line network; clients are served by
	// their own side.
	g, err := topology.Line(11)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	r, err := NewRegistry(g, rendezvous.Sweep(11))
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	if _, err := r.Serve("mirror", 0, func(string, any) (any, error) { return "west", nil }); err != nil {
		t.Fatalf("Serve west: %v", err)
	}
	if _, err := r.Serve("mirror", 10, func(string, any) (any, error) { return "east", nil }); err != nil {
		t.Fatalf("Serve east: %v", err)
	}
	got, err := r.InvokeNearest(2, "mirror", "get", nil)
	if err != nil {
		t.Fatalf("InvokeNearest west: %v", err)
	}
	if got != "west" {
		t.Fatalf("client 2 served by %v, want west", got)
	}
	got, err = r.InvokeNearest(9, "mirror", "get", nil)
	if err != nil {
		t.Fatalf("InvokeNearest east: %v", err)
	}
	if got != "east" {
		t.Fatalf("client 9 served by %v, want east", got)
	}
}

func TestInvokeNearestMissing(t *testing.T) {
	r := newRegistry(t, 9)
	if _, err := r.InvokeNearest(0, "ghost", "m", nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", err)
	}
}
