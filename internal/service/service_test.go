package service

import (
	"errors"
	"fmt"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func newRegistry(t *testing.T, n int) *Registry {
	t.Helper()
	r, err := NewRegistry(topology.Complete(n), rendezvous.Checkerboard(n))
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func echoHandler(method string, body any) (any, error) {
	return fmt.Sprintf("%s:%v", method, body), nil
}

func TestServeAndInvoke(t *testing.T) {
	r := newRegistry(t, 16)
	if _, err := r.Serve("echo", 3, echoHandler); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	got, err := r.Invoke(12, "echo", "say", "hello")
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "say:hello" {
		t.Fatalf("reply = %v, want say:hello", got)
	}
}

func TestInvokeMissingService(t *testing.T) {
	r := newRegistry(t, 9)
	if _, err := r.Invoke(0, "ghost", "m", nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	r := newRegistry(t, 9)
	if _, err := r.Serve("db", 2, func(string, any) (any, error) {
		return nil, errors.New("disk full")
	}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	_, err := r.Invoke(5, "db", "write", "row")
	if err == nil || !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want wrapped failure", err)
	}
}

func TestStopMakesServiceUnreachable(t *testing.T) {
	r := newRegistry(t, 16)
	p, err := r.Serve("svc", 4, echoHandler)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := r.Invoke(10, "svc", "m", nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService after stop", err)
	}
	if err := p.Stop(); !errors.Is(err, core.ErrServerGone) {
		t.Fatalf("double stop err = %v, want ErrServerGone", err)
	}
}

func TestMigrateKeepsServiceReachable(t *testing.T) {
	r := newRegistry(t, 16)
	p, err := r.Serve("files", 2, echoHandler)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := p.Migrate(11); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if p.Node() != 11 {
		t.Fatalf("Node = %d, want 11", p.Node())
	}
	got, err := r.Invoke(7, "files", "read", "a.txt")
	if err != nil {
		t.Fatalf("Invoke after migrate: %v", err)
	}
	if got != "read:a.txt" {
		t.Fatalf("reply = %v", got)
	}
	if err := p.Migrate(99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("bad migrate err = %v, want ErrNodeRange", err)
	}
}

func TestStaleAddressRetries(t *testing.T) {
	// A client that cached a located address implicitly (via rendezvous
	// caches) must survive the server moving between locate and call:
	// here we stop the old process but leave a stale posting by
	// registering a second process at a new node under the same port.
	r := newRegistry(t, 16)
	p1, err := r.Serve("svc", 3, func(string, any) (any, error) { return "old", nil })
	if err != nil {
		t.Fatalf("Serve old: %v", err)
	}
	// Kill the process locally but do not tombstone the name server —
	// simulating a crash that leaves stale rendezvous entries.
	r.mu.Lock()
	delete(r.processes[p1.Node()], "svc")
	r.mu.Unlock()
	if _, err := r.Serve("svc", 9, func(string, any) (any, error) { return "new", nil }); err != nil {
		t.Fatalf("Serve new: %v", err)
	}
	got, err := r.Invoke(5, "svc", "m", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "new" {
		t.Fatalf("reply = %v, want new (fresh process wins by timestamp)", got)
	}
}

func TestServiceHierarchy(t *testing.T) {
	// §1.3's example: client → query server → database server. The query
	// server is itself a client of the database service.
	r := newRegistry(t, 25)
	if _, err := r.Serve("database", 20, func(method string, body any) (any, error) {
		if method != "get" {
			return nil, ErrBadRequest
		}
		return fmt.Sprintf("row(%v)", body), nil
	}); err != nil {
		t.Fatalf("Serve database: %v", err)
	}
	queryNode := graph.NodeID(10)
	if _, err := r.Serve("query", queryNode, func(method string, body any) (any, error) {
		row, err := r.Invoke(queryNode, "database", "get", body)
		if err != nil {
			return nil, fmt.Errorf("database unavailable: %w", err)
		}
		return fmt.Sprintf("result[%v]", row), nil
	}); err != nil {
		t.Fatalf("Serve query: %v", err)
	}
	got, err := r.Invoke(2, "query", "select", "k1")
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "result[row(k1)]" {
		t.Fatalf("reply = %v", got)
	}
}

func TestHierarchyRecoversFromDatabaseCrash(t *testing.T) {
	// The query server detects the database crash and retries; a standby
	// database process under the same port answers, so the human client
	// never sees the failure.
	r := newRegistry(t, 25)
	db1, err := r.Serve("database", 20, func(string, any) (any, error) { return "primary", nil })
	if err != nil {
		t.Fatalf("Serve db1: %v", err)
	}
	if _, err := r.Serve("database", 21, func(string, any) (any, error) { return "standby", nil }); err != nil {
		t.Fatalf("Serve db2: %v", err)
	}
	queryNode := graph.NodeID(10)
	if _, err := r.Serve("query", queryNode, func(string, any) (any, error) {
		return r.Invoke(queryNode, "database", "get", nil)
	}); err != nil {
		t.Fatalf("Serve query: %v", err)
	}
	// Crash the primary database host.
	if err := r.Crash(db1.Node()); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	r.InvokeRetries = 3
	got, err := r.Invoke(2, "query", "select", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "standby" && got != "primary" {
		t.Fatalf("reply = %v", got)
	}
}

func TestServeErrors(t *testing.T) {
	r := newRegistry(t, 9)
	if _, err := r.Serve("svc", 0, nil); err == nil {
		t.Fatal("nil handler should fail")
	}
	if _, err := r.Serve("svc", 99, echoHandler); err == nil {
		t.Fatal("invalid node should fail")
	}
}

func TestServiceOnGridStrategy(t *testing.T) {
	// The service layer runs over any strategy; exercise Manhattan.
	gr, err := topology.NewGrid(4, 4)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	r, err := NewRegistry(gr.G, strategy.Manhattan(gr))
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(r.Close)
	if _, err := r.Serve("printer", gr.At(1, 1), echoHandler); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	got, err := r.Invoke(gr.At(3, 2), "printer", "print", "doc")
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got != "print:doc" {
		t.Fatalf("reply = %v", got)
	}
}
