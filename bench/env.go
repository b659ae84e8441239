package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/gate"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sweep/procctl"
	"matchmake/internal/topology"
)

// env is one set-up system under test: what setup_s pays for.
type env struct {
	w  *workload
	in *inputs

	procs []*procctl.Proc       // the node-shard processes (net workloads)
	mem   *cluster.MemTransport // exactly one of mem, net is set
	net   *cluster.NetTransport
	tr    cluster.Transport // mem or net, wrapped in the traced run
	c     *cluster.Cluster
	refs  []cluster.ServerRef // port index → registration (nil through the gate)

	gw      *gate.Gateway
	gwSrv   *netwire.Server
	gwDone  chan error
	gwc     *gate.ClientTransport
	locate  func(graph.NodeID, core.Port) (core.Entry, error)
	homes   *homes
	pos     [callers]callerPos // where each closed-loop caller is in its stream
	partsNs [4]int64           // spawn, transport, register, gate
	closed  bool
}

const (
	partSpawn = iota
	partTransport
	partRegister
	partGate
)

var partNames = [4]string{"setup.spawn_s", "setup.transport_s", "setup.register_s", "setup.gate_s"}

// callerPos is a closed-loop caller's position: operations issued and
// migrations made. The replay check advances it before the run does.
type callerPos struct{ k, j int }

// setup builds the whole system for w: spawn the shards, build the
// transport (routing, set precompute, dial), start the gateway, and
// register the 64 servers in one PostBatch (through the gate client on
// gate_open). rec, when non-nil, wraps the Transport seam and the
// gateway's wire handler for the traced run.
func setup(w *workload, in *inputs, rec *recorder) (e *env, err error) {
	e = &env{w: w, in: in}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	part := time.Now()
	lap := func(i int) {
		now := time.Now()
		e.partsNs[i] = int64(now.Sub(part))
		part = now
	}
	g, strat := topology.Complete(nodes), rendezvous.Checkerboard(nodes)
	if w.net {
		if e.procs, err = procctl.Spawn(nodes, shardProcs); err != nil {
			return e, fmt.Errorf("spawn shards: %w", err)
		}
		lap(partSpawn)
		e.net, err = cluster.NewNetTransport(g, strat, procctl.Addrs(e.procs), cluster.NetOptions{ConnsPerProc: stripes})
		if err != nil {
			return e, fmt.Errorf("net transport: %w", err)
		}
		e.tr = e.net
		if rec != nil {
			e.tr = tracedNet{e.net, seam{rec}}
		}
	} else {
		if e.mem, err = cluster.NewMemTransport(g, strat, 0); err != nil {
			return e, fmt.Errorf("mem transport: %w", err)
		}
		e.tr = e.mem
		if rec != nil {
			e.tr = tracedMem{e.mem, seam{rec}}
		}
	}
	e.c = cluster.New(e.tr, cluster.Options{Hints: w.hints})
	lap(partTransport)

	poster := e.c.PostBatch
	e.locate = e.c.Locate
	if w.gate {
		if e.gw, err = gate.New(e.c, nil, gate.DevTenant(devToken)); err != nil {
			return e, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, err
		}
		h := e.gw.WireHandler()
		if rec != nil {
			h = rec.wrapHandler(h)
		}
		e.gwSrv = netwire.NewServer(ln, h)
		e.gwDone = make(chan error, 1)
		go func() { e.gwDone <- e.gwSrv.Serve() }()
		if e.gwc, err = gate.DialTransport(ln.Addr().String(), devToken, stripes); err != nil {
			return e, err
		}
		lap(partGate)
		poster, e.locate = e.gwc.PostBatch, e.gwc.Locate
	}

	refs, err := poster(in.registrations())
	if err != nil {
		return e, fmt.Errorf("register: %w", err)
	}
	if !w.gate {
		e.refs = refs
	}
	lap(partRegister)
	e.homes = newHomes(in.home, w.churn)
	return e, nil
}

// close tears the system down and waits for every goroutine and
// process it started.
func (e *env) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	if e.gwc != nil {
		errs = append(errs, e.gwc.Close())
	}
	if e.gwSrv != nil {
		e.gwSrv.Drain()
		errs = append(errs, <-e.gwDone)
	}
	if e.gw != nil {
		errs = append(errs, e.gw.Close())
	}
	if e.c != nil {
		errs = append(errs, e.c.Close()) // closes the transport
	} else if e.net != nil {
		errs = append(errs, e.net.Close())
	}
	if e.procs != nil {
		errs = append(errs, procctl.Teardown(e.procs, 5*time.Second))
	}
	return errors.Join(errs...)
}

// setupNs is the whole of one set-up.
func (e *env) setupNs() int64 {
	var sum int64
	for _, p := range e.partsNs {
		sum += p
	}
	return sum
}

// homes is the driver's own registration table, against which every
// answer is judged: an answer is right when it names a node that was
// the port's home at some instant between the locate's start and end.
type homes struct {
	static []graph.NodeID // workloads without writes: compared without locking
	ports  []portHome
}

type portHome struct {
	mu    sync.Mutex
	spans []homeSpan // oldest first; the last is the current home
}

// homeSpan is one stay of a port at a node: it may have been the home
// from the moment the Migrate to it was issued until the Migrate away
// from it returned.
type homeSpan struct {
	node        graph.NodeID
	from, until int64
}

const homeHistory = 4

func newHomes(home []graph.NodeID, writes bool) *homes {
	if !writes {
		return &homes{static: home}
	}
	h := &homes{ports: make([]portHome, len(home))}
	for p, node := range home {
		h.ports[p].spans = []homeSpan{{node: node, from: math.MinInt64, until: math.MaxInt64}}
	}
	return h
}

func (h *homes) current(port int32) graph.NodeID {
	ph := &h.ports[port]
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.spans[len(ph.spans)-1].node
}

// moving records that a Migrate of port to node is issued at now;
// moved that it returned at now.
func (h *homes) moving(port int32, to graph.NodeID, now int64) {
	ph := &h.ports[port]
	ph.mu.Lock()
	ph.spans = append(ph.spans, homeSpan{node: to, from: now, until: math.MaxInt64})
	if len(ph.spans) > homeHistory {
		ph.spans = ph.spans[1:]
	}
	ph.mu.Unlock()
}

func (h *homes) moved(port int32, now int64) {
	ph := &h.ports[port]
	ph.mu.Lock()
	ph.spans[len(ph.spans)-2].until = now
	ph.mu.Unlock()
}

// settle forgets where ports have been, keeping where they are.
func (h *homes) settle() {
	for p := range h.ports {
		ph := &h.ports[p]
		ph.spans = []homeSpan{{node: ph.spans[len(ph.spans)-1].node, from: math.MinInt64, until: math.MaxInt64}}
	}
}

// right reports whether addr was port's home at some instant in
// [start, end].
func (h *homes) right(port int32, addr graph.NodeID, start, end int64) bool {
	if h.static != nil {
		return h.static[port] == addr
	}
	ph := &h.ports[port]
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for _, s := range ph.spans {
		if s.node == addr && s.from <= end && s.until >= start {
			return true
		}
	}
	return false
}

// migrating reports whether a Migrate of port was in flight at some
// instant in [start, end]: the window in which the tombstone may have
// landed before the new posting, so a locate may find nothing.
func (h *homes) migrating(port int32, start, end int64) bool {
	if h.static != nil {
		return false
	}
	ph := &h.ports[port]
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for i := 1; i < len(ph.spans); i++ {
		if ph.spans[i].from <= end && ph.spans[i-1].until >= start {
			return true
		}
	}
	return false
}
