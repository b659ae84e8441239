// Package service implements the paper's service model (§1.3) on top of
// the distributed name server, the serving coordinator over the
// simulator (cluster.SimTransport): services are identified by ports and
// handled by one or more server processes that accept request messages,
// carry out work and send back replies; clients locate a service through
// match-making and then send it requests. Server processes can migrate,
// crash and be replaced, and a server can itself be client to another
// service — "essentially, every job in the system is executed by a
// dynamic network of servers executing each other's requests".
package service

import (
	"errors"
	"fmt"
	"sync"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
)

// Errors returned by the service layer.
var (
	// ErrNoService reports that no server process could be located or
	// reached after the configured retries — the irrecoverable case that
	// reaches "the human client at the top of the hierarchy".
	ErrNoService = errors.New("service: no reachable server")
	// ErrBadRequest reports a malformed request payload at a server.
	ErrBadRequest = errors.New("service: bad request")
)

// Handler executes one request at a server process and returns the reply
// body or an error (errors travel back to the client as failed responses).
type Handler func(method string, body any) (any, error)

// Request is the wire format of a service request.
type Request struct {
	// Port addresses the service.
	Port core.Port
	// Method selects the command (services are "defined by a set of
	// commands and responses").
	Method string
	// Body is the command argument.
	Body any
}

// response is the wire format of a service reply.
type response struct {
	body any
	err  string
}

// Registry runs the service layer over two simulated networks on one
// graph: match-making runs on a SimTransport's, and requests and replies
// travel on the registry's own, whose handlers dispatch them to the
// local server processes. Its hop count is the request traffic alone.
type Registry struct {
	tr  *cluster.SimTransport
	net *sim.Network

	mu        sync.Mutex
	processes map[graph.NodeID]map[core.Port]*Process

	// InvokeRetries is how many times Invoke re-locates and retries after
	// a failed attempt ("the query server can retry the request").
	InvokeRetries int
}

// NewRegistry builds the name server for strat and the request network
// over g.
func NewRegistry(g *graph.Graph, strat rendezvous.Strategy) (*Registry, error) {
	tr, err := cluster.NewSimTransport(g, strat)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	net, err := sim.New(g)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	r := &Registry{
		tr:            tr,
		net:           net,
		processes:     make(map[graph.NodeID]map[core.Port]*Process),
		InvokeRetries: 1,
	}
	for v := range g.N() {
		if err := net.SetHandler(graph.NodeID(v), r.handle); err != nil {
			r.Close()
			return nil, fmt.Errorf("service: install handler: %w", err)
		}
	}
	return r, nil
}

// Crash crashes node on both networks: its cached postings are lost and
// its processes stop answering requests.
func (r *Registry) Crash(node graph.NodeID) error {
	return errors.Join(r.tr.Crash(node), r.net.Crash(node))
}

// Close stops both networks.
func (r *Registry) Close() {
	r.tr.Close()
	r.net.Close()
}

func (r *Registry) handle(self graph.NodeID, msg sim.Message) {
	req, ok := msg.Payload.(Request)
	if !ok || !msg.CanReply() {
		return
	}
	r.mu.Lock()
	proc := r.processes[self][req.Port]
	r.mu.Unlock()
	if proc == nil {
		// The client's cached address is stale (server moved or died).
		_ = msg.Reply(response{err: "no such server process here"})
		return
	}
	body, err := proc.handler(req.Method, req.Body)
	if err != nil {
		_ = msg.Reply(response{err: err.Error()})
		return
	}
	_ = msg.Reply(response{body: body})
}

// Process is a running server process.
type Process struct {
	reg     *Registry
	srv     cluster.ServerRef
	port    core.Port
	handler Handler

	mu   sync.Mutex
	node graph.NodeID
	done bool
}

// Serve starts a server process for port at node: the handler is
// installed locally and the (port, address) is posted through the name
// server.
func (r *Registry) Serve(port core.Port, node graph.NodeID, h Handler) (*Process, error) {
	if h == nil {
		return nil, fmt.Errorf("service: nil handler for %q", port)
	}
	srv, err := r.tr.Register(port, node)
	if err != nil {
		return nil, fmt.Errorf("service: serve %q: %w", port, err)
	}
	p := &Process{reg: r, srv: srv, port: port, handler: h, node: node}
	r.mu.Lock()
	if r.processes[node] == nil {
		r.processes[node] = make(map[core.Port]*Process)
	}
	r.processes[node][port] = p
	r.mu.Unlock()
	return p, nil
}

// Node returns the process's current host.
func (p *Process) Node() graph.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// Stop destroys the server process: it stops receiving requests and its
// postings are tombstoned.
func (p *Process) Stop() error {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return core.ErrServerGone
	}
	p.done = true
	node := p.node
	p.mu.Unlock()

	p.reg.mu.Lock()
	delete(p.reg.processes[node], p.port)
	p.reg.mu.Unlock()
	return p.srv.Deregister()
}

// Migrate moves the process to another host: destroyed at the old host
// and recreated at the new one, with the name server updated (§1.3).
func (p *Process) Migrate(to graph.NodeID) error {
	if !p.reg.net.Graph().Valid(to) {
		return fmt.Errorf("service: migrate to %d: %w", to, graph.ErrNodeRange)
	}
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return core.ErrServerGone
	}
	from := p.node
	p.node = to
	p.mu.Unlock()

	p.reg.mu.Lock()
	delete(p.reg.processes[from], p.port)
	if p.reg.processes[to] == nil {
		p.reg.processes[to] = make(map[core.Port]*Process)
	}
	p.reg.processes[to][p.port] = p
	p.reg.mu.Unlock()
	return p.srv.Migrate(to)
}

// Invoke performs one client request: locate the port through
// match-making, send the request to the located address, and return the
// reply body. Failed attempts (stale address, crashed server, lost
// route) are retried with a fresh locate up to InvokeRetries times; after
// that the failure is irrecoverable and ErrNoService is returned.
//
// A server process may call Invoke itself to use another service, as long
// as the callee runs on a different node (a node's handler is
// single-threaded, so a synchronous self-call would deadlock).
func (r *Registry) Invoke(client graph.NodeID, port core.Port, method string, body any) (any, error) {
	return r.invoke("invoke", client, port, method, body, func() (graph.NodeID, error) {
		e, err := r.tr.Locate(client, port)
		return e.Addr, err
	})
}

// InvokeNearest behaves like Invoke but, when several equivalent server
// processes offer the port (§1.3), sends the request to the instance
// closest to the client in hop distance — the locality preference of
// §3.5's "nearly every service will be a local service".
func (r *Registry) InvokeNearest(client graph.NodeID, port core.Port, method string, body any) (any, error) {
	return r.invoke("invoke-nearest", client, port, method, body, func() (graph.NodeID, error) {
		return r.nearest(client, port)
	})
}

// nearest locates every live instance of port and returns the address
// closest to client.
func (r *Registry) nearest(client graph.NodeID, port core.Port) (graph.NodeID, error) {
	entries, err := r.tr.LocateAll(client, port)
	if err != nil {
		return 0, err
	}
	routing := r.net.Routing()
	best, bestDist := entries[0].Addr, routing.Dist(client, entries[0].Addr)
	for _, e := range entries[1:] {
		if d := routing.Dist(client, e.Addr); d >= 0 && (bestDist < 0 || d < bestDist) {
			best, bestDist = e.Addr, d
		}
	}
	return best, nil
}

// invoke is the attempt loop of Invoke and InvokeNearest; locate picks
// each attempt's address.
func (r *Registry) invoke(what string, client graph.NodeID, port core.Port, method string, body any, locate func() (graph.NodeID, error)) (any, error) {
	var lastErr error
	for attempt := 0; attempt <= r.InvokeRetries; attempt++ {
		addr, err := locate()
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := r.net.Call(client, addr, Request{Port: port, Method: method, Body: body})
		if err != nil {
			lastErr = err
			continue
		}
		rep, ok := raw.(response)
		if !ok {
			lastErr = fmt.Errorf("service: unexpected reply %T", raw)
			continue
		}
		if rep.err != "" {
			lastErr = fmt.Errorf("service: %q %s: %s", port, method, rep.err)
			continue
		}
		return rep.body, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no attempt made")
	}
	return nil, fmt.Errorf("%s %q from %d: %w: %w", what, port, client, ErrNoService, lastErr)
}
