package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/gate"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// Layer probes: each times calls into one layer's public functions with
// nothing else running, after the traced segments. They are the
// baselines the span times are read against (what does a bare round
// trip cost, what does the edge cost over a cluster that does nothing).

// timeCalls calls fn repeatedly for about budget and returns the median
// nanoseconds per call, timing blocks of batch calls so the clock reads
// do not swamp a call of tens of nanoseconds.
func timeCalls(budget time.Duration, batch int, fn func(i int)) float64 {
	var per []float64
	i := 0
	for end := time.Now().Add(budget); time.Now().Before(end) || len(per) < 5; {
		start := time.Now()
		for b := 0; b < batch; b++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(start))/float64(batch))
	}
	return medianOf(per)
}

// probeStore times Store.Get and Store.Put, from 2 goroutines, on the
// keys this workload's floods read: for each request, the port at every
// node of the client's query set (one holds the posting, the rest miss).
func probeStore(in *inputs, budget time.Duration) (getNs, putNs float64) {
	strat := rendezvous.Checkerboard(nodes)
	s := cluster.NewStore(nodes, 0)
	for p, home := range in.home {
		for _, v := range strat.Post(home) {
			s.Put(v, core.Entry{Port: in.names[p], Addr: home, ServerID: uint64(p + 1), Time: s.NextTime(), Active: true})
		}
	}
	type key struct {
		node graph.NodeID
		port core.Port
	}
	var keys []key
	for _, q := range in.reqs[:1<<10] {
		for _, v := range strat.Query(q.client) {
			keys = append(keys, key{v, in.names[q.port]})
		}
	}
	both := func(fn func(g, i int)) float64 {
		var res [2]float64
		var wg sync.WaitGroup
		for g := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[g] = timeCalls(budget, 256, func(i int) { fn(g, i) })
			}()
		}
		wg.Wait()
		return (res[0] + res[1]) / 2
	}
	getNs = both(func(g, i int) {
		k := keys[(i*2+g)%len(keys)]
		s.Get(k.node, k.port)
	})
	putNs = both(func(g, i int) {
		p := (i*2 + g) % ports
		s.Put(in.home[p], core.Entry{Port: in.names[p], Addr: in.home[p], ServerID: uint64(p + 1), Time: s.NextTime(), Active: true})
	})
	return getNs, putNs
}

// probeWire measures the wire layer alone: a Pool.Call round trip to an
// inline echo server over loopback with a payload of payload bytes (the
// bare-forwarding floor under every net and gate locate), the process's
// allocations per such call, and WriteFrame+ReadFrame through memory.
func probeWire(payload int, budget time.Duration) (rttNs, allocsPerCall, frameNs float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	srv := netwire.NewServer(ln, func(op byte, req, resp []byte) (byte, []byte) { return 0, append(resp, req...) })
	srv.InlineHandlers()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	pool := netwire.NewPool(ln.Addr().String(), stripes)
	body, resp := make([]byte, payload), make([]byte, 0, payload)
	call := func(int) {
		if _, _, cerr := pool.Call(1, body, resp); cerr != nil && err == nil {
			err = cerr
		}
	}
	for i := 0; i < 200; i++ { // dial and warm the stripes
		call(i)
	}
	rttNs = timeCalls(budget, 1, call)
	var before, after runtime.MemStats
	const allocCalls = 2000
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	allocsPerCall = float64(after.Mallocs-before.Mallocs) / allocCalls
	pool.Close()
	srv.Close()
	if serr := <-done; serr != nil && err == nil {
		err = serr
	}

	var buf bytes.Buffer
	bw, br := bufio.NewWriter(&buf), bufio.NewReader(&buf)
	frameNs = timeCalls(budget, 64, func(int) {
		netwire.WriteFrame(bw, body)
		bw.Flush()
		resp, _ = netwire.ReadFrame(br, resp)
	})
	return rttNs, allocsPerCall, frameNs, err
}

// noopTransport answers every locate at once with the same entry and
// charges nothing: a gateway over it does auth, quota, tenant fold and
// one hop, and nothing else.
type noopTransport struct{}

func (noopTransport) Name() string { return "noop" }
func (noopTransport) N() int       { return nodes }
func (noopTransport) Register(core.Port, graph.NodeID) (cluster.ServerRef, error) {
	return nil, gate.ErrUnsupported
}
func (noopTransport) Locate(_ graph.NodeID, port core.Port) (core.Entry, error) {
	return core.Entry{Port: port, Addr: 1, ServerID: 1, Time: 1, Active: true}, nil
}
func (t noopTransport) LocateBatch(reqs []cluster.LocateReq, res []cluster.LocateRes) {
	for i, q := range reqs {
		res[i].Entry, res[i].Err = t.Locate(q.Client, q.Port)
	}
}
func (noopTransport) Probe(_ graph.NodeID, e core.Entry) (core.Entry, error) { return e, nil }
func (noopTransport) Gen(core.Port) uint64                                   { return 0 }
func (noopTransport) LocateAll(graph.NodeID, core.Port) ([]core.Entry, error) {
	return nil, gate.ErrUnsupported
}
func (noopTransport) PostBatch([]cluster.Registration) ([]cluster.ServerRef, error) {
	return nil, gate.ErrUnsupported
}
func (noopTransport) Crash(graph.NodeID) error   { return gate.ErrUnsupported }
func (noopTransport) Restore(graph.NodeID) error { return gate.ErrUnsupported }
func (noopTransport) Passes() int64              { return 0 }
func (noopTransport) ResetPasses()               {}
func (noopTransport) Close() error               { return nil }

// probeGate times one locate through the edge over the no-op
// transport: through the wire client and through POST /v1/locate.
func probeGate(in *inputs, budget time.Duration) (wireNs, httpNs float64, err error) {
	c := cluster.New(noopTransport{}, cluster.Options{})
	defer c.Close()
	gw, err := gate.New(c, nil, gate.DevTenant(devToken))
	if err != nil {
		return 0, 0, err
	}
	defer gw.Close()
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	ws := netwire.NewServer(wireLn, gw.WireHandler())
	wsDone := make(chan error, 1)
	go func() { wsDone <- ws.Serve() }()
	defer func() {
		ws.Close()
		<-wsDone
	}()
	gwc, err := gate.DialTransport(wireLn.Addr().String(), devToken, stripes)
	if err != nil {
		return 0, 0, err
	}
	defer gwc.Close()
	wireCall := func(i int) {
		q := in.reqs[i%streamLen]
		if _, cerr := gwc.Locate(q.client, in.names[q.port]); cerr != nil && err == nil {
			err = cerr
		}
	}
	for i := 0; i < 200; i++ {
		wireCall(i)
	}
	wireNs = timeCalls(budget, 1, wireCall)

	httpLn, err2 := net.Listen("tcp", "127.0.0.1:0")
	if err2 != nil {
		return 0, 0, err2
	}
	hs := &http.Server{Handler: gw.HTTPHandler()}
	hsDone := make(chan error, 1)
	go func() { hsDone <- hs.Serve(httpLn) }()
	defer func() {
		hs.Close()
		<-hsDone
	}()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + httpLn.Addr().String() + "/v1/locate"
	httpCall := func(i int) {
		q := in.reqs[i%streamLen]
		body := fmt.Sprintf(`{"port":%q,"client":%d}`, in.names[q.port], q.client)
		req, _ := http.NewRequest("POST", url, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+devToken)
		resp, cerr := client.Do(req)
		if cerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				cerr = fmt.Errorf("POST /v1/locate: %s", resp.Status)
			}
		}
		if cerr != nil && err == nil {
			err = cerr
		}
	}
	for i := 0; i < 50; i++ {
		httpCall(i)
	}
	httpNs = timeCalls(budget, 1, httpCall)
	return wireNs, httpNs, err
}

// probeNodeOps counts what the node servers do per locate of this
// workload: the same transport over in-process NodeServers, whose
// OpCounts the benchmark can read, serving the first requests of the
// stream one at a time.
func probeNodeOps(w *workload, in *inputs) (opsPerLocate float64, err error) {
	const locates = 2000
	var servers []*cluster.NodeServer
	var addrs []string
	done := make(chan error, shardProcs)
	defer func() {
		for _, s := range servers {
			s.Close()
			<-done
		}
	}()
	for i := 0; i < shardProcs; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lo, hi := cluster.PartitionRange(nodes, shardProcs, i)
		s, err := cluster.NewNodeServer(nodes, lo, hi, ln)
		if err != nil {
			ln.Close()
			return 0, err
		}
		servers, addrs = append(servers, s), append(addrs, ln.Addr().String())
		go func() { done <- s.Serve() }()
	}
	tr, err := cluster.NewNetTransport(topology.Complete(nodes), rendezvous.Checkerboard(nodes), addrs, cluster.NetOptions{ConnsPerProc: stripes})
	if err != nil {
		return 0, err
	}
	c := cluster.New(tr, cluster.Options{Hints: w.hints})
	defer c.Close()
	if _, err := c.PostBatch(in.registrations()); err != nil {
		return 0, err
	}
	served := func() (sum int64) {
		for _, s := range servers {
			oc := s.OpCounts()
			sum += oc["query"] + oc["query_all"] + oc["probe"]
		}
		return sum
	}
	warm := 0
	if w.hints { // count the steady state, hints filled, as the run does
		warm = ports * hintClients * 4
	}
	var before int64
	for i := 0; i < warm+locates; i++ {
		if i == warm {
			before = served()
		}
		q := in.reqs[i%streamLen]
		if _, err := c.Locate(q.client, in.names[q.port]); err != nil {
			return 0, err
		}
	}
	return float64(served()-before) / locates, nil
}

// probeMigrate times ServerRef.Migrate at the Transport seam, one at a
// time, after the run (it moves ports, so nothing may follow it).
func probeMigrate(e *env, budget time.Duration) float64 {
	if e.refs == nil {
		return 0
	}
	return timeCalls(budget, 1, func(i int) {
		p := i % ports
		e.refs[p].Migrate((e.refs[p].Node() + 1) % nodes)
	})
}
