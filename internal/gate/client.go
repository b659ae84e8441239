package gate

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// ClientTransport is the gate binary protocol's client side, shaped as
// a cluster.Transport: point mmload (or any cluster.Cluster) at a
// running mmgate and the whole locate machinery — batching,
// coalescing, metrics — runs unchanged over the service edge. Message
// passes are the backing cluster's (fetched via GopStats), so the
// paper's cost accounting survives the extra hop; operations the edge
// does not expose (probes, crash injection) fail with ErrUnsupported.
type ClientTransport struct {
	pool  *netwire.Pool
	token string
	n     int

	// passes0 is the local ResetPasses baseline against the remote
	// cumulative counter; lastPasses is the last value successfully
	// fetched, served if a later fetch fails.
	passes0    atomic.Int64
	lastPasses atomic.Int64

	wire netwire.Counters
}

// DialTransport connects to a gateway's wire listener, authenticates
// with token via a hello, and returns the transport. conns is the
// number of connection stripes (<= 0 picks netwire.NewPool's striped
// default, max(2, GOMAXPROCS)).
func DialTransport(addr, token string, conns int) (*ClientTransport, error) {
	pool := netwire.NewPool(addr, conns)
	pool.CallTimeout = 10 * time.Second
	t := &ClientTransport{pool: pool, token: token}
	pool.UseCounters(&t.wire)
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	st, body, err := t.call(GopHello, netwire.AppendString((*buf)[:0], token), nil)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("gate: hello %s: %w", addr, err)
	}
	if st != GsOK {
		pool.Close()
		return nil, fmt.Errorf("gate: hello %s: %s", addr, statusErr(st, body))
	}
	d := netwire.NewDec(body)
	t.n = int(d.Uvarint())
	_ = d.String() // backing transport name (informational)
	d.Uvarint()    // hub sequence
	if d.Err() != nil || t.n <= 0 {
		pool.Close()
		return nil, fmt.Errorf("gate: hello %s: bad response", addr)
	}
	return t, nil
}

// call issues one wire request, handling buffer pooling for the
// response.
func (t *ClientTransport) call(op byte, req []byte, resp []byte) (byte, []byte, error) {
	return t.pool.Call(op, req, resp)
}

// statusErr converts a non-OK wire status (and its message body) to an
// error.
func statusErr(st byte, body []byte) error {
	switch st {
	case GsNotFound:
		return fmt.Errorf("gate: %w", core.ErrNotFound)
	case GsDenied:
		return ErrDenied
	case GsShed:
		return ErrShed
	case GsBadRequest:
		return fmt.Errorf("gate: bad request: %s", body)
	default:
		return fmt.Errorf("gate: remote error: %s", body)
	}
}

// Name identifies the transport in reports.
func (t *ClientTransport) Name() string { return "gate" }

// N returns the backing cluster's node count (learned at hello).
func (t *ClientTransport) N() int { return t.n }

// Register announces a server through the gateway and returns a ref
// whose Deregister round-trips; Repost and Migrate are not exposed by
// the edge and fail with ErrUnsupported.
func (t *ClientTransport) Register(port core.Port, node graph.NodeID) (cluster.ServerRef, error) {
	refs, err := t.PostBatch([]cluster.Registration{{Port: port, Node: node}})
	if err != nil {
		return nil, err
	}
	return refs[0], nil
}

// clientRef is a registration made over the wire; the gateway holds
// the real ServerRef, this holds its id.
type clientRef struct {
	t    *ClientTransport
	id   uint64
	port core.Port
	node graph.NodeID
	gone atomic.Bool
}

// Port returns the registered (tenant-local) port.
func (r *clientRef) Port() core.Port { return r.port }

// Node returns the node the server registered at.
func (r *clientRef) Node() graph.NodeID { return r.node }

// Repost is not exposed by the service edge.
func (r *clientRef) Repost() error { return ErrUnsupported }

// Migrate is not exposed by the service edge.
func (r *clientRef) Migrate(to graph.NodeID) error { return ErrUnsupported }

// Deregister tombstones the registration through the gateway.
func (r *clientRef) Deregister() error {
	if r.gone.Swap(true) {
		return core.ErrServerGone
	}
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendString((*buf)[:0], r.t.token)
	req = netwire.AppendUvarint(req, r.id)
	st, body, err := r.t.call(GopDeregister, req, nil)
	if err != nil {
		return err
	}
	if st != GsOK {
		return statusErr(st, body)
	}
	return nil
}

// Locate resolves port from client through the gateway.
func (t *ClientTransport) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendString((*buf)[:0], t.token)
	req = netwire.AppendUvarint(req, uint64(client))
	req = netwire.AppendString(req, string(port))
	out := netwire.GetBuf()
	defer netwire.PutBuf(out)
	st, body, err := t.call(GopLocate, req, (*out)[:0])
	*out = body
	if err != nil {
		return core.Entry{}, err
	}
	if st != GsOK {
		return core.Entry{}, statusErr(st, body)
	}
	d := netwire.NewDec(body)
	e := decodeWireEntry(&d)
	if d.Err() != nil {
		return core.Entry{}, fmt.Errorf("gate: bad locate response")
	}
	return e, nil
}

// LocateBatch resolves the whole batch in one wire round trip. All
// requests must share one client node per wire call; mixed-client
// batches are split.
func (t *ClientTransport) LocateBatch(reqs []cluster.LocateReq, res []cluster.LocateRes) {
	for lo := 0; lo < len(reqs); {
		hi := lo + 1
		for hi < len(reqs) && reqs[hi].Client == reqs[lo].Client {
			hi++
		}
		t.locateBatchOne(reqs[lo:hi], res[lo:hi])
		lo = hi
	}
}

// locateBatchOne issues one same-client span as a single GopLocateBatch.
func (t *ClientTransport) locateBatchOne(reqs []cluster.LocateReq, res []cluster.LocateRes) {
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendString((*buf)[:0], t.token)
	req = netwire.AppendUvarint(req, uint64(reqs[0].Client))
	req = netwire.AppendUvarint(req, uint64(len(reqs)))
	for _, r := range reqs {
		req = netwire.AppendString(req, string(r.Port))
	}
	out := netwire.GetBuf()
	defer netwire.PutBuf(out)
	st, body, err := t.call(GopLocateBatch, req, (*out)[:0])
	*out = body
	if err == nil && st != GsOK {
		err = statusErr(st, body)
	}
	if err != nil {
		for i := range res {
			res[i] = cluster.LocateRes{Err: err}
		}
		return
	}
	d := netwire.NewDec(body)
	k := d.Uvarint()
	if int(k) != len(reqs) {
		err := fmt.Errorf("gate: bad locate-batch response")
		for i := range res {
			res[i] = cluster.LocateRes{Err: err}
		}
		return
	}
	for i := range res {
		switch st := d.Byte(); st {
		case GsOK:
			res[i] = cluster.LocateRes{Entry: decodeWireEntry(&d)}
		case GsNotFound:
			res[i] = cluster.LocateRes{Err: fmt.Errorf("gate: %w", core.ErrNotFound)}
		default:
			res[i] = cluster.LocateRes{Err: fmt.Errorf("gate: remote error: %s", d.String())}
		}
		if d.Err() != nil {
			res[i] = cluster.LocateRes{Err: fmt.Errorf("gate: bad locate-batch response")}
		}
	}
}

// Probe is not exposed by the service edge (the gateway's own cluster
// runs hint probing when configured).
func (t *ClientTransport) Probe(client graph.NodeID, e core.Entry) (core.Entry, error) {
	return core.Entry{}, ErrUnsupported
}

// Gen always returns 0: the edge exposes no invalidation index, so a
// local hint cache over this transport would never validate (run the
// gateway-side cluster with hints instead).
func (t *ClientTransport) Gen(port core.Port) uint64 { return 0 }

// LocateAll is not exposed by the service edge.
func (t *ClientTransport) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	return nil, ErrUnsupported
}

// PostBatch registers the whole batch in one wire round trip
// (GopPostBatch), all or nothing: a refused batch leaves no registration
// at the gateway. The backing cluster still charges the paper's
// per-registration passes.
func (t *ClientTransport) PostBatch(regs []cluster.Registration) ([]cluster.ServerRef, error) {
	if len(regs) == 0 {
		return nil, nil
	}
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendString((*buf)[:0], t.token)
	req = netwire.AppendUvarint(req, uint64(len(regs)))
	for _, rg := range regs {
		req = netwire.AppendString(req, string(rg.Port))
		req = netwire.AppendUvarint(req, uint64(rg.Node))
	}
	st, body, err := t.call(GopPostBatch, req, nil)
	if err != nil {
		return nil, err
	}
	if st != GsOK {
		return nil, statusErr(st, body)
	}
	d := netwire.NewDec(body)
	if k := d.Uvarint(); k != uint64(len(regs)) {
		return nil, fmt.Errorf("gate: bad post-batch response")
	}
	refs := make([]cluster.ServerRef, len(regs))
	for i, rg := range regs {
		refs[i] = &clientRef{t: t, id: d.Uvarint(), port: rg.Port, node: rg.Node}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("gate: bad post-batch response")
	}
	return refs, nil
}

// Crash is not exposed by the service edge.
func (t *ClientTransport) Crash(node graph.NodeID) error { return ErrUnsupported }

// Restore is not exposed by the service edge.
func (t *ClientTransport) Restore(node graph.NodeID) error { return ErrUnsupported }

// Passes returns the backing cluster's message passes since the last
// ResetPasses, fetched via GopStats (the last fetched value if the
// gateway is unreachable).
func (t *ClientTransport) Passes() int64 {
	if p, err := t.remotePasses(); err == nil {
		t.lastPasses.Store(p)
		return p - t.passes0.Load()
	}
	return t.lastPasses.Load() - t.passes0.Load()
}

// ResetPasses rebases the local window on the remote cumulative
// counter.
func (t *ClientTransport) ResetPasses() {
	if p, err := t.remotePasses(); err == nil {
		t.lastPasses.Store(p)
		t.passes0.Store(p)
		return
	}
	t.passes0.Store(t.lastPasses.Load())
}

// WireStats returns the transport's cumulative wire-level traffic
// totals against the gateway (frames and bytes, both directions) —
// the edge-hop cost load tools report as frames/locate and
// bytes/locate.
func (t *ClientTransport) WireStats() netwire.Stats { return t.wire.Snapshot() }

// remotePasses fetches the backing cluster's cumulative pass counter.
func (t *ClientTransport) remotePasses() (int64, error) {
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	st, body, err := t.call(GopStats, netwire.AppendString((*buf)[:0], t.token), nil)
	if err != nil {
		return 0, err
	}
	if st != GsOK {
		return 0, statusErr(st, body)
	}
	d := netwire.NewDec(body)
	p := d.Uvarint()
	if d.Err() != nil {
		return 0, errors.New("gate: bad stats response")
	}
	return int64(p), nil
}

// Events polls the gateway's watch hub for tenant-scoped events after
// the given sequence number (at most max; 0 means all buffered),
// returning the events and the hub's current sequence.
func (t *ClientTransport) Events(after uint64, max int) ([]WatchEvent, uint64, error) {
	buf := netwire.GetBuf()
	defer netwire.PutBuf(buf)
	req := netwire.AppendString((*buf)[:0], t.token)
	req = netwire.AppendUvarint(req, after)
	req = netwire.AppendUvarint(req, uint64(max))
	st, body, err := t.call(GopEvents, req, nil)
	if err != nil {
		return nil, 0, err
	}
	if st != GsOK {
		return nil, 0, statusErr(st, body)
	}
	d := netwire.NewDec(body)
	seq := d.Uvarint()
	k := d.Uvarint()
	if k > uint64(d.Len()) { // an event is at least eight bytes
		return nil, 0, errors.New("gate: bad events response")
	}
	evs := make([]WatchEvent, 0, k)
	for i := uint64(0); i < k && d.Err() == nil; i++ {
		evs = append(evs, WatchEvent{
			Seq:       d.Uvarint(),
			Type:      d.String(),
			Port:      d.String(),
			Node:      int64(d.Uvarint()),
			Lo:        int(d.Uvarint()),
			Hi:        int(d.Uvarint()),
			Epoch:     d.Uvarint(),
			UnixNanos: int64(d.Uvarint()),
		})
	}
	if d.Err() != nil {
		return nil, 0, errors.New("gate: bad events response")
	}
	return evs, seq, nil
}

// Close closes the connection pool.
func (t *ClientTransport) Close() error { return t.pool.Close() }
