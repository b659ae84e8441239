// Package gate is the multi-tenant service edge over a cluster: the
// public front door that turns "a match-maker you link against" into
// "a service arbitrary client processes can hit". One Gateway fronts
// one cluster.Cluster (any transport — mem for a single box, net for
// the multi-process cluster) and exposes Register / Deregister /
// Locate / LocateBatch / Watch on two stdlib-only listeners:
//
//   - an HTTP/JSON API (net/http; curl-able, keep-alive, with a
//     chunked-streaming Watch of registration/crash/epoch events), and
//   - a binary API over the internal/netwire uvarint framing (gate
//     opcodes, distinct from the node protocol) for high-throughput
//     clients; ClientTransport adapts it back into a
//     cluster.Transport so mmload's equivalence and load machinery
//     covers the wire edge too.
//
// Multi-tenancy is structural, not advisory: each tenant is a disjoint
// port namespace (the tenant id is folded into the port key before it
// reaches the cluster, so one tenant's registrations are unlocatable —
// not merely unlisted — for every other), authenticated by a bearer
// token table, and throttled by per-tenant quotas (a token-bucket
// request rate and an in-flight cap) that shed with 429 / a shed
// status instead of queueing — overload control moves from per-shard
// to per-tenant at the edge. Per-tenant counters and the cluster's
// MetricsSnapshot are exported in Prometheus text form on /metrics.
//
// The paper's §1.3 service model maps onto the edge directly: clients
// and servers are processes reaching the match-maker over a wire, the
// gateway is the host-level agent they hand their post/locate
// requests to, and the rendezvous machinery behind it stays exactly
// the measured cluster layer. See docs/PAPER_MAP.md.
package gate

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Errors returned by the gateway's tenant edge.
var (
	// ErrDenied reports a request with an unknown or missing bearer
	// token.
	ErrDenied = errors.New("gate: unknown token")
	// ErrShed reports a request rejected by the tenant's quota (rate or
	// in-flight cap) — the per-tenant overload shed.
	ErrShed = errors.New("gate: tenant quota exceeded")
	// ErrUnsupported reports a Transport operation the service edge
	// does not expose (probes, crash injection, resize control).
	ErrUnsupported = errors.New("gate: operation not supported at the service edge")
	// ErrUnknownReg reports a deregister for a registration id the
	// tenant does not own.
	ErrUnknownReg = errors.New("gate: unknown registration id")
)

// Gateway is the multi-tenant service edge over one cluster. Build it
// with New, mount HTTPHandler on an http.Server, and serve the binary
// API by passing WireHandler to a netwire.Server; Close releases the
// watch hub and the registration table (the backing cluster's
// lifecycle stays the caller's).
type Gateway struct {
	c   *cluster.Cluster
	hub *Hub

	tenants map[string]*tenant // by id
	byToken map[string]*tenant

	// regs is the gateway-held registration table: the edge owns the
	// cluster.ServerRef handles (a wire client cannot hold an
	// interface), keyed by a gateway-assigned id scoped per tenant.
	regMu   sync.Mutex
	regs    map[uint64]*gateReg
	nextReg atomic.Uint64

	// denied counts requests with an unknown token (no tenant to
	// charge them to).
	denied atomic.Int64

	start time.Time
}

// gateReg is one live registration made through the edge.
type gateReg struct {
	tn   *tenant
	ref  cluster.ServerRef
	port core.Port // tenant-local (unfolded)
	node graph.NodeID
}

// tenant is one configured tenant: identity, tokens, quota and
// counters.
type tenant struct {
	id string
	q  quota
	m  tenantMetrics
}

// tenantMetrics are the per-tenant rollups exported on /metrics.
type tenantMetrics struct {
	requests     atomic.Int64 // admitted API calls (locate batches count each locate)
	locates      atomic.Int64
	locateErrs   atomic.Int64
	registers    atomic.Int64
	deregisters  atomic.Int64
	shed         atomic.Int64 // quota rejections (rate or in-flight)
	watchEvents  atomic.Int64 // events delivered to this tenant's watchers
	watchDropped atomic.Int64 // events lost to slow watchers
	watchers     atomic.Int64 // live watch subscriptions
}

// New builds a gateway over c for the given tenants. hub carries the
// cluster's lifecycle events into Watch streams; pass the same Hub
// whose Publish you installed as the cluster's Options.OnEvent (or nil
// for a gateway without Watch). Tenant ids must be unique, as must
// every token across all tenants.
func New(c *cluster.Cluster, hub *Hub, tenants []TenantConfig) (*Gateway, error) {
	if hub == nil {
		hub = NewHub(0)
	}
	g := &Gateway{
		c:       c,
		hub:     hub,
		tenants: make(map[string]*tenant, len(tenants)),
		byToken: make(map[string]*tenant),
		regs:    make(map[uint64]*gateReg),
		start:   time.Now(),
	}
	for _, tc := range tenants {
		if err := tc.validate(); err != nil {
			return nil, err
		}
		if _, dup := g.tenants[tc.ID]; dup {
			return nil, fmt.Errorf("gate: duplicate tenant id %q", tc.ID)
		}
		tn := &tenant{id: tc.ID}
		tn.q.configure(tc.RatePerSec, tc.Burst, tc.MaxInflight)
		g.tenants[tc.ID] = tn
		for _, tok := range tc.Tokens {
			if _, dup := g.byToken[tok]; dup {
				return nil, fmt.Errorf("gate: token reused across tenants")
			}
			g.byToken[tok] = tn
		}
	}
	return g, nil
}

// Hub returns the gateway's watch hub (install its Publish as the
// backing cluster's Options.OnEvent).
func (g *Gateway) Hub() *Hub { return g.hub }

// Cluster returns the backing cluster.
func (g *Gateway) Cluster() *cluster.Cluster { return g.c }

// Close shuts the watch hub down (active Watch streams end); the
// backing cluster is not closed.
func (g *Gateway) Close() error {
	g.hub.close()
	return nil
}

// auth resolves a bearer token to its tenant.
func (g *Gateway) auth(token string) (*tenant, error) {
	if tn, ok := g.byToken[token]; ok {
		return tn, nil
	}
	g.denied.Add(1)
	return nil, ErrDenied
}

// foldPort prefixes a tenant-local port with the tenant namespace —
// the one line that makes tenancy structural: the cluster never sees
// an unfolded key, so cross-tenant collisions cannot exist below the
// edge.
func foldPort(tenantID string, port core.Port) core.Port {
	return core.Port(tenantID + "/" + string(port))
}

// unfoldPort strips a tenant's namespace prefix; ok reports whether
// the folded port belongs to that tenant.
func unfoldPort(tenantID string, folded core.Port) (core.Port, bool) {
	s, ok := strings.CutPrefix(string(folded), tenantID+"/")
	if !ok {
		return "", false
	}
	return core.Port(s), true
}

// admit charges n requests against the tenant's rate quota and enters
// the in-flight gate; the caller must call the returned release (only
// non-nil on success) when the request completes.
func (g *Gateway) admit(tn *tenant, n int) (release func(), err error) {
	if !tn.q.allow(n) {
		tn.m.shed.Add(1)
		return nil, ErrShed
	}
	if !tn.q.enter() {
		tn.m.shed.Add(1)
		return nil, ErrShed
	}
	tn.m.requests.Add(int64(n))
	return tn.q.leave, nil
}

// register announces a server for the tenant's port at node and
// returns the gateway-assigned registration id: a batch of one.
func (g *Gateway) register(tn *tenant, port core.Port, node graph.NodeID) (uint64, error) {
	ids, err := g.postBatch(tn, []cluster.Registration{{Port: port, Node: node}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// postBatch announces regs (tenant-local ports) through the cluster's
// batched path and returns the gateway-assigned registration ids in
// order. The whole batch is charged against the rate quota up front and
// is all or nothing: an invalid port, a shed or a registration the
// cluster refuses leaves no gateway registration behind (and, by
// Cluster.PostBatch's contract, no liveness record or posting either).
func (g *Gateway) postBatch(tn *tenant, regs []cluster.Registration) ([]uint64, error) {
	folded := make([]cluster.Registration, len(regs))
	for i, r := range regs {
		if err := validPort(r.Port); err != nil {
			return nil, err
		}
		folded[i] = cluster.Registration{Port: foldPort(tn.id, r.Port), Node: r.Node}
	}
	release, err := g.admit(tn, len(regs))
	if err != nil {
		return nil, err
	}
	defer release()
	refs, err := g.c.PostBatch(folded)
	if err != nil {
		// The coordinator undoes a refused batch itself; the simulator
		// hands back the registrations made before the failure.
		for _, ref := range refs {
			if ref != nil {
				_ = ref.Deregister() // best effort: the batch's error is the one reported
			}
		}
		return nil, err
	}
	ids := make([]uint64, len(regs))
	g.regMu.Lock()
	for i, r := range regs {
		ids[i] = g.nextReg.Add(1)
		g.regs[ids[i]] = &gateReg{tn: tn, ref: refs[i], port: r.Port, node: r.Node}
	}
	g.regMu.Unlock()
	tn.m.registers.Add(int64(len(regs)))
	return ids, nil
}

// deregister tombstones a registration made through the edge. The id
// must belong to the calling tenant.
func (g *Gateway) deregister(tn *tenant, id uint64) error {
	release, err := g.admit(tn, 1)
	if err != nil {
		return err
	}
	defer release()
	g.regMu.Lock()
	reg := g.regs[id]
	if reg != nil && reg.tn == tn {
		delete(g.regs, id)
	} else {
		reg = nil
	}
	g.regMu.Unlock()
	if reg == nil {
		return ErrUnknownReg
	}
	tn.m.deregisters.Add(1)
	return reg.ref.Deregister()
}

// locate resolves the tenant's port from client, returning the entry
// with its tenant-local port restored.
func (g *Gateway) locate(tn *tenant, client graph.NodeID, port core.Port) (core.Entry, error) {
	if err := validPort(port); err != nil {
		return core.Entry{}, err
	}
	release, err := g.admit(tn, 1)
	if err != nil {
		return core.Entry{}, err
	}
	defer release()
	tn.m.locates.Add(1)
	e, err := g.c.Locate(client, foldPort(tn.id, port))
	if err != nil {
		tn.m.locateErrs.Add(1)
		return core.Entry{}, err
	}
	e.Port = port
	return e, nil
}

// locateBatch resolves reqs (tenant-local ports) into res through the
// cluster's batched path; the whole batch is charged against the rate
// quota up front and shed atomically, never answered partially wrong.
func (g *Gateway) locateBatch(tn *tenant, reqs []cluster.LocateReq, res []cluster.LocateRes) error {
	for _, r := range reqs {
		if err := validPort(r.Port); err != nil {
			return err
		}
	}
	release, err := g.admit(tn, len(reqs))
	if err != nil {
		return err
	}
	defer release()
	tn.m.locates.Add(int64(len(reqs)))
	folded := make([]cluster.LocateReq, len(reqs))
	for i, r := range reqs {
		folded[i] = cluster.LocateReq{Client: r.Client, Port: foldPort(tn.id, r.Port)}
	}
	if err := g.c.LocateBatch(folded, res); err != nil {
		return err
	}
	for i := range reqs {
		if res[i].Err != nil {
			tn.m.locateErrs.Add(1)
			continue
		}
		res[i].Entry.Port = reqs[i].Port
	}
	return nil
}

// validPort rejects empty and namespace-breaking port names at the
// edge (a "/" in a tenant-local port could alias another tenant's
// namespace after folding only if tenant ids could contain "/", which
// TenantConfig.validate forbids — but an explicit check keeps unfolded
// names round-trippable).
func validPort(port core.Port) error {
	if port == "" {
		return fmt.Errorf("gate: empty port")
	}
	if len(port) > 256 {
		return fmt.Errorf("gate: port name longer than 256 bytes")
	}
	return nil
}
