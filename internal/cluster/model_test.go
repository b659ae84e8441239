package cluster

import (
	"errors"
	"maps"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
)

// model is the reference for answers every history column is checked
// against: the paper's rows as plain maps, behind the transport API so
// the runner drives it like any column. A posting lands at every live
// node of P(origin), read from the layout's strategy.Epoch (widened to
// both epochs' union mid-resize, to base ∪ hot for a promoted port, to
// strategy.HashSet of every rehash attempt under hash locate); a
// locate reads the live nodes of Qₖ(client), family by family, keeping
// the freshest active row a node holds as a member of Pₖ(row's origin)
// when reads are family-scoped. It knows registrations, tombstones,
// crash marks, epoch membership and family scoping, and — through the
// package's own deterministic planners — corruption, repair and
// armed lies. It models no routing and charges nothing.
type model struct {
	n, hash   int
	cur, prev *strategy.Epoch
	rm        *strategy.Remap
	elastic   bool
	w         *strategy.Weighted
	hot       map[core.Port]bool
	crashed   []bool
	rows      []map[modelKey]core.Entry
	srvs      []*modelServer // server id i+1
	clock     uint64
	lies      forgeTable
	dual      int64
}

type modelKey struct {
	port core.Port
	id   uint64
}

// modelServer is the model's ServerRef.
type modelServer struct {
	m         *model
	port      core.Port
	id        uint64
	node      graph.NodeID
	gone, hot bool
}

// errRefused stands for the errors a transport makes up itself: a
// resize still draining, an epoch out of order, no weighted strategy.
var errRefused = errors.New("refused")

func newModel(n int, lay Layout) *model {
	m := &model{n: n, hash: lay.Hash, cur: lay.Epoch, elastic: lay.Elastic, w: lay.Weighted, hot: map[core.Port]bool{},
		crashed: make([]bool, n), rows: make([]map[modelKey]core.Entry, n)}
	for v := range m.rows {
		m.rows[v] = map[modelKey]core.Entry{}
	}
	return m
}

// scope is the geometry reads are family-scoped by, nil when unscoped.
func (m *model) scope() familyGeometry {
	if m.hash == 0 && (m.elastic || m.cur.Replicas() > 1) {
		return m.cur
	}
	return nil
}

func (m *model) postSet(s *modelServer, node graph.NodeID) (set []graph.NodeID) {
	if m.hash > 0 { // every rehash attempt's addresses
		for k := range m.cur.Replicas() {
			set = unionIDs(set, strategy.HashSet(s.port, k, m.hash, m.n))
		}
		return set
	}
	if m.w != nil && (s.hot || m.hot[s.port]) {
		s.hot = true
		return m.w.UnionPost(node)
	}
	if m.prev != nil {
		return unionIDs(m.cur.PostSet(node), m.prev.PostSet(node))
	}
	return m.cur.PostSet(node)
}

// post stamps s's entry from node and merges it at every live target.
func (m *model) post(s *modelServer, node graph.NodeID, active bool, targets []graph.NodeID) error {
	if m.crashed[node] {
		return sim.ErrCrashed
	}
	m.clock++
	e := core.Entry{Port: s.port, Addr: node, ServerID: s.id, Time: m.clock, Active: active}
	for _, v := range targets {
		if cur, ok := m.rows[v][modelKey{s.port, s.id}]; !m.crashed[v] && (!ok || cur.Time < e.Time) {
			m.rows[v][modelKey{s.port, s.id}] = e
		}
	}
	return nil
}

func (m *model) valid(v graph.NodeID) bool { return v >= 0 && int(v) < m.n }

func (m *model) home(node graph.NodeID) error {
	if !m.valid(node) || !m.cur.Contains(node) {
		return graph.ErrNodeRange
	}
	return nil
}

func (m *model) PostBatch(regs []Registration) ([]ServerRef, error) {
	for _, r := range regs {
		if err := m.home(r.Node); err != nil {
			return nil, err
		}
		if m.crashed[r.Node] {
			return nil, sim.ErrCrashed
		}
	}
	refs := make([]ServerRef, len(regs))
	for i, r := range regs {
		s := &modelServer{m: m, port: r.Port, id: uint64(len(m.srvs) + 1), node: r.Node}
		m.srvs = append(m.srvs, s)
		m.post(s, r.Node, true, m.postSet(s, r.Node))
		refs[i] = s
	}
	return refs, nil
}

func (m *model) Register(port core.Port, node graph.NodeID) (ServerRef, error) {
	refs, err := m.PostBatch([]Registration{{Port: port, Node: node}})
	if err != nil {
		return nil, err
	}
	return refs[0], nil
}

func (s *modelServer) Port() core.Port    { return s.port }
func (s *modelServer) Node() graph.NodeID { return s.node }

func (s *modelServer) Migrate(to graph.NodeID) error {
	if err := s.m.home(to); err != nil {
		return err
	}
	if s.gone {
		return core.ErrServerGone
	}
	from := s.node
	s.node = to
	_ = s.m.post(s, from, false, s.m.postSet(s, from)) // a crashed host cannot tombstone
	return s.m.post(s, to, true, s.m.postSet(s, to))
}

func (s *modelServer) Repost() error     { return s.lifecycle(true) }
func (s *modelServer) Deregister() error { return s.lifecycle(false) }

func (s *modelServer) lifecycle(active bool) error {
	if s.gone {
		return core.ErrServerGone
	}
	s.gone = !active
	return s.m.post(s, s.node, active, s.m.postSet(s, s.node))
}

func (m *model) Crash(v graph.NodeID) error   { return m.mark(v, true) }
func (m *model) Restore(v graph.NodeID) error { return m.mark(v, false) }

func (m *model) mark(v graph.NodeID, down bool) error {
	if !m.valid(v) {
		return graph.ErrNodeRange
	}
	if m.crashed[v] = down; down {
		clear(m.rows[v])
	}
	return nil
}

func (m *model) live() (out []*modelServer) {
	for _, s := range m.srvs {
		if !s.gone {
			out = append(out, s)
		}
	}
	return out
}

func (m *model) Resize(next *strategy.Epoch) (int, error) {
	switch {
	case !m.elastic:
		return 0, ErrNotElastic
	case m.prev != nil || next.Seq() <= m.cur.Seq():
		return 0, errRefused
	}
	for _, s := range m.live() {
		if !next.Contains(s.node) {
			return 0, errRefused
		}
	}
	m.rm, _ = strategy.NewRemap(m.cur, next)
	m.prev, m.cur = m.cur, next
	moved := 0
	for _, s := range m.live() {
		if added := m.rm.Added(s.node); len(added) > 0 && m.post(s, s.node, true, added) == nil {
			moved += len(added)
		}
	}
	return moved, nil
}

func (m *model) FinishResize() error {
	switch {
	case !m.elastic:
		return ErrNotElastic
	case m.prev == nil:
		return errRefused
	}
	for _, s := range m.live() {
		for _, v := range m.rm.Removed(s.node) {
			delete(m.rows[v], modelKey{s.port, s.id})
		}
	}
	m.prev, m.rm = nil, nil
	return nil
}

func (m *model) Resizing() bool          { return m.prev != nil }
func (m *model) DualEpochLocates() int64 { return m.dual }

// flood reads family k (the serving epoch's families, then the retiring
// one's) and returns every admitted active answer with the node that
// gave it, in query-set order.
func (m *model) flood(client graph.NodeID, port core.Port, k int) (answers []core.Entry, from []graph.NodeID, dual bool, err error) {
	if !m.valid(client) {
		return nil, nil, false, graph.ErrNodeRange
	}
	if m.crashed[client] {
		return nil, nil, false, sim.ErrCrashed
	}
	ep, fam := m.cur, k
	if k >= m.cur.Replicas() {
		if ep, fam = m.prev, k-m.cur.Replicas(); ep == nil || fam >= ep.Replicas() {
			if m.elastic {
				return nil, nil, false, core.ErrNotFound
			}
			return nil, nil, false, errRefused
		}
	}
	targets := ep.QuerySet(client, fam)
	if m.w != nil && m.hot[port] {
		targets = m.w.Hot().Query(client)
	} else if m.hash > 0 {
		targets = strategy.HashSet(port, fam, m.hash, m.n)
	}
	for _, v := range targets {
		if m.crashed[v] {
			continue
		}
		var held []core.Entry
		if rec, armed := m.lies.lieFor(v, port); armed {
			if !rec.silent {
				held = []core.Entry{rec.e} // a lie replaces the rows, whatever port it names
			}
		} else {
			for k, e := range m.rows[v] {
				if k.port == port {
					held = append(held, e)
				}
			}
		}
		for _, e := range held {
			if e.Active && (m.scope() == nil || ep.InPost(fam, e.Addr, v)) {
				answers, from = append(answers, e), append(from, v)
			}
		}
	}
	if len(answers) == 0 {
		return nil, nil, false, core.ErrNotFound
	}
	return answers, from, ep == m.prev, nil
}

func (m *model) LocateReplicaAt(client graph.NodeID, port core.Port, k int) (core.Entry, graph.NodeID, error) {
	answers, from, dual, err := m.flood(client, port, k)
	if err != nil {
		return core.Entry{}, 0, err
	}
	best := 0
	for i, e := range answers {
		if fresher(e, answers[best]) {
			best = i
		}
	}
	if dual {
		m.dual++
	}
	return answers[best], from[best], nil
}

// tryFamilies tries the families in order, stopping at the first answer
// or at any failure that is not a miss.
func tryFamilies[T any](m *model, attempt func(k int) (T, error)) (T, error) {
	r := m.cur.Replicas()
	if m.prev != nil {
		r += m.prev.Replicas()
	}
	var (
		out T
		err error
	)
	for k := 0; k < r; k++ {
		if out, err = attempt(k); !errors.Is(err, core.ErrNotFound) {
			break
		}
	}
	return out, err
}

func (m *model) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	return tryFamilies(m, func(k int) (core.Entry, error) {
		e, _, err := m.LocateReplicaAt(client, port, k)
		return e, err
	})
}

func (m *model) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	return tryFamilies(m, func(k int) ([]core.Entry, error) {
		answers, _, _, err := m.flood(client, port, k)
		freshest := map[uint64]core.Entry{}
		for _, e := range answers {
			if cur, ok := freshest[e.ServerID]; !ok || e.Time > cur.Time {
				freshest[e.ServerID] = e
			}
		}
		return slices.Collect(maps.Values(freshest)), err
	})
}

func (m *model) LocateBatch(reqs []LocateReq, res []LocateRes) {
	for i, r := range reqs {
		res[i].Entry, res[i].Err = m.Locate(r.Client, r.Port)
	}
}

func (m *model) Probe(client graph.NodeID, e core.Entry) (core.Entry, error) {
	switch {
	case !m.valid(client) || !m.valid(e.Addr):
		return core.Entry{}, graph.ErrNodeRange
	case m.crashed[client] || m.crashed[e.Addr]:
		return core.Entry{}, sim.ErrCrashed
	case e.ServerID == 0 || e.ServerID > uint64(len(m.srvs)):
		return core.Entry{}, core.ErrNotFound
	}
	if s := m.srvs[e.ServerID-1]; s.gone || s.node != e.Addr || s.port != e.Port {
		return core.Entry{}, core.ErrNotFound
	}
	return e, nil
}

func (m *model) SetHotPorts(ports []core.Port) error {
	if m.w == nil {
		return errRefused
	}
	var err error
	for _, s := range m.live() {
		if slices.Contains(ports, s.port) && !m.hot[s.port] {
			s.hot = true
			err = errors.Join(err, m.post(s, s.node, true, m.postSet(s, s.node)))
		}
	}
	m.hot = map[core.Port]bool{}
	for _, p := range ports {
		m.hot[p] = true
	}
	return err
}

// regs is the ground truth the corruption and forgery planners draw
// from, in the order the transports hand it to them.
func (m *model) regs() (out []corruptReg) {
	for _, s := range m.live() {
		if !m.crashed[s.node] {
			out = append(out, corruptReg{port: s.port, id: s.id, node: s.node, targets: m.postSet(s, s.node)})
		}
	}
	return out
}

func (m *model) Corrupt(opts CorruptOptions) (int, error) {
	plan := buildCorruptPlan(opts, m.regs(), m.n)
	for _, op := range plan {
		if op.drop {
			delete(m.rows[op.node], modelKey{op.port, op.id})
		} else {
			m.rows[op.node][modelKey{op.e.Port, op.e.ServerID}] = op.e
		}
	}
	return len(plan), nil
}

func (m *model) Arm(opts ArmOptions) (int, error) {
	plan := buildForgePlan(opts, m.regs(), m.n, m.scope())
	m.lies = buildForgeTable(plan)
	return len(plan), nil
}

func (m *model) Disarm() error              { m.lies = nil; return nil }
func (m *model) ArmedNodes() []graph.NodeID { return m.lies.nodes() }

// ReconcileRound is one repair round: every live node's active rows are
// diffed against what the live registrations should have put there;
// wrong or unexpected rows expire, missing or wrong ones are re-posted
// from a live origin.
func (m *model) ReconcileRound() (int, error) {
	want := make([]map[modelKey]graph.NodeID, m.n)
	for _, s := range m.live() {
		for _, v := range m.postSet(s, s.node) {
			if want[v] == nil {
				want[v] = map[modelKey]graph.NodeID{}
			}
			want[v][modelKey{s.port, s.id}] = s.node
		}
	}
	repaired, reposts := 0, map[*modelServer][]graph.NodeID{}
	for v := range m.rows {
		have := map[modelKey]graph.NodeID{}
		for k, e := range m.rows[v] {
			if e.Active {
				have[k] = e.Addr
			}
		}
		if m.crashed[v] || maps.Equal(have, want[v]) {
			continue
		}
		for k, addr := range have {
			if w, ok := want[v][k]; !ok || w != addr {
				delete(m.rows[v], k)
				repaired++
			}
		}
		for k, addr := range want[v] {
			if got, ok := have[k]; !ok || got != addr {
				if !ok {
					delete(m.rows[v], k)
					repaired++
				}
				s := m.srvs[k.id-1]
				reposts[s] = append(reposts[s], graph.NodeID(v))
			}
		}
	}
	for _, s := range m.srvs { // in server-id order, as the coordinator re-posts
		if vs := reposts[s]; len(vs) > 0 && m.post(s, s.node, true, vs) == nil {
			repaired += len(vs)
		}
	}
	return repaired, nil
}

func (m *model) Name() string         { return "model" }
func (m *model) N() int               { return m.n }
func (m *model) Gen(core.Port) uint64 { return 0 }
func (m *model) Passes() int64        { return 0 }
func (m *model) ResetPasses()         {}
func (m *model) Close() error         { return nil }
