package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// A history is the one way this package's tests compare transports: a
// world (graph, strategy, replication, membership), a set of columns, and
// a flat list of steps, one per line. A step whose line starts with "&"
// runs concurrently with the steps before it; the steps of such a group
// touch pairwise-distinct ports. The text form round-trips:
//
//	world complete 36 r=2           # or: world grid 6 6; options r=K active=M elastic weighted hash=A
//	columns model sim mem net+hints # kind[/elastic][+hints][+vote][+cluster]
//	register alpha 7
//	locate 0-35/3 alpha,beta        # clients: n, a-b, a-b/step, comma lists
//	& migrate beta 4                # a server is its port, or port.k for the k-th registered
type history struct {
	world, cols []string
	steps       []step
}

type step struct {
	conc bool
	op   string
	args []string
}

// stepArgs is the step grammar: each op's least and greatest argument
// count, and whether it may join a concurrent group.
var stepArgs = map[string]struct {
	lo, hi int
	conc   bool
}{
	"register": {2, 2, false}, "post-batch": {1, 64, false}, "migrate": {2, 2, true},
	"deregister": {1, 1, true}, "repost": {1, 1, true}, "crash": {1, 1, false}, "restore": {1, 1, false},
	"resize": {3, 3, true}, "finish-resize": {0, 0, true}, "corrupt": {2, 2, false},
	"arm": {2, 3, false}, "disarm": {0, 0, false}, "reconcile": {0, 0, false},
	"set-hot-ports": {0, 1, false}, "locate": {2, 2, true}, "locate-replica": {3, 3, true},
	"locate-all": {2, 2, true}, "locate-batch": {2, 2, true}, "probe": {3, 3, true}, "close": {0, 0, false},
}

func parseHistory(text string) (*history, error) {
	h := &history{}
	var group []core.Port // the ports of the concurrent group being read
	for i, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "world":
			h.world = f[1:]
		case f[0] == "columns":
			h.cols = f[1:]
		default:
			s := step{conc: f[0] == "&"}
			if s.conc {
				f = f[1:]
			}
			if len(f) == 0 {
				return nil, fmt.Errorf("line %d: empty step", i+1)
			}
			s.op, s.args = f[0], f[1:]
			g, ok := stepArgs[s.op]
			if !ok || len(s.args) < g.lo || len(s.args) > g.hi {
				return nil, fmt.Errorf("line %d: %q is no step of the grammar", i+1, line)
			}
			if !s.conc {
				group = nil
			} else if len(h.steps) == 0 || !g.conc || !stepArgs[h.steps[len(h.steps)-1].op].conc {
				return nil, fmt.Errorf("line %d: %s cannot run concurrently", i+1, s.op)
			}
			for _, p := range s.ports() {
				if slices.Contains(group, p) {
					return nil, fmt.Errorf("line %d: a concurrent group shares port %s", i+1, p)
				}
				group = append(group, p)
			}
			h.steps = append(h.steps, s)
		}
	}
	return h, nil
}

func mustHistory(t testing.TB, text string) *history {
	t.Helper()
	h, err := parseHistory(text)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (s step) String() string {
	line := strings.Join(append([]string{s.op}, s.args...), " ")
	if s.conc {
		line = "& " + line
	}
	return line
}

func (h *history) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "world %s\ncolumns %s\n", strings.Join(h.world, " "), strings.Join(h.cols, " "))
	for _, s := range h.steps {
		fmt.Fprintln(&b, s)
	}
	return b.String()
}

// ports lists the ports a step touches.
func (s step) ports() []core.Port {
	switch s.op {
	case "locate", "locate-all", "locate-batch":
		return portList(s.args[1])
	case "locate-replica":
		return portList(s.args[2])
	case "probe":
		return []core.Port{refPort(s.args[1])}
	case "migrate", "deregister", "repost":
		return []core.Port{refPort(s.args[0])}
	}
	return nil
}

func refPort(ref string) core.Port {
	port, _, _ := strings.Cut(ref, ".")
	return core.Port(port)
}

func portList(tok string) (out []core.Port) {
	for _, p := range strings.Split(tok, ",") {
		out = append(out, core.Port(p))
	}
	return out
}

// nodeList expands "n", "a-b" and "a-b/step" items, comma-separated.
func nodeList(tok string) (out []graph.NodeID) {
	for _, item := range strings.Split(tok, ",") {
		span, by, _ := strings.Cut(item, "/")
		a, b, ok := strings.Cut(span, "-")
		lo, _ := strconv.Atoi(a)
		hi, stride := lo, 1
		if ok {
			hi, _ = strconv.Atoi(b)
		}
		if by != "" {
			stride, _ = strconv.Atoi(by)
		}
		for v := lo; v <= hi; v += max(stride, 1) {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

func atoi(tok string) int {
	v, _ := strconv.Atoi(tok)
	return v
}

// buildWorld turns a world line into its graph and layout.
func buildWorld(tok []string) (g *graph.Graph, lay Layout, err error) {
	if len(tok) < 2 {
		return nil, Layout{}, fmt.Errorf("world %v: want complete N, grid W H or a §3 world", tok)
	}
	defer func() {
		if p := recover(); p != nil {
			g, err = nil, fmt.Errorf("world %v: %v", tok, p)
		}
	}()
	var base rendezvous.Strategy
	opts, k := tok[2:], atoi(tok[1])
	switch tok[0] { // the §3 topologies with their strategies
	case "grid":
		gr := must(topology.NewGrid(k, atoi(tok[2])))
		g, base, opts = gr.G, strategy.Manhattan(gr), tok[3:]
	case "hypercube":
		h := must(topology.NewHypercube(k))
		g, base = h.G, must(strategy.HalfCube(h))
	case "ccc":
		c := must(topology.NewCCC(k))
		g, base = c.G, strategy.CCCSplit(c)
	case "plane":
		p := must(topology.NewPlane(k))
		g, base = p.G, strategy.PlaneLines(p)
	case "hierarchy":
		h := must(topology.NewHierarchy(k, k, k))
		g, base = h.G, strategy.HierarchyGateways(h)
	case "random":
		g = must(topology.RandomConnected(k, k/2, 1))
		base = must(strategy.NewDecomposition(g)).Strategy()
	case "ring":
		g, base = must(topology.Ring(k)), rendezvous.Checkerboard(k)
	default:
		g = topology.Complete(k)
	}
	r, active, hash, elastic, weighted := 1, g.N(), 0, false, false
	for _, o := range opts {
		k, v, _ := strings.Cut(o, "=")
		switch k {
		case "r":
			r = atoi(v)
		case "active":
			active, elastic = atoi(v), true
		case "elastic":
			elastic = true
		case "weighted":
			weighted = true
		case "hash":
			hash = atoi(v)
		default:
			return nil, Layout{}, fmt.Errorf("world option %q", o)
		}
	}
	if base == nil {
		base = rendezvous.Checkerboard(active)
	}
	if weighted {
		hot := must(strategy.PostHeavy(g.N(), strategy.AlphaQuerySize(g.N(), 16)))
		lay, err := WeightedLayout(must(strategy.NewWeighted(base, hot)))
		return g, lay, err
	}
	ep, err := strategy.NewEpoch(1, g.N(), base, r)
	return g, Layout{Epoch: ep, Elastic: elastic, Hash: hash}, err
}

// must returns v, panicking on err: for setup that cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// system is what the runner drives: every transport, and the model.
type system interface {
	Transport
	Resize(next *strategy.Epoch) (int, error)
	FinishResize() error
	Resizing() bool
	DualEpochLocates() int64
	ReconcileRound() (int, error)
	Corrupt(opts CorruptOptions) (int, error)
	Arm(opts ArmOptions) (int, error)
	Disarm() error
	ArmedNodes() []graph.NodeID
	LocateReplicaAt(client graph.NodeID, port core.Port, replica int) (core.Entry, graph.NodeID, error)
}

// column is one system a history runs on, optionally behind a Cluster.
// Columns with one front must charge alike; the model charges nothing.
type column struct {
	name, front string
	tr          system
	cl          *Cluster
	model       bool
	vote        int         // the effective vote quorum, 0 when unvoted
	refs        []ServerRef // by registration, aligned with the runner's handles
	handleOf    map[uint64]int
	closed      bool
}

// newColumn builds spec = kind[/elastic][+hints][+vote][+cluster] over
// g and lay, kind one of model, sim, mem and net. Every mem and net
// column checks the substrate's grouping rule on every key list.
func newColumn(t testing.TB, g *graph.Graph, lay Layout, spec string) *column {
	t.Helper()
	kind, mods, _ := strings.Cut(spec, "+")
	kind, variant, _ := strings.Cut(kind, "/")
	lay.Elastic = lay.Elastic || variant == "elastic"
	var (
		tr  system
		err error
	)
	switch kind {
	case "model":
		tr = newModel(g.N(), lay)
	case "sim":
		tr, err = NewLayoutSimTransport(g, lay)
	case "mem":
		var mt *MemTransport
		if mt, err = NewLayoutMemTransport(g, lay, 0); err == nil {
			mt.coordinator.sub, tr = &groupedSubstrate{substrate: mt.mem, t: t}, mt
		}
	case "net":
		var nt *NetTransport
		if nt, err = NewLayoutNetTransport(g, lay, loopbackNodes(t, g.N(), 3), NetOptions{}); err == nil {
			nt.coordinator.sub, tr = &groupedSubstrate{substrate: nt.wire, t: t}, nt
		}
	default:
		err = fmt.Errorf("column kind %q", kind)
	}
	if err != nil {
		t.Fatalf("column %s: %v", spec, err)
	}
	c := frontColumn(spec, tr, mods, kind == "net")
	c.model = kind == "model"
	return c
}

// frontColumn puts the Cluster mods ask for in front of tr. A cluster
// over a wire transport does not share floods, so it charges per call.
func frontColumn(name string, tr system, mods string, wire bool) *column {
	c := &column{name: name, front: mods, tr: tr, handleOf: map[uint64]int{}}
	if mods == "" {
		return c
	}
	opts := Options{Hints: strings.Contains(mods, "hints"), DisableCoalescing: wire}
	if r := tr.(ReplicatedTransport).Replicas(); strings.Contains(mods, "vote") && r > 1 {
		opts.VoteQuorum, c.vote = r, r
	}
	c.cl = New(tr, opts)
	return c
}

func (c *column) close() {
	if !c.closed {
		c.closed = true
		if c.cl != nil {
			c.cl.Close()
		} else {
			c.tr.Close()
		}
	}
}

func refID(ref ServerRef) uint64 {
	if s, ok := ref.(*modelServer); ok {
		return s.id
	}
	return ref.(*server).id
}

// groupedSubstrate asserts the substrate contract's grouping rule on
// every key list it passes through: the keys of one request are
// adjacent, requests in ascending order.
type groupedSubstrate struct {
	substrate
	t testing.TB
}

func (g *groupedSubstrate) check(op string, keys []rowKey) {
	if !slices.IsSortedFunc(keys, func(a, b rowKey) int { return int(a.req - b.req) }) {
		g.t.Errorf("%s key list is not grouped by request: %v", op, keys)
	}
}

func (g *groupedSubstrate) post(entries []core.Entry, rows []rowKey) {
	g.check("post", rows)
	g.substrate.post(entries, rows)
}

func (g *groupedSubstrate) readFreshest(fl *flood) {
	g.check("readFreshest", fl.keys)
	g.substrate.readFreshest(fl)
}

func (g *groupedSubstrate) readAll(fl *flood) {
	g.check("readAll", fl.keys)
	g.substrate.readAll(fl)
}

// call is one observed operation: its outcome, its charge and whether
// a retiring epoch's family answered it.
type call struct {
	out  string
	cost int64
	dual bool
}

// handle is the runner's record of one successful registration, for the
// invariants that hold whatever the columns are.
type handle struct {
	port   core.Port
	home   graph.NodeID
	gone   bool
	stale  bool                  // it left a crashed host, whose postings no tombstone reached
	buried bool                  // deregistered from up, never stale: its tombstones reached every live rendezvous node
	left   map[graph.NodeID]bool // addresses it migrated away from with the tombstone sent
}

// tally counts what a history exercised, for the suites to assert on.
type tally struct {
	forged, closed, missed, dual, repaired int
}

type runner struct {
	t       testing.TB
	g       *graph.Graph
	lay     Layout
	routing *graph.Routing
	cols    []*column
	handles []*handle
	crashed map[graph.NodeID]bool
	epochs  map[string]*strategy.Epoch
	dirty   bool // corrupted since the last complete repair: answers may name anything
	liars   int
	mask    bool // fixed and elastic r = 1 reads side by side: their lies aim differently
	at      string
	last    [][]call // each column's calls in the last step
	done    bool
	tally   tally
}

// newRunner builds h's columns — or takes cols, built by the caller.
func newRunner(t testing.TB, h *history, cols ...*column) *runner {
	t.Helper()
	g, lay, err := buildWorld(h.world)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{t: t, g: g, lay: lay, cols: cols, crashed: map[graph.NodeID]bool{}, epochs: map[string]*strategy.Epoch{}}
	if r.routing, err = graph.NewRouting(g); err != nil {
		t.Fatal(err)
	}
	scoped := map[bool]bool{}
	for _, spec := range h.cols {
		r.cols = append(r.cols, newColumn(t, g, lay, spec))
		scoped[lay.Elastic || strings.Contains(spec, "/elastic") || lay.Epoch.Replicas() > 1] = true
	}
	r.mask = len(scoped) > 1
	return r
}

// runHistory runs text and fails t at the first divergence; the columns
// close when the test ends. A history on columns of its own runs in
// parallel with the package's other such histories.
func runHistory(t testing.TB, text string, cols ...*column) *runner {
	t.Helper()
	if tt, ok := t.(*testing.T); ok && len(cols) == 0 {
		tt.Parallel()
	}
	h := mustHistory(t, text)
	r := newRunner(t, h, cols...)
	t.Cleanup(r.close)
	if err := r.try(h.steps); err != nil {
		t.Fatal(err)
	}
	return r
}

// more runs further steps on r's columns.
func (r *runner) more(text string) {
	r.t.Helper()
	if err := r.try(mustHistory(r.t, text).steps); err != nil {
		r.t.Fatal(err)
	}
}

// checkHistory runs h on fresh columns and returns its first divergence.
func checkHistory(t testing.TB, h *history) error {
	r := newRunner(t, h)
	defer r.close()
	return r.try(h.steps)
}

func (r *runner) close() {
	for _, c := range r.cols {
		c.close()
	}
}

func (r *runner) failf(format string, args ...any) {
	panic(r.at + ": " + fmt.Sprintf(format, args...)) // try recovers it
}

func (r *runner) try(steps []step) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	for i := 0; i < len(steps) && !r.done; {
		j := i + 1
		for j < len(steps) && steps[j].conc {
			j++
		}
		r.group(steps[i:j])
		i = j
	}
	r.compareMetrics()
	return nil
}

// group runs one step, or one concurrent group, on every column and
// checks it: answers call by call, charges call by call within one front
// (a concurrent group's as their sum), the runner's invariants, and on a
// sim column the charge against the hops its network carried — equal
// while no node is crashed, at most the charge otherwise: the substrate
// is never handed a crashed target, which the charge still pays for.
func (r *runner) group(steps []step) {
	lines := make([]string, len(steps))
	for i, s := range steps {
		lines[i] = s.String()
	}
	r.at = strings.Join(lines, " | ")
	seq, racy, quiet := len(steps) == 1, false, !slices.Contains(slices.Collect(maps.Values(r.crashed)), true)
	for _, s := range steps {
		quiet = quiet && s.op != "crash"
		if s.op == "resize" {
			r.epoch(s) // built before the goroutines read it
		}
		// Locates racing an epoch change flood the families they find, so
		// their charges depend on the schedule; their answers do not.
		racy = racy || !seq && strings.Contains(s.op, "resize")
	}
	got := make([][][]call, len(r.cols)) // column, step, call
	sums := make([]int64, len(r.cols))
	for ci, c := range r.cols {
		got[ci] = make([][]call, len(steps))
		before, hops := c.tr.Passes(), int64(0)
		if st, ok := c.tr.(*SimTransport); ok {
			hops = st.Hops()
		}
		var wg sync.WaitGroup
		fails := make([]any, len(steps))
		for si, s := range steps {
			if seq || c.model { // the model is a sequential reference: its maps take no locks
				got[ci][si] = r.do(c, s, seq)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { fails[si] = recover() }()
				got[ci][si] = r.do(c, s, false)
			}()
		}
		wg.Wait()
		for _, p := range fails {
			if p != nil {
				panic(p)
			}
		}
		sums[ci] = c.tr.Passes() - before
		if st, ok := c.tr.(*SimTransport); ok {
			if hops = st.Hops() - hops; hops > sums[ci] || quiet && hops != sums[ci] {
				r.failf("%s charged %d passes, its network carried %d", c.name, sums[ci], hops)
			}
		}
		for cj, o := range r.cols[:ci] {
			if c.front == o.front && !c.model && !o.model && !racy && sums[ci] != sums[cj] {
				r.failf("%s charged %d passes, %s %d", o.name, sums[cj], c.name, sums[ci])
			}
		}
	}
	for si, s := range steps {
		r.compare(s, got, si, seq)
		r.last = r.last[:0]
		for ci := range r.cols {
			r.last = append(r.last, got[ci][si])
		}
		r.after(s, got[0][si])
	}
}

// ref resolves "port" or "port.k" to a handle index, -1 when the
// history registered no such server.
func (r *runner) ref(tok string) int {
	port, k := refPort(tok), 1
	if _, n, ok := strings.Cut(tok, "."); ok {
		k = atoi(n)
	}
	for i, h := range r.handles {
		if h.port == port {
			if k--; k == 0 {
				return i
			}
		}
	}
	return -1
}

// epoch is resize's next epoch: a checkerboard over the first active
// nodes, r-fold; nil when there is no such epoch.
func (r *runner) epoch(s step) *strategy.Epoch {
	key := strings.Join(s.args, " ")
	ep, ok := r.epochs[key]
	if !ok {
		ep, _ = strategy.NewEpoch(uint64(atoi(s.args[0])), r.g.N(), rendezvous.Checkerboard(max(atoi(s.args[1]), 1)), atoi(s.args[2]))
		r.epochs[key] = ep
	}
	return ep
}

func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{{nil, "ok"}, {core.ErrNotFound, "not-found"}, {sim.ErrCrashed, "crashed"}, {graph.ErrNodeRange, "node-range"},
		{core.ErrServerGone, "gone"}, {ErrNotElastic, "not-elastic"}, {ErrClosed, "closed"}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "refused"
}

// answer renders a locate's outcome and checks the invariants on it: no
// answer names a server whose tombstones reached every live rendezvous
// node, or an address it left the same way, and a vote at q ≥ 2f+1
// never believes a lie.
func (r *runner) answer(c *column, voted bool, e core.Entry, err error) string {
	if err != nil {
		return errClass(err)
	}
	forged := e.Time == ForgedTime
	if h, ok := c.handleOf[e.ServerID]; ok && !forged && !r.dirty && (r.handles[h].buried || r.handles[h].left[e.Addr]) {
		r.failf("%s named %s#%d@%d, which its tombstones buried", c.name, e.Port, e.ServerID, e.Addr)
	}
	if forged && voted && !r.dirty && c.vote >= 2*r.liars+1 { // corrupt rows are faults the bound does not count
		r.failf("%s believed a forged answer %+v at quorum %d against %d liars", c.name, e, c.vote, r.liars)
	}
	at := strconv.Itoa(int(e.Addr))
	if forged {
		if r.mask {
			at = "?"
		}
		at += "!"
	}
	return fmt.Sprintf("%s#%d@%s", e.Port, e.ServerID, at)
}

func (r *runner) answers(c *column, es []core.Entry, err error) string {
	if err != nil {
		return errClass(err)
	}
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = r.answer(c, false, e, nil)
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// do runs s on column c. In a sequential step every call is charged on
// its own; in a concurrent group only the group's sum means anything.
func (r *runner) do(c *column, s step, seq bool) (calls []call) {
	before, dual := c.tr.Passes(), c.tr.DualEpochLocates()
	note := func(out string) {
		cl := call{out: out}
		if seq {
			now, d := c.tr.Passes(), c.tr.DualEpochLocates()
			cl.cost, cl.dual, before, dual = now-before, d > dual, now, d
		}
		calls = append(calls, cl)
	}
	one := func(e core.Entry, err error) string { return r.answer(c, false, e, err) }
	voted := func(e core.Entry, err error) string { return r.answer(c, c.vote > 0, e, err) }
	all := func(es []core.Entry, err error) string { return r.answers(c, es, err) }
	sweep := func(clients, ports string, each func(graph.NodeID, core.Port)) {
		for _, cl := range nodeList(clients) {
			for _, p := range portList(ports) {
				each(cl, p)
			}
		}
	}
	var front interface {
		Register(core.Port, graph.NodeID) (ServerRef, error)
		PostBatch([]Registration) ([]ServerRef, error)
		Locate(graph.NodeID, core.Port) (core.Entry, error)
		LocateAll(graph.NodeID, core.Port) ([]core.Entry, error)
		Resize(*strategy.Epoch) (int, error)
		FinishResize() error
		ReconcileRound() (int, error)
	} = c.tr
	if c.cl != nil {
		front = c.cl
	}
	switch a := s.args; s.op {
	case "register", "post-batch":
		if s.op == "register" {
			a = []string{a[0] + "@" + a[1]}
		}
		regs := make([]Registration, len(a))
		for i, tok := range a {
			port, node, _ := strings.Cut(tok, "@")
			regs[i] = Registration{Port: core.Port(port), Node: graph.NodeID(atoi(node))}
		}
		var (
			refs []ServerRef
			err  error
		)
		if s.op == "post-batch" {
			refs, err = front.PostBatch(regs)
		} else if ref, rerr := front.Register(regs[0].Port, regs[0].Node); rerr != nil {
			err = rerr
		} else {
			refs = []ServerRef{ref}
		}
		out := []string{errClass(err)}
		for _, ref := range refs {
			out = append(out, fmt.Sprintf("%s@%d", ref.Port(), ref.Node()))
			c.handleOf[refID(ref)] = len(c.refs)
			c.refs = append(c.refs, ref)
		}
		note(strings.Join(out, " "))
		for _, reg := range regs {
			if all, _ := c.tr.LocateAll(0, reg.Port); err != nil { // a refused batch leaves nothing behind
				for _, e := range all {
					if _, ok := c.handleOf[e.ServerID]; !ok && e.Time != ForgedTime {
						r.failf("%s: the refused batch left %+v behind", c.name, e)
					}
				}
			}
		}
	case "migrate", "deregister", "repost":
		if h := r.ref(a[0]); h < 0 {
			note("no-such-server")
		} else {
			ref := c.refs[h]
			note(errClass(map[string]func() error{"migrate": func() error { return ref.Migrate(graph.NodeID(atoi(a[len(a)-1]))) },
				"deregister": ref.Deregister, "repost": ref.Repost}[s.op]()))
		}
	case "crash", "restore":
		mark := map[string]func(graph.NodeID) error{"crash": c.tr.Crash, "restore": c.tr.Restore}[s.op]
		for _, v := range nodeList(a[0]) {
			note(errClass(mark(v)))
		}
	case "resize", "finish-resize":
		var (
			moved int
			err   = errRefused
		)
		switch {
		case s.op == "finish-resize":
			err = front.FinishResize()
		case r.epoch(s) != nil:
			moved, err = front.Resize(r.epoch(s))
		}
		note(fmt.Sprintf("%s moved %d resizing=%v", errClass(err), moved, c.tr.Resizing()))
	case "corrupt":
		k, err := c.tr.Corrupt(CorruptOptions{Seed: int64(atoi(a[0])), Count: atoi(a[1])})
		note(fmt.Sprintf("injected %d %s", k, errClass(err)))
	case "arm":
		k, err := c.tr.Arm(armOptions(a))
		note(fmt.Sprintf("armed %d at %v %s", k, c.tr.ArmedNodes(), errClass(err)))
	case "disarm":
		err := c.tr.Disarm()
		note(fmt.Sprintf("disarmed %v %s", c.tr.ArmedNodes(), errClass(err)))
	case "reconcile":
		r1, err1 := front.ReconcileRound()
		r2, err2 := front.ReconcileRound()
		note(fmt.Sprintf("repaired %d then %d %s", r1, r2, errClass(errors.Join(err1, err2))))
	case "set-hot-ports":
		err := error(errRefused)
		if hr, ok := c.tr.(HotReclassifier); ok {
			err = hr.SetHotPorts(portList(strings.Join(a, ",")))
		}
		note(errClass(err))
	case "locate":
		sweep(a[0], a[1], func(cl graph.NodeID, p core.Port) { note(voted(front.Locate(cl, p))) })
	case "locate-replica":
		sweep(a[1], a[2], func(cl graph.NodeID, p core.Port) {
			e, from, err := c.tr.LocateReplicaAt(cl, p, atoi(a[0]))
			note(fmt.Sprintf("%s from %d", one(e, err), from))
		})
	case "locate-all":
		sweep(a[0], a[1], func(cl graph.NodeID, p core.Port) { note(all(front.LocateAll(cl, p))) })
	case "locate-batch":
		var reqs []LocateReq
		sweep(a[0], a[1], func(cl graph.NodeID, p core.Port) { reqs = append(reqs, LocateReq{Client: cl, Port: p}) })
		res := make([]LocateRes, len(reqs))
		if c.cl != nil {
			_ = c.cl.LocateBatch(reqs, res) // fails only on a closed cluster, which every slot then reports
		} else {
			c.tr.LocateBatch(reqs, res)
		}
		for _, re := range res {
			note(voted(re.Entry, re.Err))
		}
	case "probe":
		h := r.ref(a[1])
		for _, cl := range nodeList(a[0]) {
			if h < 0 {
				note("no-such-server")
				continue
			}
			note(one(c.tr.Probe(cl, core.Entry{Port: r.handles[h].port, Addr: graph.NodeID(atoi(a[2])), ServerID: refID(c.refs[h]), Time: 1, Active: true})))
		}
	case "close":
		c.close()
		note("ok")
	}
	return calls
}

func armOptions(a []string) ArmOptions {
	opts := ArmOptions{Seed: int64(atoi(a[0])), Liars: atoi(a[1])}
	for class := ForgeFabricate; len(a) > 2 && class <= ForgeSilence; class++ {
		if slices.Contains(strings.Split(a[2], ","), forgeClassNames[class]) {
			opts.Classes = append(opts.Classes, class)
		}
	}
	return opts
}

// forgeClassNames names the forgery classes in histories and subtests.
var forgeClassNames = map[ForgeClass]string{ForgeFabricate: "fabricate", ForgeStale: "stale", ForgeWrongPort: "wrong-port", ForgeSilence: "silence"}

// compare checks step si of every column against every other column:
// outcomes call by call (a voted column's locates only against columns
// voting alike), charges call by call within one front, and which calls
// a retiring epoch's family answered on every bare column.
func (r *runner) compare(s step, got [][][]call, si int, seq bool) {
	voting := s.op == "locate" || s.op == "locate-batch"
	dualOp := s.op == "locate" || s.op == "locate-replica"
	ref := got[0][si]
	for ci, c := range r.cols {
		calls := got[ci][si]
		if len(calls) != len(ref) {
			r.failf("%s made %d calls, %s %d", c.name, len(calls), r.cols[0].name, len(ref))
		}
		for i, cl := range calls {
			if seq && !c.model {
				r.checkCost(s, i, c, cl)
			}
			for cj, o := range r.cols[:ci] {
				oc := got[cj][si][i]
				switch {
				case (!voting || c.front == o.front || r.plain(c) && r.plain(o)) && cl.out != oc.out:
					r.failf("call %d: %s answered %q, %s %q", i, c.name, cl.out, o.name, oc.out)
				case seq && c.front == o.front && !c.model && !o.model && cl.cost != oc.cost:
					r.failf("call %d (%s): %s charged %d passes, %s %d", i, cl.out, c.name, cl.cost, o.name, oc.cost)
				case seq && dualOp && c.front == "" && o.front == "" && cl.dual != oc.dual:
					r.failf("call %d (%s): a retiring epoch answered on %s: %v, on %s: %v", i, cl.out, c.name, cl.dual, o.name, oc.dual)
				}
			}
			if voting && c.vote > 0 && cl.out == "not-found" && ref[i].out != "not-found" {
				r.tally.closed++
			}
		}
	}
	for _, cl := range ref {
		if strings.Contains(cl.out, "!") {
			r.tally.forged++
		}
		if voting && cl.out == "not-found" {
			r.tally.missed++
		}
		if cl.dual {
			r.tally.dual++
		}
	}
}

// plain reports whether c's locates answer as a bare transport's do. A
// voting cluster's need not; nor, once lies or corruption make replica
// families disagree, need a hinted one's — a stale hint restarts the
// fallthrough at the family after the one that resolved it.
func (r *runner) plain(c *column) bool {
	return c.vote == 0 && (!strings.Contains(c.front, "hints") || r.liars == 0 && !r.dirty)
}

// checkCost holds every transport to the charges known without a flood:
// a probe costs 2×Dist(client, addr) when answered and 1×Dist when the
// address swallows it; crash marks, corruption, arming, an epoch's
// expiry and a refused registration cost nothing.
func (r *runner) checkCost(s step, i int, c *column, cl call) {
	want := int64(-1)
	switch s.op {
	case "crash", "restore", "corrupt", "arm", "disarm", "finish-resize":
		want = 0
	case "register", "post-batch":
		if !strings.HasPrefix(cl.out, "ok") {
			want = 0
		}
	case "probe":
		client, addr := nodeList(s.args[0])[i], graph.NodeID(atoi(s.args[2]))
		switch {
		case strings.Contains(cl.out, "#") || cl.out == "not-found":
			want = 2 * int64(r.routing.Dist(client, addr))
		case cl.out == "crashed" && !r.crashed[client]:
			want = int64(r.routing.Dist(client, addr))
		default:
			want = 0
		}
	}
	if want >= 0 && cl.cost != want {
		r.failf("call %d (%s): %s charged %d passes, want %d", i, cl.out, c.name, cl.cost, want)
	}
}

// after updates the runner's records from the agreed outcomes.
func (r *runner) after(s step, ref []call) {
	a := s.args
	switch s.op {
	case "register", "post-batch":
		for _, f := range strings.Fields(ref[0].out)[1:] {
			port, node, _ := strings.Cut(f, "@")
			r.handles = append(r.handles, &handle{port: core.Port(port), home: graph.NodeID(atoi(node)), left: map[graph.NodeID]bool{}})
		}
	case "migrate":
		if h := r.ref(a[0]); ref[0].out == "ok" || ref[0].out == "crashed" {
			hd, to := r.handles[h], graph.NodeID(atoi(a[1]))
			hd.left[hd.home], hd.stale = !r.crashed[hd.home], hd.stale || r.crashed[hd.home]
			delete(hd.left, to)
			hd.home = to
		}
	case "deregister":
		if h := r.ref(a[0]); ref[0].out == "ok" || ref[0].out == "crashed" {
			r.handles[h].gone, r.handles[h].buried = true, ref[0].out == "ok" && !r.handles[h].stale
		}
	case "crash", "restore":
		for i, v := range nodeList(a[0]) {
			if ref[i].out == "ok" {
				r.crashed[v] = s.op == "crash"
			}
		}
	case "corrupt":
		r.dirty = r.dirty || !strings.HasPrefix(ref[0].out, "injected 0 ")
	case "reconcile":
		var r1, r2 int
		fmt.Sscanf(ref[0].out, "repaired %d then %d", &r1, &r2)
		r.tally.repaired += r1
		if !slices.Contains(slices.Collect(maps.Values(r.crashed)), true) {
			r.dirty = false
		}
		quiet := true // every live server's origin is up, so a repair can re-post all it finds missing
		for _, h := range r.handles {
			quiet = quiet && (h.gone || !r.crashed[h.home])
		}
		if r2 != 0 && quiet {
			r.failf("the round after a repair repaired %d more, want 0", r2)
		}
	case "arm", "disarm":
		_, list, _ := strings.Cut(ref[0].out, "[")
		list, _, _ = strings.Cut(list, "]")
		r.liars = len(strings.Fields(list))
	case "close":
		r.done = true
	}
}

// compareMetrics checks that clusters with one front took the same
// hint, fallthrough and vote decisions.
func (r *runner) compareMetrics() {
	seen := map[string]string{}
	for _, c := range r.cols {
		if c.cl == nil {
			continue
		}
		m := c.cl.Metrics()
		got := fmt.Sprintf("hints %d/%d/%d fallthroughs %d votes %d/%d suspects %v", m.HintHits, m.HintStale, m.HintProbeFails,
			m.ReplicaFallthroughs, m.VotedLocates, m.VoteConflicts, c.cl.SuspectedNodes())
		if prev, ok := seen[c.front]; ok && prev != got {
			r.failf("%s: %s, another %s cluster: %s", c.name, got, c.front, prev)
		}
		seen[c.front] = got
	}
}
