package gate

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// TestMain re-execs the test binary as a node-server worker when
// MM_GATE_NODE is set — the same trick nettransport_test.go uses to
// get real OS processes, here so the watch test can kill -9 a node
// shard under a live gateway.
func TestMain(m *testing.M) {
	if os.Getenv("MM_GATE_NODE") != "" {
		runTestNodeWorker()
		return
	}
	os.Exit(m.Run())
}

func runTestNodeWorker() {
	atoi := func(k string) int {
		v, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: bad %s: %v\n", k, err)
			os.Exit(2)
		}
		return v
	}
	n, lo, hi := atoi("MM_GATE_N"), atoi("MM_GATE_LO"), atoi("MM_GATE_HI")
	if err := cluster.RunNodeWorker(n, lo, hi, "127.0.0.1:0", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(2)
	}
}

// spawnNetCluster boots a procs-process loopback node cluster.
func spawnNetCluster(t *testing.T, n, procs int) ([]string, []*exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, procs)
	cmds := make([]*exec.Cmd, procs)
	for i := 0; i < procs; i++ {
		lo, hi := cluster.PartitionRange(n, procs, i)
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MM_GATE_NODE=1",
			fmt.Sprintf("MM_GATE_N=%d", n),
			fmt.Sprintf("MM_GATE_LO=%d", lo),
			fmt.Sprintf("MM_GATE_HI=%d", hi),
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			t.Fatalf("worker %d: no ADDR line (err=%v)", i, sc.Err())
		}
		line := sc.Text()
		if !strings.HasPrefix(line, "ADDR ") {
			t.Fatalf("worker %d: unexpected line %q", i, line)
		}
		addrs[i] = strings.TrimPrefix(line, "ADDR ")
		cmds[i] = cmd
		go func() {
			for sc.Scan() {
			}
		}()
	}
	return addrs, cmds
}

// testGateway stands a gateway up over tr with both listeners live.
type testGateway struct {
	gw   *Gateway
	c    *cluster.Cluster
	http *httptest.Server
	wire string // wire listener address
}

func newTestGateway(t *testing.T, tr cluster.Transport, tenants []TenantConfig) *testGateway {
	t.Helper()
	hub := NewHub(0)
	c := cluster.New(tr, cluster.Options{OnEvent: hub.Publish})
	gw, err := New(c, hub, tenants)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(gw.HTTPHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := netwire.NewServer(ln, gw.WireHandler())
	go ws.Serve()
	t.Cleanup(func() {
		hs.Close()
		ws.Close()
		gw.Close()
		c.Close()
	})
	return &testGateway{gw: gw, c: c, http: hs, wire: ln.Addr().String()}
}

func memTransport(t *testing.T, n int) *cluster.MemTransport {
	t.Helper()
	tr, err := cluster.NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// doJSON issues one JSON request against the gateway's HTTP API.
func doJSON(t *testing.T, hs *httptest.Server, token, method, path string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	}
	req, err := http.NewRequest(method, hs.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestGateEquivalence pins the tentpole claim: the same workload
// through the service edge (binary wire transport AND HTTP locates)
// returns the same answers as a direct mem cluster over an identical
// topology/strategy.
func TestGateEquivalence(t *testing.T) {
	const n, ports = 36, 12

	// Direct reference cluster.
	ref := cluster.New(memTransport(t, n), cluster.Options{})
	defer ref.Close()

	// Gateway over an identical backing, driven through the wire edge.
	tg := newTestGateway(t, memTransport(t, n), DevTenant("tok"))
	gt, err := DialTransport(tg.wire, "tok", 2)
	if err != nil {
		t.Fatal(err)
	}
	via := cluster.New(gt, cluster.Options{})
	defer via.Close()

	if gt.N() != n {
		t.Fatalf("hello N = %d, want %d", gt.N(), n)
	}

	regs := make([]cluster.Registration, ports)
	for p := range regs {
		regs[p] = cluster.Registration{Port: core.Port(fmt.Sprintf("svc-%03d", p)), Node: graph.NodeID((p * 7) % n)}
	}
	if _, err := ref.PostBatch(regs); err != nil {
		t.Fatal(err)
	}
	if _, err := via.PostBatch(regs); err != nil {
		t.Fatal(err)
	}

	for client := 0; client < n; client++ {
		for p := range regs {
			want, werr := ref.Locate(graph.NodeID(client), regs[p].Port)
			got, gerr := via.Locate(graph.NodeID(client), regs[p].Port)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("client %d port %s: err %v vs %v", client, regs[p].Port, werr, gerr)
			}
			if werr == nil && (got.Addr != want.Addr || got.Port != want.Port) {
				t.Fatalf("client %d port %s: got (%s@%d), want (%s@%d)",
					client, regs[p].Port, got.Port, got.Addr, want.Port, want.Addr)
			}
		}
	}

	// Batched locates through the edge agree too.
	reqs := make([]cluster.LocateReq, ports)
	res := make([]cluster.LocateRes, ports)
	for p := range regs {
		reqs[p] = cluster.LocateReq{Client: 5, Port: regs[p].Port}
	}
	if err := via.LocateBatch(reqs, res); err != nil {
		t.Fatal(err)
	}
	for p := range res {
		if res[p].Err != nil {
			t.Fatalf("batch port %s: %v", regs[p].Port, res[p].Err)
		}
		want, _ := ref.Locate(5, regs[p].Port)
		if res[p].Entry.Addr != want.Addr {
			t.Fatalf("batch port %s: got @%d want @%d", regs[p].Port, res[p].Entry.Addr, want.Addr)
		}
	}

	// And the HTTP path returns the same answer as the wire path.
	for p := 0; p < 3; p++ {
		var e EntryJSON
		code := doJSON(t, tg.http, "tok", "GET", fmt.Sprintf("/v1/locate?port=%s&client=4", regs[p].Port), nil, &e)
		if code != http.StatusOK {
			t.Fatalf("http locate: status %d", code)
		}
		want, _ := ref.Locate(4, regs[p].Port)
		if graph.NodeID(e.Addr) != want.Addr || e.Port != string(regs[p].Port) {
			t.Fatalf("http locate %s: got %s@%d want %s@%d", regs[p].Port, e.Port, e.Addr, want.Port, want.Addr)
		}
	}

	// A locate for a port nobody registered is a 404 / not-found, not
	// an invented answer.
	if code := doJSON(t, tg.http, "tok", "GET", "/v1/locate?port=nope&client=0", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing port: status %d, want 404", code)
	}
	if _, err := via.Locate(0, "nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("missing port over wire: %v, want ErrNotFound", err)
	}
}

// TestTenantIsolation pins the namespace fold: one tenant's
// registrations are structurally invisible to another, and both can
// own the same port name without collision.
func TestTenantIsolation(t *testing.T) {
	tg := newTestGateway(t, memTransport(t, 16), []TenantConfig{
		{ID: "alpha", Tokens: []string{"tok-a"}},
		{ID: "beta", Tokens: []string{"tok-b"}},
	})

	var reg RegisterResponse
	if code := doJSON(t, tg.http, "tok-a", "POST", "/v1/register", RegisterRequest{Port: "printer", Node: 3}, &reg); code != http.StatusOK {
		t.Fatalf("alpha register: status %d", code)
	}

	// Beta cannot see alpha's port…
	if code := doJSON(t, tg.http, "tok-b", "GET", "/v1/locate?port=printer&client=1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("beta sees alpha's port: status %d, want 404", code)
	}
	// …and registering the same name lands in beta's own namespace.
	var regB RegisterResponse
	if code := doJSON(t, tg.http, "tok-b", "POST", "/v1/register", RegisterRequest{Port: "printer", Node: 9}, &regB); code != http.StatusOK {
		t.Fatalf("beta register: status %d", code)
	}
	var ea, eb EntryJSON
	doJSON(t, tg.http, "tok-a", "GET", "/v1/locate?port=printer&client=1", nil, &ea)
	doJSON(t, tg.http, "tok-b", "GET", "/v1/locate?port=printer&client=1", nil, &eb)
	if ea.Addr != 3 || eb.Addr != 9 {
		t.Fatalf("namespace collision: alpha@%d (want 3), beta@%d (want 9)", ea.Addr, eb.Addr)
	}

	// A tenant cannot deregister another tenant's registration id.
	if code := doJSON(t, tg.http, "tok-b", "POST", "/v1/deregister", DeregisterRequest{ID: reg.ID}, nil); code != http.StatusNotFound {
		t.Fatalf("cross-tenant deregister: status %d, want 404", code)
	}
	// An unknown token is denied outright.
	if code := doJSON(t, tg.http, "tok-x", "GET", "/v1/locate?port=printer&client=1", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unknown token: status %d, want 401", code)
	}
}

// TestQuotaShed pins the overload contract: a tenant over its rate
// quota gets 429 / GsShed — never a wrong answer — and other tenants
// are unaffected.
func TestQuotaShed(t *testing.T) {
	tg := newTestGateway(t, memTransport(t, 16), []TenantConfig{
		{ID: "small", Tokens: []string{"tok-s"}, RatePerSec: 1, Burst: 5},
		{ID: "big", Tokens: []string{"tok-b"}},
	})
	if code := doJSON(t, tg.http, "tok-s", "POST", "/v1/register", RegisterRequest{Port: "p", Node: 2}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if code := doJSON(t, tg.http, "tok-b", "POST", "/v1/register", RegisterRequest{Port: "p", Node: 4}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	var ok, shed, other int
	for i := 0; i < 40; i++ {
		var e EntryJSON
		switch code := doJSON(t, tg.http, "tok-s", "GET", "/v1/locate?port=p&client=1", nil, &e); code {
		case http.StatusOK:
			ok++
			if e.Addr != 2 {
				t.Fatalf("quota pressure produced a wrong answer: @%d, want @2", e.Addr)
			}
		case http.StatusTooManyRequests:
			shed++
		default:
			other++
		}
	}
	if shed == 0 {
		t.Fatalf("burst of 40 over rate 1/s never shed (ok=%d other=%d)", ok, other)
	}
	if other != 0 {
		t.Fatalf("unexpected statuses during quota pressure: %d", other)
	}
	// The unthrottled tenant still gets answers while the small one sheds.
	var e EntryJSON
	if code := doJSON(t, tg.http, "tok-b", "GET", "/v1/locate?port=p&client=1", nil, &e); code != http.StatusOK || e.Addr != 4 {
		t.Fatalf("big tenant impacted by small tenant's shed: status %d addr %d", code, e.Addr)
	}
	// Per-tenant rollup recorded the shed.
	if got := tg.gw.tenants["small"].m.shed.Load(); got == 0 {
		t.Fatal("tenant shed counter is zero")
	}

	// The same contract over the wire protocol.
	gt, err := DialTransport(tg.wire, "tok-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gt.Close()
	var wireShed bool
	for i := 0; i < 20 && !wireShed; i++ {
		_, err := gt.Locate(1, "p")
		wireShed = errors.Is(err, ErrShed)
	}
	if !wireShed {
		t.Fatal("wire locates never saw GsShed under quota pressure")
	}
}

// TestInflightCap pins the concurrency side of the quota: with
// MaxInflight=1 a held watch stream makes a second one shed.
func TestInflightCap(t *testing.T) {
	tg := newTestGateway(t, memTransport(t, 16), []TenantConfig{
		{ID: "one", Tokens: []string{"tok"}, MaxInflight: 1},
	})
	req, _ := http.NewRequest("GET", tg.http.URL+"/v1/watch", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := tg.http.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first watch: status %d", resp.StatusCode)
	}
	// The held stream occupies the tenant's only slot.
	if code := doJSON(t, tg.http, "tok", "GET", "/v1/locate?port=p&client=1", nil, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second request with the slot held: status %d, want 429", code)
	}
}

// TestWatchEvents pins the watch hub end to end over the mem backing:
// register/deregister events stream over HTTP ndjson with tenant-local
// ports, crash/restore events broadcast, and the binary events poll
// sees the same sequence.
func TestWatchEvents(t *testing.T) {
	tg := newTestGateway(t, memTransport(t, 16), []TenantConfig{
		{ID: "alpha", Tokens: []string{"tok-a"}},
		{ID: "beta", Tokens: []string{"tok-b"}},
	})

	req, _ := http.NewRequest("GET", tg.http.URL+"/v1/watch", nil)
	req.Header.Set("Authorization", "Bearer tok-a")
	resp, err := tg.http.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	next := func() WatchEvent {
		t.Helper()
		lines := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("watch stream ended: %v", sc.Err())
			}
			var we WatchEvent
			if err := json.Unmarshal([]byte(line), &we); err != nil {
				t.Fatalf("bad watch line %q: %v", line, err)
			}
			return we
		case <-time.After(5 * time.Second):
			t.Fatal("no watch event within 5s")
		}
		panic("unreachable")
	}

	var reg RegisterResponse
	doJSON(t, tg.http, "tok-a", "POST", "/v1/register", RegisterRequest{Port: "printer", Node: 3}, &reg)
	if we := next(); we.Type != "register" || we.Port != "printer" || we.Node != 3 {
		t.Fatalf("got %+v, want register printer@3", we)
	}

	// Beta's registration is invisible to alpha's stream; alpha's next
	// event is its own deregister.
	doJSON(t, tg.http, "tok-b", "POST", "/v1/register", RegisterRequest{Port: "scanner", Node: 5}, nil)
	doJSON(t, tg.http, "tok-a", "POST", "/v1/deregister", DeregisterRequest{ID: reg.ID}, nil)
	if we := next(); we.Type != "deregister" || we.Port != "printer" {
		t.Fatalf("got %+v, want deregister printer", we)
	}

	// Crash/restore broadcast to every tenant.
	if err := tg.c.Transport().Crash(7); err != nil {
		t.Fatal(err)
	}
	if we := next(); we.Type != "crash" || we.Node != 7 {
		t.Fatalf("got %+v, want crash node 7", we)
	}

	// The binary events poll replays the same history, still
	// tenant-scoped (no scanner event for alpha).
	gt, err := DialTransport(tg.wire, "tok-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gt.Close()
	evs, seq, err := gt.Events(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 || len(evs) < 3 {
		t.Fatalf("events poll: seq=%d n=%d", seq, len(evs))
	}
	var kinds []string
	for _, we := range evs {
		if we.Port == "scanner" {
			t.Fatalf("beta's event leaked into alpha's poll: %+v", we)
		}
		kinds = append(kinds, we.Type)
	}
	want := []string{"register", "deregister", "crash"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
}

// TestWatchDeliversProcDownAfterKill9 is the acceptance bullet: a
// gateway fronting a real multi-process socket cluster, one node-shard
// process killed with SIGKILL, and the tenant's Watch stream carries
// the proc-down event for the dead range.
func TestWatchDeliversProcDownAfterKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n, procs = 12, 3
	addrs, cmds := spawnNetCluster(t, n, procs)
	g := topology.Complete(n)
	tr, err := cluster.NewNetTransport(g, rendezvous.Checkerboard(n), addrs, cluster.NetOptions{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tg := newTestGateway(t, tr, DevTenant("tok"))

	gt, err := DialTransport(tg.wire, "tok", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer gt.Close()
	for p := 0; p < 4; p++ {
		if _, err := gt.Register(core.Port(fmt.Sprintf("svc-%d", p)), graph.NodeID(p)); err != nil {
			t.Fatal(err)
		}
	}

	req, _ := http.NewRequest("GET", tg.http.URL+"/v1/watch", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := tg.http.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}

	// kill -9 the last node-shard process, then keep the gateway busy
	// with locates so the transport's down-detection trips. A locate
	// floods only the processes hosting its client's query set, so the
	// clients are the last four, whose query columns reach the victim.
	victim := procs - 1
	lo, hi := cluster.PartitionRange(n, procs, victim)
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	stopLoad := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			for p := 0; p < 4; p++ {
				_, _ = gt.Locate(graph.NodeID(n-1-p), core.Port(fmt.Sprintf("svc-%d", p)))
			}
		}
	}()
	defer close(stopLoad)

	type lineOrErr struct {
		we  WatchEvent
		err error
	}
	events := make(chan lineOrErr, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var we WatchEvent
			if err := json.Unmarshal(sc.Bytes(), &we); err != nil {
				events <- lineOrErr{err: err}
				return
			}
			events <- lineOrErr{we: we}
		}
		events <- lineOrErr{err: fmt.Errorf("stream ended: %v", sc.Err())}
	}()

	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.err != nil {
				t.Fatal(ev.err)
			}
			if ev.we.Type == "proc-down" {
				if ev.we.Lo != lo || ev.we.Hi != hi {
					t.Fatalf("proc-down range [%d,%d), want [%d,%d)", ev.we.Lo, ev.we.Hi, lo, hi)
				}
				return
			}
		case <-deadline:
			t.Fatal("no proc-down watch event within 15s of kill -9")
		}
	}
}

// TestTenantConfigParsing covers the tenants-file format and its
// rejection cases.
func TestTenantConfigParsing(t *testing.T) {
	good := `{"tenants":[{"id":"a","tokens":["t1"],"rate_per_sec":100,"max_inflight":4},{"id":"b","tokens":["t2","t3"]}]}`
	ts, err := ParseTenants([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].ID != "a" || ts[0].RatePerSec != 100 {
		t.Fatalf("parsed %+v", ts)
	}
	bare := `[{"id":"a","tokens":["t"]}]`
	if _, err := ParseTenants([]byte(bare)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`[]`,
		`[{"id":"","tokens":["t"]}]`,
		`[{"id":"A","tokens":["t"]}]`,
		`[{"id":"a/b","tokens":["t"]}]`,
		`[{"id":"a","tokens":[]}]`,
		`[{"id":"a","tokens":["t"],"rate_per_sec":-1}]`,
	} {
		if _, err := ParseTenants([]byte(bad)); err == nil {
			t.Fatalf("ParseTenants(%s) accepted", bad)
		}
	}
	// Duplicate tokens across tenants are rejected at gateway build.
	c := cluster.New(memTransport(t, 4), cluster.Options{})
	defer c.Close()
	if _, err := New(c, nil, []TenantConfig{
		{ID: "a", Tokens: []string{"t"}},
		{ID: "b", Tokens: []string{"t"}},
	}); err == nil {
		t.Fatal("duplicate token accepted")
	}
}

// TestMetricsEndpoint checks the Prometheus exposition contains the
// cluster and per-tenant families.
func TestMetricsEndpoint(t *testing.T) {
	tg := newTestGateway(t, memTransport(t, 16), []TenantConfig{
		{ID: "alpha", Tokens: []string{"tok-a"}},
	})
	doJSON(t, tg.http, "tok-a", "POST", "/v1/register", RegisterRequest{Port: "p", Node: 2}, nil)
	doJSON(t, tg.http, "tok-a", "GET", "/v1/locate?port=p&client=1", nil, nil)

	resp, err := tg.http.Client().Get(tg.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mm_cluster_locates_total counter",
		"mm_cluster_locates_total 1",
		`mm_gate_tenant_locates_total{tenant="alpha"} 1`,
		`mm_gate_tenant_registers_total{tenant="alpha"} 1`,
		"mm_gate_registrations 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestPortFolding pins the namespace codec.
func TestPortFolding(t *testing.T) {
	f := foldPort("alpha", "printer")
	if f != "alpha/printer" {
		t.Fatalf("folded %q", f)
	}
	p, ok := unfoldPort("alpha", f)
	if !ok || p != "printer" {
		t.Fatalf("unfold: %q %v", p, ok)
	}
	if _, ok := unfoldPort("beta", f); ok {
		t.Fatal("beta unfolded alpha's port")
	}
}
