package procctl

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// TestMain re-execs the test binary as a node-server worker when Spawn
// launches it with MMCTL_NODE set — the production re-exec path, so
// the orchestration under test is the real one.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// TestBanner pins the orchestrator summary lines byte for byte: the
// refactor that moved them out of cmd/mmctl must keep `mmctl up` and
// `mmctl scale` output identical.
func TestBanner(t *testing.T) {
	ps := []*Proc{
		{Index: 0, Pid: 1234, Addr: "127.0.0.1:7001", Lo: 0, Hi: 12},
		{Index: 1, Pid: 1235, Addr: "127.0.0.1:7002", Lo: 12, Hi: 24},
	}
	var out bytes.Buffer
	Banner(&out, "mmctl:", ps)
	want := "ADDRS 127.0.0.1:7001,127.0.0.1:7002\n" +
		"mmctl: worker 0 pid 1234 serves [0,12) at 127.0.0.1:7001\n" +
		"mmctl: worker 1 pid 1235 serves [12,24) at 127.0.0.1:7002\n"
	if got := out.String(); got != want {
		t.Fatalf("banner bytes diverged:\ngot:\n%q\nwant:\n%q", got, want)
	}
	out.Reset()
	Banner(&out, "scale:", ps[:1])
	want = "ADDRS 127.0.0.1:7001\n" +
		"scale: worker 0 pid 1234 serves [0,12) at 127.0.0.1:7001\n"
	if got := out.String(); got != want {
		t.Fatalf("scale banner bytes diverged:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mm.json")
	ps := []*Proc{
		{Index: 0, Pid: 1234, Addr: "127.0.0.1:7001", Lo: 0, Hi: 12},
		{Index: 1, Pid: 1235, Addr: "127.0.0.1:7002", Lo: 12, Hi: 24},
	}
	if err := WriteState(path, 24, ps); err != nil {
		t.Fatal(err)
	}
	st, err := ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 24 || len(st.Procs) != 2 || st.CoordPid != os.Getpid() {
		t.Fatalf("state = %+v", st)
	}
	for i := range ps {
		if st.Procs[i].Pid != ps[i].Pid || st.Procs[i].Addr != ps[i].Addr {
			t.Fatalf("proc %d = %+v, want %+v", i, st.Procs[i], *ps[i])
		}
	}
	if _, err := ReadState(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("want error for missing state file")
	}
}

// TestSpawnServeRespawnDrain covers the orchestration lifecycle from
// the importable package: spawn a real 3-process loopback cluster,
// serve traffic over it, kill -9 a worker, respawn it on its old
// address, and tear everything down.
func TestSpawnServeRespawnDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	const n = 24
	ps, err := Spawn(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer Teardown(ps, 5*time.Second)
	for i, p := range ps {
		wantLo, wantHi := cluster.PartitionRange(n, 3, i)
		if p.Lo != wantLo || p.Hi != wantHi {
			t.Fatalf("worker %d owns [%d,%d), want [%d,%d)", i, p.Lo, p.Hi, wantLo, wantHi)
		}
		if p.Addr == "" || p.Pid == 0 {
			t.Fatalf("worker %d missing addr/pid: %+v", i, p)
		}
	}
	g := topology.Complete(n)
	tr, err := cluster.NewNetTransport(g, rendezvous.Checkerboard(n), Addrs(ps),
		cluster.NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Register("svc", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Locate(20, "svc"); err != nil {
		t.Fatal(err)
	}

	victim := ps[2]
	oldAddr := victim.Addr
	if err := victim.Kill(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(); err == nil {
		t.Fatal("SIGKILL'd worker reported a clean exit")
	}
	if _, err := tr.Locate(1, "svc"); err != nil {
		t.Fatalf("locate after kill -9: %v", err)
	}
	if err := Respawn(n, victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	if victim.Addr != oldAddr {
		t.Fatalf("respawned on %s, want old address %s", victim.Addr, oldAddr)
	}
}

// TestScaleRepartitions covers the live process resize through the
// importable Scale: boot a 2-process cluster, post through it, scale
// to 4 processes (state file rewritten, old workers drained), and
// verify a transport over the new layout still resolves the posting.
func TestScaleRepartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	const n = 24
	ps, err := Spawn(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer Teardown(ps, 5*time.Second)
	state := filepath.Join(t.TempDir(), "mm.json")
	if err := WriteState(state, n, ps); err != nil {
		t.Fatal(err)
	}

	g := topology.Complete(n)
	tr, err := cluster.NewNetTransport(g, rendezvous.Checkerboard(n), Addrs(ps),
		cluster.NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Register("svc", 5)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()

	var out bytes.Buffer
	if err := Scale(state, 4, 50*time.Millisecond, &out); err != nil {
		t.Fatalf("scale: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("ADDRS ")) {
		t.Fatalf("scale printed no ADDRS line:\n%s", out.String())
	}
	st, err := ReadState(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Procs) != 4 {
		t.Fatalf("state lists %d workers after scale, want 4", len(st.Procs))
	}
	defer func() {
		for _, p := range st.Procs {
			syscall.Kill(p.Pid, syscall.SIGKILL)
		}
	}()
	tr2, err := cluster.NewNetTransport(g, rendezvous.Checkerboard(n), stateAddrs(st),
		cluster.NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	e, err := tr2.Locate(20, "svc")
	if err != nil {
		t.Fatalf("locate over the rescaled cluster: %v", err)
	}
	if e.Addr != want.Node() {
		t.Fatalf("located %d, want %d", e.Addr, want.Node())
	}
}

func stateAddrs(st *State) []string {
	out := make([]string, len(st.Procs))
	for i, p := range st.Procs {
		out[i] = p.Addr
	}
	return out
}

func TestSpawnRejectsBadShape(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {8, 0}, {8, 9}} {
		if _, err := Spawn(c[0], c[1]); err == nil {
			t.Fatalf("Spawn(%d, %d) accepted", c[0], c[1])
		}
	}
}

// childPIDs lists this process's children, zombies included, from /proc.
func childPIDs(t *testing.T) map[int]bool {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc to list child processes from: %v", err)
	}
	out := make(map[int]bool)
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "stat"))
		if err != nil {
			continue // exited since the listing
		}
		// "pid (comm) state ppid ...": comm may hold spaces and parentheses.
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			out[pid] = true
		}
	}
	return out
}

// TestSpawnFailureLeavesNoChild starts three workers that are all told
// to listen on the same port: whichever binds it announces its address,
// the others exit before their ADDR line. Spawn starts every worker
// before it reads any banner, so its failure path must kill and reap
// workers in both states — none may outlive the call, running or zombie.
func TestSpawnFailureLeavesNoChild(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	t.Setenv("MMCTL_ADDR", addr) // workers inherit the environment
	before := childPIDs(t)
	ps, err := Spawn(24, 3)
	if err == nil {
		Teardown(ps, 5*time.Second)
		t.Fatal("Spawn succeeded with three workers on one port")
	}
	if !strings.Contains(err.Error(), "no ADDR line") {
		t.Errorf("Spawn error %q does not name the missing banner", err)
	}
	for pid := range childPIDs(t) {
		if !before[pid] {
			t.Errorf("worker %d outlived the failed Spawn", pid)
		}
	}
}
