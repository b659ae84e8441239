// Package procctl spawns, partitions, scales and tears down local
// node-shard process clusters — the importable core of cmd/mmctl's
// up/kill/scale state machine, shared with cmd/mmsweep so a scenario
// sweep orchestrates the same real processes the operator CLI does.
//
// Workers are re-execs of the calling binary (selected by the
// MMCTL_NODE environment variable), so any binary that calls
// MaybeWorker at the top of main — mmctl, mmsweep, or a test binary's
// TestMain — can host a whole cluster by itself. Production
// deployments run cmd/mmnode per host instead, speaking the same wire
// protocol over the same partition layout (cluster.PartitionRange).
package procctl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"matchmake/internal/cluster"
)

// Proc is one spawned node-server process of a local cluster.
type Proc struct {
	// Index is the worker's slot in the standard partition; Pid its
	// process id; Addr the TCP address it announced; Lo and Hi the
	// owned wire slot range [Lo, Hi).
	Index int    `json:"index"`
	Pid   int    `json:"pid"`
	Addr  string `json:"addr"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`

	cmd *exec.Cmd // nil when loaded from a state file
}

// State is what `mmctl up` persists so later invocations (kill, down,
// scale, or an mmload -watch-state consumer) can address the running
// processes. CoordPid is the coordinating `up` process itself: `down`
// signals it too, so it reaps its workers and exits instead of
// blocking on a signal forever.
type State struct {
	// Nodes is the cluster size n the processes partition; CoordPid
	// the pid of the coordinating process (0 if none); Procs the
	// worker list in partition order.
	Nodes    int    `json:"nodes"`
	CoordPid int    `json:"coord_pid"`
	Procs    []Proc `json:"procs"`
}

// MaybeWorker turns the calling process into a node-shard worker when
// the MMCTL_NODE environment variable is set (the re-exec path of
// Spawn), serving until a SIGTERM drain finishes and then exiting the
// process. It returns immediately — doing nothing — in a coordinator
// process. Call it first thing in main (or TestMain) of any binary
// that spawns clusters through this package.
func MaybeWorker() {
	if os.Getenv("MMCTL_NODE") == "" {
		return
	}
	if err := workerMain(); err != nil {
		fmt.Fprintln(os.Stderr, "node worker:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// workerMain is the re-exec'd node-server process: read the partition
// from the environment, then hand the whole serve-announce-drain
// lifecycle to the shared cluster.RunNodeWorker (which only returns
// after a SIGTERM drain has finished).
func workerMain() error {
	atoi := func(k string) (int, error) { return strconv.Atoi(os.Getenv(k)) }
	n, err := atoi("MMCTL_N")
	if err != nil {
		return fmt.Errorf("MMCTL_N: %w", err)
	}
	lo, err := atoi("MMCTL_LO")
	if err != nil {
		return fmt.Errorf("MMCTL_LO: %w", err)
	}
	hi, err := atoi("MMCTL_HI")
	if err != nil {
		return fmt.Errorf("MMCTL_HI: %w", err)
	}
	listen := os.Getenv("MMCTL_ADDR")
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	return cluster.RunNodeWorker(n, lo, hi, listen, os.Stdout)
}

// Spawn launches procs node-server worker processes (re-execs of the
// calling binary, selected by the MMCTL_NODE environment variable)
// partitioning nodes contiguous ranges, and collects the ephemeral
// address each worker prints. Every worker is started before any
// address is awaited, so the workers boot side by side and bring-up
// costs the slowest one, not the sum. On any failure — a worker that
// cannot start, or one that exits before announcing its address — every
// started worker is killed and reaped.
func Spawn(nodes, procs int) ([]*Proc, error) {
	if nodes < 2 || procs < 1 || procs > nodes {
		return nil, fmt.Errorf("need 1 <= procs (%d) <= nodes (%d)", procs, nodes)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ps := make([]*Proc, 0, procs)
	outs := make([]io.Reader, 0, procs)
	fail := func(err error) ([]*Proc, error) {
		for _, p := range ps {
			p.Kill(syscall.SIGKILL)
			p.cmd.Wait()
		}
		return nil, err
	}
	for i := 0; i < procs; i++ {
		lo, hi := cluster.PartitionRange(nodes, procs, i)
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MMCTL_NODE=1",
			fmt.Sprintf("MMCTL_N=%d", nodes),
			fmt.Sprintf("MMCTL_LO=%d", lo),
			fmt.Sprintf("MMCTL_HI=%d", hi),
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("spawn worker %d: %w", i, err))
		}
		ps = append(ps, &Proc{Index: i, Pid: cmd.Process.Pid, Lo: lo, Hi: hi, cmd: cmd})
		outs = append(outs, out)
	}
	for i, p := range ps {
		if p.Addr, err = readAddrLine(outs[i]); err != nil {
			return fail(fmt.Errorf("worker %d: %w", i, err))
		}
	}
	return ps, nil
}

// Respawn restarts a dead worker on its previous partition AND its
// previous address (via MMCTL_ADDR), so a transport holding the
// original address list redials it transparently. Binding can race the
// kernel releasing the old port, so the spawn retries briefly.
func Respawn(nodes int, p *Proc) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MMCTL_NODE=1",
			fmt.Sprintf("MMCTL_N=%d", nodes),
			fmt.Sprintf("MMCTL_LO=%d", p.Lo),
			fmt.Sprintf("MMCTL_HI=%d", p.Hi),
			"MMCTL_ADDR="+p.Addr,
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		if addr, err := readAddrLine(out); err == nil {
			p.Addr = addr
			p.Pid = cmd.Process.Pid
			p.cmd = cmd
			return nil
		}
		cmd.Process.Kill()
		cmd.Wait()
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %d would not rebind %s", p.Index, p.Addr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// readAddrLine consumes the worker's "ADDR host:port" banner and
// leaves a goroutine draining any further output.
func readAddrLine(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return "", fmt.Errorf("no ADDR line (%v)", sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "ADDR ") {
		return "", fmt.Errorf("unexpected banner %q", line)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return strings.TrimPrefix(line, "ADDR "), nil
}

// Addrs returns the processes' addresses in partition order.
func Addrs(ps []*Proc) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Addr
	}
	return out
}

// Banner writes the orchestrators' summary lines for a spawned worker
// set: the machine-readable "ADDRS a,b,c" line consumers grep for,
// then one "<prefix> worker I pid P serves [lo,hi) at addr" line per
// process — the exact format `mmctl up` and `mmctl scale` have always
// printed, pinned byte for byte by TestBanner.
func Banner(w io.Writer, prefix string, ps []*Proc) {
	fmt.Fprintf(w, "ADDRS %s\n", strings.Join(Addrs(ps), ","))
	for _, p := range ps {
		fmt.Fprintf(w, "%s worker %d pid %d serves [%d,%d) at %s\n", prefix, p.Index, p.Pid, p.Lo, p.Hi, p.Addr)
	}
}

// Kill delivers sig to the process. Loaded-from-state processes are
// signalled by pid.
func (p *Proc) Kill(sig syscall.Signal) error {
	if p.cmd != nil && p.cmd.Process != nil {
		return p.cmd.Process.Signal(sig)
	}
	return syscall.Kill(p.Pid, sig)
}

// Wait reaps the spawned child process, returning its exit error. It
// is a no-op for processes loaded from a state file (not our
// children).
func (p *Proc) Wait() error {
	if p.cmd == nil {
		return nil
	}
	return p.cmd.Wait()
}

// Drain asks the process to shut down gracefully (SIGTERM → finish
// in-flight requests → exit 0) and waits up to timeout before
// escalating to SIGKILL. It reports whether the exit was clean.
func (p *Proc) Drain(timeout time.Duration) error {
	if err := p.Kill(syscall.SIGTERM); err != nil {
		if p.cmd != nil && errors.Is(err, os.ErrProcessDone) {
			p.cmd.Wait() // already exited (e.g. SIGTERM'd by `down`); reap it
			return nil
		}
		return err
	}
	if p.cmd == nil {
		return nil // not our child; we can signal but not wait
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		p.Kill(syscall.SIGKILL)
		<-done
		return fmt.Errorf("worker %d did not drain within %v; killed", p.Index, timeout)
	}
}

// Teardown drains every process, returning the first failure.
func Teardown(ps []*Proc, timeout time.Duration) error {
	var first error
	for _, p := range ps {
		if err := p.Drain(timeout); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteState persists the cluster layout for later invocations,
// recording the calling process as the coordinator.
func WriteState(path string, nodes int, ps []*Proc) error {
	st := State{Nodes: nodes, CoordPid: os.Getpid(), Procs: make([]Proc, len(ps))}
	for i, p := range ps {
		st.Procs[i] = *p
		st.Procs[i].cmd = nil
	}
	return st.Write(path)
}

// Write persists an already-assembled cluster state — the rewrite path
// of `mmctl scale`, which preserves the original coordinator pid while
// swapping the worker list.
func (st *State) Write(path string) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadState loads a cluster layout written by WriteState.
func ReadState(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("state file %s: %w", path, err)
	}
	return &st, nil
}

// Scale is the live process resize behind `mmctl scale`: spawn a fresh
// worker set partitioning the same node space across procs processes,
// copy every partition from the old workers (postings, liveness
// records, crash marks — the opSnapshot transfer), rewrite the state
// file (the cluster's membership registry — watchers like `mmload
// -watch-state` rescale off it), print the new layout banner, and
// after the grace period drain the old workers. The new workers
// outlive the caller; `mmctl down` addresses them by pid through the
// state file.
func Scale(statePath string, procs int, grace time.Duration, out io.Writer) error {
	st, err := ReadState(statePath)
	if err != nil {
		return err
	}
	if procs < 1 || procs > st.Nodes {
		return fmt.Errorf("need 1 <= -procs (%d) <= nodes (%d)", procs, st.Nodes)
	}
	ps, err := Spawn(st.Nodes, procs)
	if err != nil {
		return err
	}
	donors := make([]cluster.DonorProc, len(st.Procs))
	for i, p := range st.Procs {
		donors[i] = cluster.DonorProc{Addr: p.Addr, Lo: p.Lo, Hi: p.Hi}
	}
	lost, err := cluster.TransferPartitions(donors, Addrs(ps), st.Nodes, cluster.NetOptions{CallTimeout: 30 * time.Second})
	if err != nil {
		Teardown(ps, 5*time.Second)
		return fmt.Errorf("partition transfer: %w", err)
	}
	for _, r := range lost {
		fmt.Fprintf(out, "scale: donor for nodes [%d,%d) unreachable; consumers' repair loops will re-post\n", r[0], r[1])
	}
	oldProcs := st.Procs
	st.Procs = make([]Proc, len(ps))
	for i, p := range ps {
		st.Procs[i] = *p
		st.Procs[i].cmd = nil
	}
	if err := st.Write(statePath); err != nil {
		Teardown(ps, 5*time.Second)
		return err
	}
	Banner(out, "scale:", ps)
	time.Sleep(grace)
	for _, p := range oldProcs {
		if err := syscall.Kill(p.Pid, syscall.SIGTERM); err == nil {
			fmt.Fprintf(out, "scale: SIGTERM old worker %d (pid %d)\n", p.Index, p.Pid)
		}
	}
	// The new workers are deliberately left running (and unreaped):
	// they are the cluster now, addressed through the state file.
	return nil
}
