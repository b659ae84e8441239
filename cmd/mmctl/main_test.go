package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"matchmake/internal/sweep/procctl"
)

// TestMain re-execs the test binary as a node-server worker when
// procctl.Spawn launches it with MMCTL_NODE set — the same trick the
// mmctl binary itself uses, so the orchestration paths under test are
// the production ones. The spawn/kill/drain/scale lifecycle itself is
// covered in internal/sweep/procctl, where the state machine now
// lives.
func TestMain(m *testing.M) {
	procctl.MaybeWorker()
	os.Exit(m.Run())
}

// TestVerifySmoke runs the CI divergence gate end to end on a small
// workload: identical answers and pass totals between net and mem.
func TestVerifySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	var out bytes.Buffer
	err := run([]string{"verify", "-nodes", "36", "-procs", "3", "-locates", "800"}, &out)
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("unexpected verify output:\n%s", out.String())
	}
}

// TestDemoSmoke runs the kill -9 demo end to end.
func TestDemoSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	var out bytes.Buffer
	if err := run([]string{"demo"}, &out); err != nil {
		t.Fatalf("demo: %v\n%s", err, out.String())
	}
	for _, want := range []string{"kill -9 worker 1", "probe of the cached \"printer\" address fails", "still resolves", "hint generation bumped"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("demo output missing %q:\n%s", want, out.String())
		}
	}
}

// TestChaosSmoke runs the two chaos exit gates on a short clock: the
// kill -9 storm at r=2 must lose no serviceable locate, and the lying
// storm at r=3 must surface no forged answer past the vote.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	var out bytes.Buffer
	err := run([]string{"chaos", "-nodes", "36", "-procs", "3", "-replicas", "2", "-duration", "1500ms", "-kill-every", "500ms"}, &out)
	if err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	for _, want := range []string{"chaos: kill -9 worker ", " respawned ", " failed=0 "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("kill storm output missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	err = run([]string{"chaos", "-nodes", "36", "-procs", "3", "-replicas", "3", "-lie", "-duration", "1500ms"}, &out)
	if err != nil {
		t.Fatalf("chaos -lie: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), " forged=0") || strings.Contains(out.String(), " voted=0 ") {
		t.Fatalf("lying storm was not voted down:\n%s", out.String())
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Fatal("want error for unknown subcommand")
	}
	if err := run(nil, &out); err == nil {
		t.Fatal("want usage error for no subcommand")
	}
}
