package sweep

import (
	"testing"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/sweep/loadrun"
)

// healthyResult is a run that should pass every applicable gate.
func healthyResult() *loadrun.Result {
	return &loadrun.Result{
		Metrics: cluster.MetricsSnapshot{
			Locates:      10_000,
			Availability: 1,
		},
	}
}

func gateByName(t *testing.T, rep *GateReport, name string) GateCheck {
	t.Helper()
	for _, c := range rep.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no gate %q in %+v", name, rep.Checks)
	return GateCheck{}
}

func TestGatesHealthy(t *testing.T) {
	rep := Gates(Scenario{Config: loadrun.Config{Replicas: 2, KillRate: 8}}, healthyResult())
	if !rep.Pass {
		t.Fatalf("healthy run failed gates: %+v", rep.Checks)
	}
}

// TestGatesHardErrors checks NotFound is carved out of the error gate:
// rendezvous misses are an availability question, transport failures
// are always fatal.
func TestGatesHardErrors(t *testing.T) {
	res := healthyResult()
	res.Metrics.Errors = 5
	res.Metrics.NotFound = 5
	rep := Gates(Scenario{}, res)
	if c := gateByName(t, rep, "hard-errors"); !c.Pass {
		t.Fatalf("not-found-only errors must pass: %+v", c)
	}
	res.Metrics.Errors = 6
	rep = Gates(Scenario{}, res)
	if c := gateByName(t, rep, "hard-errors"); c.Pass {
		t.Fatal("hard error slipped through")
	}
	if rep.Pass {
		t.Fatal("report passed with a failing check")
	}
	// Kill and churn chaos crash callers mid-locate; those errors are
	// expected, so the gate stands down (availability covers them).
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 2, KillRate: 2}}, res)
	for _, c := range rep.Checks {
		if c.Name == "hard-errors" {
			t.Fatal("hard-errors gate applied under caller-crash chaos")
		}
	}
}

// TestGatesAvailability checks the storm bound applies only to
// replicated chaos runs.
func TestGatesAvailability(t *testing.T) {
	res := healthyResult()
	res.Metrics.Availability = 0.95
	rep := Gates(Scenario{Config: loadrun.Config{Replicas: 2, KillRate: 8}}, res)
	if c := gateByName(t, rep, "availability"); c.Pass {
		t.Fatal("0.95 at r=2 under kills must fail the storm bound")
	}
	// r=1 is expected to lose locates under kills: no availability gate.
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 1, KillRate: 8}}, res)
	for _, c := range rep.Checks {
		if c.Name == "availability" {
			t.Fatal("availability gate applied at r=1")
		}
	}
	// Detect-only voting (q=2 at r=2 against a liar) fails conflicted
	// ballots closed — the availability dent is the design, not a bug.
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 2, VoteQuorum: 2, ByzRate: 2}}, res)
	for _, c := range rep.Checks {
		if c.Name == "availability" {
			t.Fatal("availability gate applied to a detect-only quorum")
		}
	}
	// An outvoting quorum (r=3) must hold the bound even against liars.
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 3, VoteQuorum: 3, ByzRate: 2}}, res)
	if c := gateByName(t, rep, "availability"); c.Pass {
		t.Fatal("0.95 at r=3 with an outvoting quorum must fail")
	}
}

// TestGatesNotFound checks the no-chaos r≥2 zero-miss gate.
func TestGatesNotFound(t *testing.T) {
	res := healthyResult()
	res.Metrics.Errors = 3
	res.Metrics.NotFound = 3
	rep := Gates(Scenario{Config: loadrun.Config{Replicas: 2}}, res)
	if c := gateByName(t, rep, "not-found"); c.Pass {
		t.Fatal("misses with r=2 and no chaos must fail")
	}
	// Under chaos the availability gate replaces it.
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 2, KillRate: 2}}, res)
	for _, c := range rep.Checks {
		if c.Name == "not-found" {
			t.Fatal("not-found gate applied under chaos")
		}
	}
}

// TestGatesForged checks the 2f+1 gate: zero forged answers with a
// quorum of 3 at r≥3.
func TestGatesForged(t *testing.T) {
	res := healthyResult()
	res.Forged = 2
	rep := Gates(Scenario{Config: loadrun.Config{Replicas: 3, VoteQuorum: 3, ByzRate: 2}}, res)
	if c := gateByName(t, rep, "forged"); c.Pass {
		t.Fatal("forged answers at quorum 3 must fail")
	}
	// Quorum 2 at r=2 detects but cannot outvote: no forged gate.
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 2, VoteQuorum: 2, ByzRate: 2}}, res)
	for _, c := range rep.Checks {
		if c.Name == "forged" {
			t.Fatal("forged gate applied below the 2f+1 bound")
		}
	}
}

// TestGatesQuiescence checks corruption runs must drain within the
// round budget.
func TestGatesQuiescence(t *testing.T) {
	res := healthyResult()
	res.QuiesceRounds = 3
	res.QuiesceIn = time.Millisecond
	rep := Gates(Scenario{Config: loadrun.Config{Replicas: 2, CorruptRate: 20}}, res)
	if c := gateByName(t, rep, "quiescence"); !c.Pass {
		t.Fatalf("3 rounds must pass: %+v", c)
	}
	res.QuiesceRounds = 0
	rep = Gates(Scenario{Config: loadrun.Config{Replicas: 2, CorruptRate: 20}}, res)
	if c := gateByName(t, rep, "quiescence"); c.Pass {
		t.Fatal("no drain at all must fail")
	}
}

// TestGatesResize checks elastic runs must complete resizes cleanly.
func TestGatesResize(t *testing.T) {
	res := healthyResult()
	res.Resizes = 4
	rep := Gates(Scenario{Config: loadrun.Config{ResizeEvery: 100 * time.Millisecond}}, res)
	if c := gateByName(t, rep, "resizes"); !c.Pass {
		t.Fatalf("clean resizes must pass: %+v", c)
	}
	res.ResizeErr = "boom"
	rep = Gates(Scenario{Config: loadrun.Config{ResizeEvery: 100 * time.Millisecond}}, res)
	if c := gateByName(t, rep, "resizes"); c.Pass {
		t.Fatal("resize error must fail")
	}
}
