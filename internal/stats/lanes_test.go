package stats

import (
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// raceEnabled reports whether the test binary is race-instrumented;
// sync.Pool then drops a quarter of the Puts on purpose.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

func TestLanesInRange(t *testing.T) {
	var l Lanes
	held := make([]int, 0, 4*CounterStripes)
	for i := 0; i < 4*CounterStripes; i++ { // more holders than stripes: lanes are shared, never refused
		s := l.Get()
		if s < 0 || s >= CounterStripes {
			t.Fatalf("Get returned lane %d, outside [0, %d)", s, CounterStripes)
		}
		held = append(held, s)
	}
	for _, s := range held {
		l.Put(s)
	}
	for i := 0; i < 4*CounterStripes; i++ {
		if s := l.Get(); s < 0 || s >= CounterStripes {
			t.Fatalf("Get after Put returned lane %d, outside [0, %d)", s, CounterStripes)
		}
	}
	l.Put(-1) // masked down like a counter's stripe, not an index out of range
	l.Put(CounterStripes + 3)
	for i := 0; i < 2; i++ {
		if s := l.Get(); s < 0 || s >= CounterStripes {
			t.Fatalf("Get after an out-of-range Put returned lane %d", s)
		}
	}
}

// TestLanesStable is the affinity the type exists for: a goroutine that
// returns its lane and asks again gets the same one back.
func TestLanesStable(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a quarter of the Puts under the race detector")
	}
	// A GC cycle clears the pool and a migration between Get and Put
	// leaves the lane with another processor; both are rare, so a changed
	// lane is tolerated a few times, not never.
	var l Lanes
	lane, changes := l.Get(), 0
	l.Put(lane)
	for i := 0; i < 1000; i++ {
		s := l.Get()
		l.Put(s)
		if s != lane {
			lane, changes = s, changes+1
		}
	}
	if changes > 5 {
		t.Fatalf("one goroutine alone changed lane %d times in 1000 Get/Put", changes)
	}
}

func TestLanesAddsSumExactly(t *testing.T) {
	const (
		workers = 8
		adds    = 10000
	)
	var (
		l     Lanes
		c     StripedCounter
		depth DepthCounter
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				s := l.Get()
				c.Add(s, 1)
				depth.Observe(s, i&1)
				l.Put(s)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*adds {
		t.Fatalf("counter sums to %d after %d adds through lanes", got, workers*adds)
	}
	if got := depth.Counts(); got[0] != workers*adds/2 || got[1] != workers*adds/2 || depth.Total() != workers*adds {
		t.Fatalf("depth counts %v, total %d, want %d at each of depths 0 and 1", got, depth.Total(), workers*adds/2)
	}
}
