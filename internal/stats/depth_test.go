package stats

import (
	"sync"
	"testing"
)

func TestDepthCounter(t *testing.T) {
	var d DepthCounter
	for i := 0; i < 10; i++ {
		d.Observe(i, 0)
	}
	for i := 0; i < 4; i++ {
		d.Observe(i, 1)
	}
	d.Observe(7, 2)
	d.Fail()
	if got := d.Counts(); got[0] != 10 || got[1] != 4 || got[2] != 1 {
		t.Fatalf("counts = %v", got)
	}
	if d.Fails() != 1 {
		t.Fatalf("fails = %d", d.Fails())
	}
	if d.Total() != 16 {
		t.Fatalf("total = %d", d.Total())
	}
	if d.Fallthroughs() != 5 {
		t.Fatalf("fallthroughs = %d", d.Fallthroughs())
	}
	want := float64(0*10+1*4+2*1) / 15
	if got := d.MeanDepth(); got != want {
		t.Fatalf("mean depth = %v, want %v", got, want)
	}
	d.Reset()
	if d.Total() != 0 || d.Fallthroughs() != 0 || d.MeanDepth() != 0 {
		t.Fatalf("reset left state: total=%d", d.Total())
	}
}

func TestDepthCounterClamps(t *testing.T) {
	var d DepthCounter
	d.Observe(-1, -3)
	d.Observe(1000, 1000)
	c := d.Counts()
	if c[0] != 1 || c[len(c)-1] != 1 {
		t.Fatalf("clamped counts = %v", c)
	}
}

func TestDepthCounterConcurrent(t *testing.T) {
	var d DepthCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				d.Observe(w, w%3)
			}
		}(w)
	}
	wg.Wait()
	if d.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", d.Total())
	}
}
