package loadrun

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/strategy"
)

// waitGroupImpl aliases sync.WaitGroup so the engine's chaos-loop
// spawner stays a one-liner at every call site.
type waitGroupImpl = sync.WaitGroup

// Go runs f on its own goroutine tracked by the group.
func (w *waitGroup) Go(f func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		f()
	}()
}

// Wait blocks until every spawned loop has returned.
func (w *waitGroup) Wait() { w.wg.Wait() }

// registry guards the per-port server handles against the churn loop.
type registry struct {
	mu      sync.Mutex
	servers []cluster.ServerRef
}

// portPicker returns a per-goroutine port-popularity sampler over the
// precomputed name table. Zipf makes a handful of ports hot — exactly
// the regime coalescing targets.
func portPicker(cfg Config, names []core.Port, workerSeed int64) (func() core.Port, error) {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + workerSeed))
	switch cfg.Workload {
	case "uniform":
		return func() core.Port { return names[rng.Intn(len(names))] }, nil
	case "zipf":
		if cfg.ZipfS <= 1 {
			return nil, fmt.Errorf("zipf-s must be > 1, got %v", cfg.ZipfS)
		}
		if cfg.ZipfV < 1 {
			return nil, fmt.Errorf("zipf-v must be ≥ 1, got %v", cfg.ZipfV)
		}
		z := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(names)-1))
		return func() core.Port { return names[z.Uint64()] }, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

// closedLoop hammers the cluster from cfg.Concurrency goroutines until
// the deadline; each failed locate is already counted by the metrics.
// With Batch N each worker issues its locates through LocateBatch in
// groups of N (reused request/result slices, one store port lookup per
// request).
func closedLoop(c *cluster.Cluster, cfg Config, names []core.Port, n int, det *forgeDetector) error {
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	errs := make([]error, cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick, err := portPicker(cfg, names, int64(w))
			if err != nil {
				errs[w] = err
				return
			}
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(w)))
			if cfg.Batch > 0 {
				reqs := make([]cluster.LocateReq, cfg.Batch)
				res := make([]cluster.LocateRes, cfg.Batch)
				for time.Now().Before(deadline) {
					for i := range reqs {
						reqs[i] = cluster.LocateReq{Client: graph.NodeID(rng.Intn(n)), Port: pick()}
					}
					if err := c.LocateBatch(reqs, res); err != nil {
						errs[w] = err
						return
					}
					if det != nil {
						for i := range res {
							det.check(reqs[i].Port, res[i].Entry, res[i].Err)
						}
					}
				}
				return
			}
			for time.Now().Before(deadline) {
				// Batch the deadline check amortization: 64 locates per
				// clock read keeps the loop out of time.Now.
				for i := 0; i < 64; i++ {
					client := graph.NodeID(rng.Intn(n))
					port := pick()
					e, err := c.Locate(client, port)
					if det != nil {
						det.check(port, e, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openLoop submits arrivals at cfg.Rate locates/sec onto the cluster's
// shard worker pools, shedding (not queueing) when the pools fall
// behind — the throughput-under-offered-load view.
//
// Pacing is by absolute deadline: the k-th arrival is due at
// start + k/rate, and the loop sleeps until the next arrival's absolute
// due time rather than a fixed relative interval. Relative ticks
// accumulate scheduler drift and drop the final partial interval, which
// undershoots the offered rate (and flatters the shedding stats) once
// the rate climbs past ~100k/s; the absolute schedule self-corrects
// after every oversleep and always issues exactly rate×duration
// arrivals.
func openLoop(c *cluster.Cluster, cfg Config, names []core.Port, n int, det *forgeDetector) error {
	pick, err := portPicker(cfg, names, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed * 17))
	var pending sync.WaitGroup
	start := time.Now()
	total := int(float64(cfg.Rate) * cfg.Duration.Seconds())
	perArrival := float64(time.Second) / float64(cfg.Rate)
	issued := 0
	for issued < total {
		due := int(float64(cfg.Rate) * time.Since(start).Seconds())
		if due > total {
			due = total
		}
		for ; issued < due; issued++ {
			client := graph.NodeID(rng.Intn(n))
			port := pick()
			pending.Add(1)
			if err := c.Submit(client, port, func(e core.Entry, err error) {
				if det != nil {
					det.check(port, e, err)
				}
				pending.Done()
			}); err != nil {
				pending.Done() // shed; already counted in metrics
			}
		}
		if issued >= total {
			break
		}
		next := start.Add(time.Duration(float64(issued+1) * perArrival))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	pending.Wait()
	return nil
}

// runResizer is the membership-churn loop: every tick it either
// finishes the draining migration (retiring the old epoch) or starts
// the next transition, alternating the active node count between the
// full universe and ResizeTo under a fresh epoch of the configured
// strategy family. It returns the number of transitions begun and the
// last error seen.
func runResizer(c *cluster.Cluster, cfg Config, n int, stop <-chan struct{}) (int64, error) {
	var (
		resizes int64
		lastErr error
	)
	seq := uint64(1)
	toSmall := true
	tick := time.NewTicker(cfg.ResizeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return resizes, lastErr
		case <-tick.C:
		}
		et, ok := c.Transport().(cluster.ElasticTransport)
		if !ok || !et.Elastic() {
			return resizes, fmt.Errorf("transport %s is not elastic", c.Transport().Name())
		}
		if et.Resizing() {
			if err := c.FinishResize(); err != nil {
				lastErr = err
			}
			continue
		}
		active := n
		if toSmall {
			active = cfg.ResizeTo
		}
		strat, err := BuildStrategy(cfg.Strategy, active, cfg.Seed)
		if err != nil {
			return resizes, err
		}
		seq++
		ep, err := strategy.NewEpoch(seq, n, strat, cfg.Replicas)
		if err != nil {
			return resizes, err
		}
		if _, err := c.Resize(ep); err != nil {
			lastErr = err
			continue
		}
		resizes++
		toSmall = !toSmall
	}
}

// watchState polls the mmctl state file and rescales the socket
// transport onto every new layout it publishes — the consumer side of
// `mmctl scale`.
func watchState(tr *cluster.NetTransport, path string, interval time.Duration, stop <-chan struct{}, out io.Writer) {
	last := strings.Join(tr.Addrs(), ",")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		addrs, err := readStateAddrs(path)
		if err != nil {
			continue // mid-rewrite or gone; retry next tick
		}
		j := strings.Join(addrs, ",")
		if j == last {
			continue
		}
		if err := tr.Rescale(addrs); err != nil {
			fmt.Fprintf(out, "mmload: rescale onto %s failed: %v\n", j, err)
			continue
		}
		last = j
		fmt.Fprintf(out, "mmload: rescaled onto %d node processes\n", len(addrs))
	}
}

// runKiller crashes random rendezvous nodes at cfg.KillRate per
// second, restoring the previous victim before each new kill so one
// node is down at any moment. A restored node comes back with its
// volatile cache lost, so the killer performs the paper's §5 repair
// duty — every server reposts — before the next kill; what remains
// unrepairable is the live outage window, which is exactly what
// replication is measured against: with r=1 the pairs meeting at the
// dead node fail until it returns, with r≥2 they fall through to the
// next family and succeed. Nodes currently hosting a server are spared
// so every failure observed is a rendezvous failure, not a dead
// service. It returns the number of kills issued.
func runKiller(c *cluster.Cluster, reg *registry, cfg Config, n int, stop <-chan struct{}) int64 {
	rng := rand.New(rand.NewSource(cfg.Seed * 7919))
	tr := c.Transport()
	var (
		kills int64
		dead  []graph.NodeID
	)
	tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.KillRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			for _, v := range dead {
				_ = tr.Restore(v)
			}
			return kills
		case <-tick.C:
		}
		reg.mu.Lock()
		homes := make(map[graph.NodeID]bool, len(reg.servers))
		for _, ref := range reg.servers {
			homes[ref.Node()] = true
		}
		reg.mu.Unlock()
		victim := graph.NodeID(-1)
		for tries := 0; tries < 64; tries++ {
			v := graph.NodeID(rng.Intn(n))
			if homes[v] || slices.Contains(dead, v) {
				continue
			}
			victim = v
			break
		}
		if victim < 0 {
			continue
		}
		restored := false
		for len(dead) > 0 {
			_ = tr.Restore(dead[0])
			dead = dead[1:]
			restored = true
		}
		if restored {
			// Refill the restored node's wiped cache: the repair duty
			// the net transport's repair loop automates.
			reg.mu.Lock()
			for _, ref := range reg.servers {
				_ = ref.Repost()
			}
			reg.mu.Unlock()
		}
		if err := tr.Crash(victim); err == nil {
			dead = append(dead, victim)
			kills++
		}
	}
}

// runCorruptor is the adversarial half of the corrupt-rate chaos mode:
// at the configured rate it injects one corruption operation — a
// dropped posting, an orphaned duplicate, a stale-epoch address or a
// bit-flipped entry with a poisoned timestamp — through the transport's
// deterministic corruption planner, while the background anti-entropy
// loop races it back to the registration ground truth. Each tick draws
// a fresh plan seed so waves differ but any run is reproducible from
// Seed.
func runCorruptor(antiT cluster.AntiEntropyTransport, cfg Config, stop <-chan struct{}) {
	wave := int64(0)
	tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.CorruptRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		wave++
		_, _ = antiT.Corrupt(cluster.CorruptOptions{Seed: cfg.Seed*7907 + wave, Count: 1})
	}
}

// runArmer re-arms the answer-forging adversary at cfg.ByzRate waves
// per second, each wave drawing fresh liars and fresh lies from a
// fresh seed — like runCorruptor, reproducible from Seed. The plan
// replaces the previous wave's wholesale, so the number of
// concurrently lying nodes stays at cfg.Liars.
func runArmer(byzT cluster.ByzantineTransport, cfg Config, stop <-chan struct{}) {
	wave := int64(0)
	tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.ByzRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		wave++
		_, _ = byzT.Arm(cluster.ArmOptions{Seed: cfg.Seed*6053 + wave, Liars: cfg.Liars})
	}
}

// forgeDetector judges surfaced locate answers against registration
// ground truth, counting the lies that reached a client: a port other
// than the one queried, a fabricated instance id (≥ ForgedIDBase), or —
// when no churn moves the servers mid-run — an address that is not the
// port's registered home. With voting on, this count is the harness's
// exit criterion: zero forged answers may surface.
type forgeDetector struct {
	reg    *registry
	idx    map[core.Port]int
	addrOK bool // address ground truth stable (no churn/resize)
	forged atomic.Int64
}

func newForgeDetector(cfg Config, reg *registry, names []core.Port) *forgeDetector {
	idx := make(map[core.Port]int, len(names))
	for i, p := range names {
		idx[p] = i
	}
	return &forgeDetector{reg: reg, idx: idx, addrOK: cfg.Churn == 0 && cfg.ResizeEvery == 0}
}

func (d *forgeDetector) check(port core.Port, e core.Entry, err error) {
	if err != nil {
		return
	}
	if e.Port != port || e.ServerID >= cluster.ForgedIDBase {
		d.forged.Add(1)
		return
	}
	if !d.addrOK {
		return
	}
	i, ok := d.idx[port]
	if !ok {
		return
	}
	d.reg.mu.Lock()
	home := d.reg.servers[i].Node()
	d.reg.mu.Unlock()
	if e.Addr != home {
		d.forged.Add(1)
	}
}

// runChurn tears one service down per tick: deregister, crash the old
// node, re-register at a fresh node, and restore the previous crash
// victim — so at any moment at most one node is down and every service
// keeps moving.
func runChurn(c *cluster.Cluster, reg *registry, cfg Config, n int, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(cfg.Seed * 101))
	tr := c.Transport()
	lastCrashed := graph.NodeID(-1)
	tick := time.NewTicker(cfg.Churn)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if lastCrashed >= 0 {
				_ = tr.Restore(lastCrashed)
			}
			return
		case <-tick.C:
		}
		p := rng.Intn(len(reg.servers))
		reg.mu.Lock()
		ref := reg.servers[p]
		oldNode := ref.Node()
		_ = ref.Deregister()
		if lastCrashed >= 0 {
			_ = tr.Restore(lastCrashed)
		}
		_ = tr.Crash(oldNode)
		lastCrashed = oldNode
		newNode := graph.NodeID(rng.Intn(n))
		for newNode == oldNode {
			newNode = graph.NodeID(rng.Intn(n))
		}
		if newRef, err := c.Register(ref.Port(), newNode); err == nil {
			reg.servers[p] = newRef
		}
		reg.mu.Unlock()
	}
}
