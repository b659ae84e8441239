// Package matchmake reproduces Mullender & Vitányi, "Distributed
// Match-Making for Processes in Computer Networks" (PODC 1985): the
// rendezvous-matrix theory of distributed name servers, its lower bounds
// and matching constructions, the per-topology locate strategies, and the
// Shotgun / Hash / Lighthouse Locate engines, all running over a
// goroutine-based store-and-forward network simulator — plus a concurrent
// serving layer (internal/cluster) that scales the same machinery to
// high-throughput workloads without losing the paper's message-pass
// accounting.
//
// The implementation lives in internal packages; see README.md for the
// quickstart and architecture tour, docs/PAPER_MAP.md for the
// paper-to-code concordance (every definition, proposition and method
// mapped to the symbol that implements it and the test that pins it),
// DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and examples/ for runnable entry points:
//
//   - internal/graph, internal/topology, internal/sim — substrates
//   - internal/rendezvous — §2 theory (strategies, matrix, bounds)
//   - internal/strategy — §3 topology-aware P/Q functions, and §5's
//     port hash (HashSet)
//   - internal/core — the names Shotgun Locate's layers share (ports,
//     postings, errors); the engine itself is internal/cluster's
//     coordinator, which the experiments run over the simulator
//   - internal/hashlocate, internal/lighthouse — §5's neighborhood
//     hashing and §4's Lighthouse Locate
//   - internal/service — the Amoeba-style service model of §1.3
//   - internal/cluster — Shotgun Locate (the paper's main contribution),
//     Hash Locate (a Layout with Hash set) and the sharded match-making
//     service layer: one coordinator (the
//     model and its pass accounting, written once) over a row substrate
//     — the hop-by-hop simulator (SimTransport), an in-process sharded
//     store (MemTransport) or a real-socket multi-process cluster of
//     NodeServer processes (NetTransport) — probe-validated address hints with a
//     generation-based invalidation protocol, batched locate/post
//     operations, a frequency-weighted hot-port strategy (E16/M3′
//     live), r-fold replicated rendezvous with crash-tolerant replica
//     fallthrough and a background re-post repair loop, epoch-versioned
//     elastic membership (grow or shrink the active node set at runtime
//     behind a dual-epoch locate, with minimal-movement posting
//     migration and, on the socket backend, live re-partitioning of the
//     node space across a different process count), locate coalescing,
//     per-shard worker pools and live metrics (including availability,
//     replica-depth and epoch-migration counters)
//   - internal/netwire — the socket transport's wire layer: varint
//     framing, pooled buffers, pipelined connections
//   - internal/experiments — every table and figure, as code
//
// The benchmarks in this package (bench_test.go) regenerate each
// experiment and track the serving layer (BenchmarkClusterLocate reports
// ns/op and message passes per locate for both transports); `go run
// ./cmd/mmbench` prints all experiments.
//
// `go run ./cmd/mmload` load-tests a cluster: pick a transport
// (-transport mem|sim|net, the net backend taking -addrs from a
// cluster booted by cmd/mmctl or cmd/mmnode), a port-popularity
// workload (-workload uniform,
// or -workload zipf with -zipf-s/-zipf-v for skew), optional
// crash/re-register churn (-churn 50ms) and crash injection
// (-replicas r, -kill-rate k — replicated rendezvous measured against
// node kills), elastic-membership churn (-resize-interval d,
// -resize-to m — live epoch transitions under load; -state/-watch-state
// follow an `mmctl scale` re-partition of a socket cluster), the
// hot-path accelerators (-hints, -batch N,
// -weighted), and closed-loop (-concurrency) or open-loop (-rate,
// absolute-deadline paced) driving; it reports throughput, p50/p99
// latency, hint hit-rate, availability, allocs/locate and message
// passes per locate. DESIGN.md documents every flag, and
// cmd/mmbenchjson turns bench output into the BENCH_cluster.json CI
// artifact.
//
// `go run ./cmd/mmctl demo` spawns a real 3-process socket cluster,
// kills one process with SIGKILL mid-run and narrates the recovery;
// `mmctl up` boots a cluster for mmload, `mmctl verify` is the CI
// gate that pins the socket backend's answers and pass counts to the
// in-process transport's, and `mmctl chaos` is the availability gate:
// kill -9 node processes on a timer under continuous load and demand
// zero failed locates at replication factor ≥ 2.
package matchmake
