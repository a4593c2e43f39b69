// Package tele3d is a reproduction of "Towards Multi-Site Collaboration
// in 3D Tele-Immersive Environments" (Wu, Yang, Gupta, Nahrstedt,
// ICDCS 2008): a publish-subscribe model for multi-site 3D tele-immersion
// whose core is the static construction of a dissemination overlay — a
// forest of multicast trees over per-site rendezvous points — under
// bandwidth and latency constraints.
//
// The implementation lives under internal/: the overlay construction
// algorithms (internal/overlay), the FOV subscription framework
// (internal/fov), workload and topology substrates (internal/workload,
// internal/topology, internal/geo), the stream model (internal/stream),
// a real TCP data plane (internal/transport, internal/rp,
// internal/membership), a discrete-event data-plane simulator
// (internal/sim), and the experiment harness regenerating every figure of
// the paper's evaluation (internal/experiments, cmd/tisim).
//
// The simulator is event-driven: beyond replaying a frame schedule over
// a static forest, sim.RunEvents applies a time-stamped trace of
// subscribe, unsubscribe and FOV view-change events to the live forest
// through the overlay's dynamic operations, and reports per-event
// *disruption latency* — the time from a view change to the first
// delivered frame of each newly needed stream. Churn traces come from
// the session layer: workload.ChurnProfile schedules seeded Poisson
// churn (rate, view-change vs join/leave mix) and session.ChurnTrace
// binds each slot to concrete streams by rotating display FOVs and
// diffing their contributing stream sets.
//
// The networked plane supports the same dynamics live: the membership
// server is a long-lived control loop (registration connections stay
// open; MsgResubscribe diffs are applied to the live forest and
// epoch-versioned MsgRoutesUpdate deltas are pushed to the affected RPs
// only), and rp.Node hot-swaps an immutable, epoch-tagged routing-table
// snapshot while frames keep flowing — stale in-flight frames are
// discarded, duplicates across a parent swap are suppressed by a
// per-stream sequence watermark, and the first delivered frame of each
// gained stream is timestamped. session.RunCluster drives a churn trace
// over real TCP loopback or the virtual fabric and reports the same
// disruption-latency metric as sim.RunEvents; session.SimPrediction
// reconstructs the membership server's exact forest so the two planes
// are directly comparable (cmd/ticluster prints them side by side).
//
// The plane is fabric-agnostic: every listen and dial goes through
// transport.Network, whose TCP implementation preserves the behaviour
// above byte for byte while transport.VirtualNetwork runs the identical
// protocol stack over in-memory links with emulated per-link latency,
// jitter, loss and bandwidth. One process hosts thousand-node clusters
// (session.RunCluster, cmd/ticluster -virtual), and a scenario library
// (flash crowd, regional partition, correlated churn, slow links)
// pairs churn traces with runtime fabric impairments. ARCHITECTURE.md
// at the repository root maps the layers and follows a frame and a
// resubscribe through them.
//
// Evaluation runs on a parallel experiment engine
// (internal/experiments/engine.go): every Monte-Carlo sample is a pure
// function of the seed and sample index, fanned across a worker pool and
// reduced in deterministic order, so results are bit-identical at any
// parallelism — the churn experiment (Runner.ChurnExperiment, cmd/tisim
// -churn) included. cmd/tisweep sweeps that engine over parameter grids
// (sites, streams per site, bandwidth budget, latency bound, algorithms,
// churn rate and view-change mix), streaming per-cell records to CSV and
// JSON-Lines. Golden regression tests (internal/experiments/testdata)
// pin every figure's output byte-for-byte, and native fuzz targets drive
// random churn against the overlay invariants and the simulator's graph
// lower bound.
//
// The root package carries the repository-level benchmarks: one per paper
// table/figure (bench_test.go), including the serial-vs-parallel engine
// pair (BenchmarkFig8aSerial / BenchmarkFig8aParallel). `make bench`
// records each run as a machine-readable BENCH_<date>.json trajectory
// point (cmd/benchjson), and CI's bench-compare gate fails any pull
// request that regresses the overlay-core micro-benchmarks more than 20%
// against the committed baseline.
//
// # Flat-array invariants
//
// The overlay core stores every tree as dense flat arrays keyed by node
// index — parent pointers (int32, -1 for "absent"), accumulated costs,
// join-ordered child lists — plus a membership list maintained
// incrementally in ascending node order. Two contracts follow:
//
//   - Dense node indexing: RP identifiers are small contiguous integers
//     (array indices), as produced by overlay.Problem. Arrays grow to the
//     highest node index touched; in steady state Join, Subscribe and
//     Unsubscribe allocate nothing (pinned by testing.AllocsPerRun
//     regression tests in internal/overlay).
//
//   - Iteration-order determinism: Tree.ForEachNode/Nodes visit members
//     in ascending node order — exactly the order the historical
//     sort.Ints(Nodes()) produced — and Forest's tree iteration is
//     ascending by stream ID via incrementally maintained sorted
//     indexes. Every golden file and the engine's bit-identical
//     parallelism contract rest on this order never changing.
package tele3d
