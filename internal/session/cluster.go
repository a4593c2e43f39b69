package session

// cluster.go scales the live plane past the backbone's PoP count: a
// cluster session maps N sites round-robin onto the 40 backbone PoPs
// (co-located sites a metro link apart) and RunCluster boots the whole
// membership+RP stack — the identical protocol code the TCP plane runs —
// on an in-memory transport.VirtualNetwork whose links carry the
// backbone's pairwise latency. One process hosts thousands of nodes:
// no kernel sockets, no ports, no file descriptors.
//
// A scenario (scenario.go) supplies the session's dynamics: a churn
// trace replayed over the wire exactly as RunLive does, plus a fault
// schedule (partitions, slow links, membership restarts) the chaos
// injector applies mid-run.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// ClusterSpec describes a cluster session to assemble: Spec's knobs,
// with N allowed to exceed the backbone PoP count.
type ClusterSpec struct {
	// Spec carries the shared session knobs (N, cameras, displays, caps,
	// latency bound, algorithm, seed).
	Spec
	// LocalCostMs is the one-way latency between sites co-located on a
	// PoP; 0 means topology.DefaultLocalCostMs.
	LocalCostMs float64
}

// BuildCluster assembles an N-site session with sites expanded over the
// backbone (round-robin over a seeded PoP permutation) instead of
// selected from it, so N may exceed the PoP count. The rest of the
// pipeline — rigs, FOVs, aggregated subscriptions, forest construction —
// is exactly Build's.
func BuildCluster(cs ClusterSpec) (*Session, error) {
	spec, err := cs.Spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	backbone, _, err := defaultBackbone()
	if err != nil {
		return nil, err
	}
	sites, err := topology.ExpandSites(backbone, spec.N, cs.LocalCostMs, rng)
	if err != nil {
		return nil, err
	}
	return assemble(spec, sites, rng)
}

// ClusterConfig parameterizes one virtual-fabric cluster run.
type ClusterConfig struct {
	// Spec describes the cluster session; see ClusterSpec.
	Spec ClusterSpec
	// Profile is the per-camera encoding profile; the zero value means a
	// small live profile (64x48 @ 15 fps, ratio 10) suitable for large
	// clusters.
	Profile stream.Profile
	// DurationMs is the session length; 0 means 2000.
	DurationMs float64
	// DrainMs extends listening after the last published frame; 0 means
	// 400.
	DrainMs float64
	// Scenario names the dynamics to run (see Scenarios); "" means
	// ScenarioSteadyChurn.
	Scenario string
	// Churn is the base churn process scenarios draw from. It must be a
	// valid profile (RatePerSec > 0): every scenario measures disruption
	// under dynamics, so a rate of zero is an error rather than a
	// silently substituted default — the emitted records must never
	// claim a churn rate the run did not use.
	Churn workload.ChurnProfile
	// Link adds jitter, loss and bandwidth on top of the matrix latency
	// of every site-to-site virtual link.
	Link transport.LinkProfile
	// Shards partitions the membership control plane into this many
	// servers (see transport.StreamShard); 0 or 1 runs the legacy single
	// server.
	Shards int
	// FlushIntervalMs batches each membership server's route
	// distribution; 0 distributes inline per event.
	FlushIntervalMs float64
	// ChaosSchedule is the declarative fault schedule injected on the
	// session clock (chaos.ParseSchedule grammar, e.g.
	// "300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400"),
	// on top of the scenario's own faults. Symbolic targets are resolved
	// deterministically from the session seed. Required by
	// ScenarioChaos, allowed alongside any other scenario; "" adds
	// nothing.
	ChaosSchedule string
}

// withDefaults fills the zero values.
func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Profile == (stream.Profile{}) {
		c.Profile = stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}
	}
	if c.DurationMs == 0 {
		c.DurationMs = 2000
	}
	if c.DrainMs == 0 {
		c.DrainMs = 400
	}
	if c.Scenario == "" {
		c.Scenario = ScenarioSteadyChurn
	}
	return c
}

// ClusterResult is a completed cluster run.
type ClusterResult struct {
	// Scenario is the dynamics that ran; Sites the cluster size.
	Scenario string
	Sites    int
	// Events is the number of control events the scenario's trace
	// applied over the wire.
	Events int
	// ChaosSchedule is the fully resolved fault schedule the run
	// injected — the scenario's faults joined with
	// ClusterConfig.ChaosSchedule — in the grammar's canonical rendering
	// ("" when none): the same schedule string and seed always
	// reproduce it byte for byte.
	ChaosSchedule string
	// Live is the measured outcome; Sim the event-driven simulator's
	// prediction for the same trace over the same forest. The simulator
	// does not model fabric faults, so under partition or slow-link
	// scenarios Live-vs-Sim divergence is the measurement, not an error.
	Live *LiveResult
	Sim  *sim.EventResult
}

// DeliveredFraction is the fraction of gained streams whose first frame
// arrived before session end.
func (r *ClusterResult) DeliveredFraction() float64 {
	total := r.Live.DeliveredGained + r.Live.UndeliveredGained
	if total == 0 {
		return 0
	}
	return float64(r.Live.DeliveredGained) / float64(total)
}

// RunCluster assembles an N-site cluster session, boots the full
// membership+RP stack on a virtual fabric whose links carry the
// backbone's latency matrix, and drives the named scenario: its churn
// trace is applied mid-session over the wire (the RunLive path,
// unchanged) while its fault schedule, joined with the caller's, runs
// through the chaos injector. The returned result pairs the live
// measurement with the simulator's prediction for the same trace.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Churn.Validate(); err != nil {
		return nil, fmt.Errorf("session: cluster churn profile: %w", err)
	}
	s, err := BuildCluster(cfg.Spec)
	if err != nil {
		return nil, err
	}
	sc, err := ScenarioByName(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	// The scenario rng is decoupled from the session seed stream so a
	// scenario change never reshuffles site placement or FOVs.
	seed := cfg.Spec.Seed
	if seed == 0 {
		seed = 1
	}
	plan, err := sc.Plan(s, cfg, rand.New(rand.NewSource(seed*7919+int64(len(sc.Name)))))
	if err != nil {
		return nil, fmt.Errorf("session: scenario %s: %w", sc.Name, err)
	}

	// Resolve the scenario's and the caller's faults as one schedule
	// before anything boots: parse errors, overlapping windows and
	// impossible targets fail fast, and the resolution is deterministic
	// in (schedule, seed, N, shards) so reruns inject identical faults.
	var chaosSchedule chaos.Schedule
	if cfg.Scenario == ScenarioChaos && cfg.ChaosSchedule == "" {
		return nil, fmt.Errorf("session: scenario %s requires a chaos schedule", ScenarioChaos)
	}
	if text := strings.Trim(plan.Chaos+";"+cfg.ChaosSchedule, ";"); text != "" {
		parsed, err := chaos.ParseSchedule(text)
		if err != nil {
			return nil, fmt.Errorf("session: chaos schedule: %w", err)
		}
		shards := cfg.Shards
		if shards < 1 {
			shards = 1
		}
		chaosSchedule, err = parsed.Resolve(seed, s.Workload.N(), shards)
		if err != nil {
			return nil, fmt.Errorf("session: chaos schedule: %w", err)
		}
	}

	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{
		Seed:  seed,
		Links: transport.SiteLinks(s.Sites.Cost, cfg.Link),
	})

	liveCfg := LiveConfig{
		Profile:         cfg.Profile,
		DurationMs:      cfg.DurationMs,
		DrainMs:         cfg.DrainMs,
		Algorithm:       cfg.Spec.Algorithm,
		Seed:            cfg.Spec.Seed,
		Fabric:          fabric,
		Shards:          cfg.Shards,
		FlushIntervalMs: cfg.FlushIntervalMs,
		Chaos:           chaosSchedule,
	}

	live, err := s.RunLive(ctx, liveCfg, plan.Trace)
	if err != nil {
		return nil, err
	}
	pred, err := s.SimPrediction(liveCfg, plan.Trace)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{
		Scenario: sc.Name,
		Sites:    s.Workload.N(),
		Events:   len(plan.Trace),
		Live:     live,
		Sim:      pred,
	}
	if len(chaosSchedule.Events) > 0 {
		res.ChaosSchedule = chaosSchedule.String()
	}
	return res, nil
}
