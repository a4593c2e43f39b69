package session

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// TestBuildClusterBeyondPoPCount checks Build past the backbone's 40
// PoPs: the whole FOV pipeline runs and the forest validates.
func TestBuildClusterBeyondPoPCount(t *testing.T) {
	s, err := Build(Spec{
		N: 120, CamerasPerSite: 1, DisplaysPerSite: 1,
		Algorithm: overlay.RJ{}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.N() != 120 {
		t.Fatalf("built %d sites", s.Workload.N())
	}
	if err := s.Forest.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunClusterPartitionScenario runs a small partition-scenario
// cluster end to end on the virtual fabric: the stack boots, the trace
// applies over the wire, the partition cuts and heals, and the result
// carries both planes.
func TestRunClusterPartitionScenario(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 10, CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 21,
		}},
		Profile:    stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs: 1200,
		Scenario:   ScenarioPartition,
		Churn:      workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != ScenarioPartition || res.Sites != 10 {
		t.Fatalf("result header %+v", res)
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("virtual cluster delivered no frames")
	}
	if res.Events == 0 || len(res.Live.Events) != res.Events {
		t.Fatalf("events: %d in trace, %d outcomes", res.Events, len(res.Live.Events))
	}
	// The preset's partition window runs through the chaos injector and
	// reports its length as the fault's recovery.
	if want := "360:partition-heal:420"; res.ChaosSchedule != want {
		t.Fatalf("chaos schedule %q, want %q", res.ChaosSchedule, want)
	}
	if res.Live.ChaosEvents != 1 || res.Live.ChaosRecoveryMs != 420 {
		t.Fatalf("chaos: %d event(s), worst recovery %v ms; want 1 and the 420 ms window",
			res.Live.ChaosEvents, res.Live.ChaosRecoveryMs)
	}
	if res.Sim == nil || len(res.Sim.Events) != res.Events {
		t.Fatal("missing sim prediction")
	}
	if df := res.DeliveredFraction(); df < 0 || df > 1 {
		t.Fatalf("delivered fraction %v", df)
	}
}

// TestVirtualClusterFiveHundredNodes is the scale acceptance test: a
// 500-site cluster — membership server plus 500 rendezvous points, every
// connection through the in-memory fabric — runs a churn scenario in one
// process, and the live disruption latency agrees with the event-driven
// simulator's prediction within LiveSimToleranceMs, exactly like the
// 4-site TCP cross-check.
func TestVirtualClusterFiveHundredNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("500-node cluster under the race detector: covered at 50 nodes by CI cluster-smoke")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 500, CamerasPerSite: 1, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 11,
		}},
		Profile:    stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs: 1500,
		Scenario:   ScenarioSteadyChurn,
		Churn:      workload.ChurnProfile{RatePerSec: 6, ViewChangeMix: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites != 500 {
		t.Fatalf("ran %d sites, want 500", res.Sites)
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("500-node cluster delivered no frames")
	}
	if res.Events == 0 {
		t.Fatal("trace was empty — pick a seed that churns")
	}
	// Admission decisions must match the simulator event for event: both
	// planes apply the same trace to the same forest.
	for i := range res.Live.Events {
		le, se := res.Live.Events[i], res.Sim.Events[i]
		if le.GainedAccepted != se.GainedAccepted || le.GainedRejected != se.GainedRejected {
			t.Errorf("event %d admission: live %d/%d, sim %d/%d",
				i, le.GainedAccepted, le.GainedRejected, se.GainedAccepted, se.GainedRejected)
		}
	}
	if res.Live.DeliveredGained == 0 || res.Sim.DeliveredGained == 0 {
		t.Fatalf("delivered gains: live %d, sim %d — trace too quiet to compare",
			res.Live.DeliveredGained, res.Sim.DeliveredGained)
	}
	diff := math.Abs(res.Live.MeanDisruptionMs - res.Sim.MeanDisruptionMs)
	if diff > LiveSimToleranceMs {
		t.Errorf("live mean disruption %.1fms vs sim %.1fms: |diff| %.1f exceeds %dms",
			res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs, diff, LiveSimToleranceMs)
	}
	t.Logf("500 nodes: %d events, live mean %.1fms (max %.1f, %d delivered), sim mean %.1fms, %d frames",
		res.Events, res.Live.MeanDisruptionMs, res.Live.MaxDisruptionMs,
		res.Live.DeliveredGained, res.Sim.MeanDisruptionMs, res.Live.TotalFrames)
}

// TestVirtualClusterFlashCrowdBatched is the amortized-maintenance scale
// acceptance test: the same 500-site single-process cluster, but hit with
// the flash-crowd scenario — the steady churn compressed fivefold into a
// burst window — while the membership plane batches deltas into 40 ms
// flush windows instead of pushing per event. Batching amortizes the
// route rebuilds without changing any admission decision, so the live
// run must still agree with the event-driven simulator's prediction
// within LiveSimToleranceMs, and the per-phase maintenance accounting
// must surface through the cluster result.
func TestVirtualClusterFlashCrowdBatched(t *testing.T) {
	if raceEnabled {
		t.Skip("500-node cluster under the race detector: covered at 100 nodes by CI batch-smoke")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 500, CamerasPerSite: 1, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 11,
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs:      1500,
		Scenario:        ScenarioFlashCrowd,
		Churn:           workload.ChurnProfile{RatePerSec: 6, ViewChangeMix: 0.8},
		FlushIntervalMs: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != ScenarioFlashCrowd || res.Sites != 500 {
		t.Fatalf("result header: scenario %s, %d sites", res.Scenario, res.Sites)
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("batched 500-node cluster delivered no frames")
	}
	if res.Events == 0 {
		t.Fatal("flash-crowd trace was empty — pick a seed that churns")
	}
	// Batching defers the pushes but must not change a single admission
	// decision: both planes apply the same trace to the same forest.
	for i := range res.Live.Events {
		le, se := res.Live.Events[i], res.Sim.Events[i]
		if le.GainedAccepted != se.GainedAccepted || le.GainedRejected != se.GainedRejected {
			t.Errorf("event %d admission: live %d/%d, sim %d/%d",
				i, le.GainedAccepted, le.GainedRejected, se.GainedAccepted, se.GainedRejected)
		}
	}
	if res.Live.DeliveredGained == 0 || res.Sim.DeliveredGained == 0 {
		t.Fatalf("delivered gains: live %d, sim %d — trace too quiet to compare",
			res.Live.DeliveredGained, res.Sim.DeliveredGained)
	}
	diff := math.Abs(res.Live.MeanDisruptionMs - res.Sim.MeanDisruptionMs)
	if diff > LiveSimToleranceMs {
		t.Errorf("live mean disruption %.1fms vs sim %.1fms: |diff| %.1f exceeds %dms",
			res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs, diff, LiveSimToleranceMs)
	}
	// The per-phase accounting must flow out of the membership plane: a
	// 500-site boot constructs a forest and rebuilds routes, and a batched
	// flash crowd exercises the batch-apply path.
	ph := res.Live.Phases
	if ph.ConstructMs <= 0 || ph.BatchApplyMs <= 0 || ph.RouteRebuildMs <= 0 {
		t.Errorf("phase accounting incomplete: construct %.3f, batch-apply %.3f, route-rebuild %.3f",
			ph.ConstructMs, ph.BatchApplyMs, ph.RouteRebuildMs)
	}
	t.Logf("500 nodes batched: %d events, live mean %.1fms vs sim %.1fms, phases construct %.1f / batch %.1f / rebuild %.1f ms",
		res.Events, res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs,
		ph.ConstructMs, ph.BatchApplyMs, ph.RouteRebuildMs)
}

// TestRunClusterValidation covers config error paths.
func TestRunClusterValidation(t *testing.T) {
	ctx := context.Background()
	churn := workload.ChurnProfile{RatePerSec: 2, ViewChangeMix: 0.7}
	if _, err := RunCluster(ctx, ClusterConfig{
		Spec:     ClusterSpec{Spec: Spec{N: 4, CamerasPerSite: 1, Seed: 1}},
		Scenario: "no-such-scenario", Churn: churn,
	}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := RunCluster(ctx, ClusterConfig{
		Spec:  ClusterSpec{Spec: Spec{N: 1, CamerasPerSite: 1, Seed: 1}},
		Churn: churn,
	}); err == nil {
		t.Error("N=1 accepted")
	}
	// A zero churn profile must be rejected, never silently replaced:
	// the emitted records would otherwise claim churn_rate=0 for a run
	// that actually churned.
	if _, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{N: 4, CamerasPerSite: 1, Seed: 1}},
	}); err == nil {
		t.Error("zero churn profile accepted")
	}

	// A multi-tenant run rejects every knob it would otherwise ignore.
	tenants := workload.MultiTenantSpec{Classes: []workload.TenantClass{
		{Count: 2, SLO: workload.SLOBestEffort, Sites: 3},
	}}
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		want string
	}{
		{"non-steady scenario", ClusterConfig{Tenants: tenants, Churn: churn, Scenario: ScenarioPartition}, "scenario"},
		{"chaos schedule", ClusterConfig{Tenants: tenants, Churn: churn, ChaosSchedule: "300:latency-storm:2:100"}, "chaos"},
		{"Spec.N", ClusterConfig{Tenants: tenants, Churn: churn, Spec: ClusterSpec{Spec: Spec{N: 4}}}, "Spec.N"},
		{"negative uplink", ClusterConfig{Tenants: tenants, Churn: churn, UplinkCapacity: -1}, "uplink"},
	} {
		_, err := RunCluster(ctx, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with Tenants: err %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestDeliveredFraction pins the ratio, including the run with no
// gains: nothing to deliver, nothing lost, so everything was delivered.
func TestDeliveredFraction(t *testing.T) {
	for _, tc := range []struct {
		delivered, undelivered int
		want                   float64
	}{
		{0, 0, 1},
		{3, 1, 0.75},
		{0, 4, 0},
		{5, 0, 1},
	} {
		live := &LiveResult{DeliveredGained: tc.delivered, UndeliveredGained: tc.undelivered}
		if got := live.DeliveredFraction(); got != tc.want {
			t.Errorf("%d delivered, %d not: fraction %v, want %v", tc.delivered, tc.undelivered, got, tc.want)
		}
		if got := (&ClusterResult{Live: live}).DeliveredFraction(); got != tc.want {
			t.Errorf("cluster result fraction %v, want %v", got, tc.want)
		}
	}
}
