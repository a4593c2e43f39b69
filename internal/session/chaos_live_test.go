package session

// chaos_live_test.go exercises the chaos injector through the cluster
// driver: a composed fault schedule (RP crash + rejoin, latency storm,
// membership shard restart) runs against a live virtual cluster, every
// fault must be absorbed with bounded recovery, and the resolved
// schedule must be byte-identical across reruns — chaos runs are
// reproducible by construction.

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// chaosRecoveryBoundMs is the stated bound on any single fault's
// recovery: a crashed RP's rejoin must hold routes again, and a killed
// membership shard's successor must assemble the full cluster, inside
// it.
// Wide enough for scheduler noise on a loaded machine, and finite —
// which is the property under test: every injected fault must cost a
// bounded spike, never the session.
const chaosRecoveryBoundMs = 4000

// smallChaosSchedule composes all three fault families in one run:
// an RP crash whose rejoin lands mid-storm, and a membership shard
// restart after the fleet is whole again (a successor waits for
// every site to re-register, so restart windows must not overlap crash
// windows).
const smallChaosSchedule = "300:rp-crash:rand;450:latency-storm:2:300;900:rp-rejoin:last;1250:membership-restart:0"

// runSmallChaos runs the 10-site chaos drill once.
func runSmallChaos(t *testing.T) *ClusterResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 10, CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 23,
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs:      1800,
		Scenario:        ScenarioChaos,
		Churn:           workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
		Shards:          2,
		FlushIntervalMs: 5,
		ChaosSchedule:   smallChaosSchedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunClusterChaosScenario is the small always-on drill: a 10-site,
// 2-shard cluster absorbs a crash, a rejoin landing mid-storm, and a
// membership restart. Runs in short mode and under the race detector,
// so `make race` exercises the whole injection path: node-set swap,
// admission release/re-admission, in-place membership restart.
func TestRunClusterChaosScenario(t *testing.T) {
	res := runSmallChaos(t)
	if res.Scenario != ScenarioChaos {
		t.Fatalf("ran scenario %q", res.Scenario)
	}
	if res.Live.ChaosEvents != 4 {
		t.Fatalf("chaos events = %d, want 4", res.Live.ChaosEvents)
	}
	for _, o := range res.Live.Chaos {
		if o.Err != "" {
			t.Errorf("chaos %s at %.0fms failed: %s", o.Event.Kind, o.Event.AtMs, o.Err)
		}
	}
	if res.Live.ChaosRecoveryMs <= 0 || res.Live.ChaosRecoveryMs > chaosRecoveryBoundMs {
		t.Errorf("worst chaos recovery %.1f ms outside (0, %d]",
			res.Live.ChaosRecoveryMs, chaosRecoveryBoundMs)
	}
	if res.Live.Retries == 0 {
		t.Error("no retries recorded — the crash and restart should have forced redials")
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("cluster delivered no frames through the schedule")
	}
	if res.ChaosSchedule == "" {
		t.Fatal("no resolved schedule recorded")
	}
	if strings.Contains(res.ChaosSchedule, "rand") || strings.Contains(res.ChaosSchedule, "last") {
		t.Fatalf("schedule %q still has symbolic targets", res.ChaosSchedule)
	}
	t.Logf("10 nodes, 2 shards, chaos %q: worst recovery %.1fms, %d retries, %d frames",
		res.ChaosSchedule, res.Live.ChaosRecoveryMs, res.Live.Retries, res.Live.TotalFrames)
}

// TestChaosScheduleDeterministic reruns the identical config and
// demands the byte-identical resolved schedule and fault count: same
// schedule + same seed must reproduce the same injected faults.
func TestChaosScheduleDeterministic(t *testing.T) {
	a := runSmallChaos(t)
	b := runSmallChaos(t)
	if a.ChaosSchedule != b.ChaosSchedule {
		t.Fatalf("resolved schedules diverged:\n  %q\n  %q", a.ChaosSchedule, b.ChaosSchedule)
	}
	if a.Live.ChaosEvents != b.Live.ChaosEvents {
		t.Fatalf("chaos event counts diverged: %d vs %d", a.Live.ChaosEvents, b.Live.ChaosEvents)
	}
}

// TestChaosScheduleBoundedRecovery is the scale acceptance test for the
// chaos subsystem: a 1,000-site, 2-shard cluster absorbs a composed
// schedule — an RP crash, a fabric-wide latency storm, the crashed
// site's rejoin landing inside the storm window, and a membership shard
// restart — while a churn trace replays over the wire. Every fault's
// recovery must stay under chaosRecoveryBoundMs, no session may die
// permanently (frames and gains keep flowing), live-vs-sim mean
// disruption must stay within LiveSimToleranceMs (the simulator does
// not model faults, so staying within tolerance IS the robustness
// claim), and the resolved schedule must be reproducible byte for byte.
func TestChaosScheduleBoundedRecovery(t *testing.T) {
	if raceEnabled {
		t.Skip("1000-node cluster under the race detector: covered at 100 nodes by CI chaos-smoke")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const schedule = "400:rp-crash:rand;800:latency-storm:3:500;1000:rp-rejoin:last;1500:membership-restart:1"
	cfg := ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 1000, CamerasPerSite: 1, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 17,
		}},
		// 5 fps keeps the 1,000-site data plane inside a single core's
		// budget, matching the sharded-failover acceptance test.
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 5, CompressionRatio: 8},
		DurationMs:      2500,
		Scenario:        ScenarioChaos,
		Churn:           workload.ChurnProfile{RatePerSec: 6, ViewChangeMix: 0.8},
		Shards:          2,
		FlushIntervalMs: 5,
		ChaosSchedule:   schedule,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites != 1000 {
		t.Fatalf("ran %d sites, want 1000", res.Sites)
	}
	if res.Live.ChaosEvents != 4 {
		t.Fatalf("chaos events = %d, want 4", res.Live.ChaosEvents)
	}
	for _, o := range res.Live.Chaos {
		if o.Err != "" {
			t.Errorf("chaos %s at %.0fms failed: %s", o.Event.Kind, o.Event.AtMs, o.Err)
		}
		if o.RecoveryMs > chaosRecoveryBoundMs {
			t.Errorf("chaos %s at %.0fms: recovery %.1f ms exceeds the %d ms bound",
				o.Event.Kind, o.Event.AtMs, o.RecoveryMs, chaosRecoveryBoundMs)
		}
	}
	if res.Live.ChaosRecoveryMs <= 0 {
		t.Error("no recovery latency recorded")
	}
	if res.Live.Retries == 0 {
		t.Error("no retries recorded through crash, storm and restart")
	}
	// Zero permanently dead sessions: the cluster keeps delivering after
	// every fault — frames flowed and churn gains were delivered.
	if res.Live.TotalFrames == 0 {
		t.Fatal("cluster delivered no frames through the schedule")
	}
	if res.Live.DeliveredGained == 0 || res.Sim.DeliveredGained == 0 {
		t.Fatalf("delivered gains: live %d, sim %d — trace too quiet to compare",
			res.Live.DeliveredGained, res.Sim.DeliveredGained)
	}
	diff := math.Abs(res.Live.MeanDisruptionMs - res.Sim.MeanDisruptionMs)
	if diff > LiveSimToleranceMs {
		t.Errorf("chaos live mean disruption %.1fms vs sim %.1fms: |diff| %.1f exceeds %dms",
			res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs, diff, LiveSimToleranceMs)
	}
	// Reproducibility: resolving the same schedule against the same
	// (seed, shape) must reproduce the run's recorded schedule byte for
	// byte — the record column is a replayable artifact, not a log line.
	parsed, err := chaos.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := parsed.Resolve(cfg.Spec.Seed, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := resolved.String(); got != res.ChaosSchedule {
		t.Fatalf("re-resolved schedule %q != recorded %q", got, res.ChaosSchedule)
	}
	t.Logf("1000 nodes, 2 shards, chaos %q: %d events, worst recovery %.1fms, live mean %.1fms (max %.1f), sim mean %.1fms, %d retries, %d frames",
		res.ChaosSchedule, res.Events, res.Live.ChaosRecoveryMs,
		res.Live.MeanDisruptionMs, res.Live.MaxDisruptionMs,
		res.Sim.MeanDisruptionMs, res.Live.Retries, res.Live.TotalFrames)
}
