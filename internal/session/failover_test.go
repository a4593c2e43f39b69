package session

// failover_test.go exercises the sharded membership control plane
// through the cluster driver: a sharded steady-state run must keep
// live-vs-sim parity (sharding is transparent when nothing fails), and
// killing one shard's server mid-churn must resolve to a bounded
// disruption spike through re-registration with its successor.

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// failoverDisruptionBoundMs is the stated bound on the worst per-event
// disruption latency through a mid-churn membership failover: detection
// of the dead control link, re-registration at the shard's address,
// shard resync and the re-routed first frame must all complete inside
// it. It is wide enough for scheduler noise on a loaded test machine,
// and finite — which is the property under test: a crash must cost a
// spike, not the session.
const failoverDisruptionBoundMs = 2500

// TestRunClusterFailoverScenario is the small always-on drill: a
// 10-site, 2-shard cluster loses shard 1's server mid-flash-crowd and
// every RP must recover through its successor. Runs in short mode and
// under the race detector, so `make race` exercises the whole failover
// path.
func TestRunClusterFailoverScenario(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 10, CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 23,
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs:      1200,
		Scenario:        ScenarioFailover,
		Churn:           workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
		Shards:          2,
		FlushIntervalMs: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != ScenarioFailover {
		t.Fatalf("ran scenario %q", res.Scenario)
	}
	if res.Live.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly the killed shard", res.Live.Failovers)
	}
	if res.Live.FailoverRecoveryMs <= 0 {
		t.Error("no recovery latency recorded")
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("cluster delivered no frames through the failover")
	}
	if res.Events == 0 || len(res.Live.Events) != res.Events {
		t.Fatalf("events: %d in trace, %d outcomes", res.Events, len(res.Live.Events))
	}
	if res.Live.MaxDisruptionMs > failoverDisruptionBoundMs {
		t.Errorf("max disruption %.1f ms exceeds the %d ms failover bound",
			res.Live.MaxDisruptionMs, failoverDisruptionBoundMs)
	}
	// The preset is a chaos membership restart of shard 1 at 0.3 of the
	// session, so its takeover shows in the chaos accounting.
	if want := "360:membership-restart:1"; res.ChaosSchedule != want {
		t.Fatalf("chaos schedule %q, want %q", res.ChaosSchedule, want)
	}
	if res.Live.ChaosEvents != 1 || res.Live.ChaosRecoveryMs <= 0 {
		t.Fatalf("chaos: %d event(s), worst recovery %v ms; want 1 takeover",
			res.Live.ChaosEvents, res.Live.ChaosRecoveryMs)
	}
}

// TestRunClusterFailoverComposesWithChaosRestart runs the failover
// preset together with a caller-scheduled restart of the same shard:
// the two restarts join one schedule, each boots a successor at the
// shard's address, and the cluster recovers twice.
func TestRunClusterFailoverComposesWithChaosRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 10, CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 23,
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
		DurationMs:      1200,
		Scenario:        ScenarioFailover,
		Churn:           workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
		Shards:          2,
		FlushIntervalMs: 5,
		ChaosSchedule:   "900:membership-restart:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "360:membership-restart:1;900:membership-restart:1"; res.ChaosSchedule != want {
		t.Fatalf("chaos schedule %q, want %q", res.ChaosSchedule, want)
	}
	if res.Live.Failovers != 1 || res.Live.ChaosEvents != 2 {
		t.Fatalf("failovers = %d over %d chaos event(s), want shard 1 restarted twice",
			res.Live.Failovers, res.Live.ChaosEvents)
	}
	for _, o := range res.Live.Chaos {
		if o.Err != "" || o.RecoveryMs <= 0 {
			t.Errorf("restart at %.0f ms: recovery %.1f ms, err %q", o.Event.AtMs, o.RecoveryMs, o.Err)
		}
	}
	if res.Live.TotalFrames == 0 {
		t.Fatal("cluster delivered no frames through the restarts")
	}
}

// TestShardedFailoverBoundedDisruption is the scale acceptance test for
// the sharded control plane: a 1,000-site cluster with two membership
// shards. In steady state (no failover) the sharded plane must be
// transparent — live disruption matches the event-driven simulator
// within LiveSimToleranceMs, exactly like the single-server 500-node
// test. Then the same cluster size runs the failover scenario: one
// shard's primary dies in the middle of a flash crowd and the worst
// per-event disruption must stay under failoverDisruptionBoundMs.
func TestShardedFailoverBoundedDisruption(t *testing.T) {
	if raceEnabled {
		t.Skip("1000-node cluster under the race detector: covered at 10 nodes by TestRunClusterFailoverScenario and at 100 nodes by CI chaos-smoke")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	// 5 fps keeps the 1,000-site data plane inside a single core's budget
	// (the live plane holds 15 fps cadence at ~500 sites per core; see
	// README). The frame interval enters live and sim disruption alike,
	// so parity is still measured apples to apples.
	base := ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 1000, CamerasPerSite: 1, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 17,
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 5, CompressionRatio: 8},
		DurationMs:      2500,
		Churn:           workload.ChurnProfile{RatePerSec: 6, ViewChangeMix: 0.8},
		Shards:          2,
		FlushIntervalMs: 5,
	}

	t.Run("steady-state-parity", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		cfg := base
		cfg.Scenario = ScenarioSteadyChurn
		res, err := RunCluster(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sites != 1000 {
			t.Fatalf("ran %d sites, want 1000", res.Sites)
		}
		if res.Live.Failovers != 0 {
			t.Fatalf("healthy run recorded %d failovers", res.Live.Failovers)
		}
		if res.Live.DeliveredGained == 0 || res.Sim.DeliveredGained == 0 {
			t.Fatalf("delivered gains: live %d, sim %d — trace too quiet to compare",
				res.Live.DeliveredGained, res.Sim.DeliveredGained)
		}
		diff := math.Abs(res.Live.MeanDisruptionMs - res.Sim.MeanDisruptionMs)
		if diff > LiveSimToleranceMs {
			t.Errorf("sharded live mean disruption %.1fms vs sim %.1fms: |diff| %.1f exceeds %dms",
				res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs, diff, LiveSimToleranceMs)
		}
		t.Logf("1000 nodes, 2 shards, steady: %d events, live mean %.1fms (max %.1f), sim mean %.1fms, %d frames",
			res.Events, res.Live.MeanDisruptionMs, res.Live.MaxDisruptionMs,
			res.Sim.MeanDisruptionMs, res.Live.TotalFrames)
	})

	t.Run("mid-churn-failover", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		cfg := base
		cfg.Scenario = ScenarioFailover
		res, err := RunCluster(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Live.Failovers != 1 {
			t.Fatalf("failovers = %d, want exactly the killed shard", res.Live.Failovers)
		}
		if res.Live.FailoverRecoveryMs <= 0 || res.Live.FailoverRecoveryMs > failoverDisruptionBoundMs {
			t.Errorf("failover recovery %.1f ms outside (0, %d]",
				res.Live.FailoverRecoveryMs, failoverDisruptionBoundMs)
		}
		if res.Live.TotalFrames == 0 {
			t.Fatal("cluster delivered no frames through the failover")
		}
		if res.Live.DeliveredGained == 0 {
			t.Fatal("no gains delivered — disruption unmeasured")
		}
		// The acceptance property: a membership crash mid-churn costs a
		// bounded spike. Every delivered gain's disruption is finite by
		// construction; the worst one must stay under the stated bound.
		if res.Live.MaxDisruptionMs > failoverDisruptionBoundMs {
			t.Errorf("max disruption %.1f ms exceeds the %d ms failover bound",
				res.Live.MaxDisruptionMs, failoverDisruptionBoundMs)
		}
		t.Logf("1000 nodes, 2 shards, failover: %d events, live mean %.1fms (max %.1f), recovery %.1fms, %d frames",
			res.Events, res.Live.MeanDisruptionMs, res.Live.MaxDisruptionMs,
			res.Live.FailoverRecoveryMs, res.Live.TotalFrames)
	})
}
