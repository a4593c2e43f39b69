package main

// cluster.go is the end-to-end rung: session.RunCluster hosting 100 sites
// on emulated WAN links, frames paced at 15 fps by the program itself (an
// open loop) while a flash crowd of view changes competes for the same
// nodes. It runs far below saturation, so it measures latency — the
// paper's disruption latency — and the CPU cost of hosting the session.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/workload"
)

const (
	flashSites      = 100
	flashDurationMs = 15000
	flashDrainMs    = 400
	flashScenario   = "flash-crowd"
	// A one-second session first: it warms the runtime, and it gives
	// setup_s a body. Without it set-up is the 0.2 s by which the call
	// outlasts its session, a difference of two large numbers that moves
	// by a third with the host's mood.
	flashWarmMs      = 1000
	flashWarmDrainMs = 100
)

func flashConfig(cfg runCfg) session.ClusterConfig {
	return session.ClusterConfig{
		Spec: session.ClusterSpec{Spec: session.Spec{
			N: flashSites, CamerasPerSite: 8, DisplaysPerSite: 2, Seed: cfg.seed,
		}},
		DurationMs: float64(cfg.scaled(flashDurationMs)),
		DrainMs:    flashDrainMs,
		Scenario:   flashScenario,
		Churn:      workload.ChurnProfile{RatePerSec: 8, ViewChangeMix: 0.7},
		Shards:     1,
	}
}

func runClusterFlash(ctx context.Context, cfg runCfg) (*work, error) {
	cc := flashConfig(cfg)
	sessionS := (cc.DurationMs + cc.DrainMs) / 1000

	warm := cc
	warm.DurationMs, warm.DrainMs = flashWarmMs, flashWarmDrainMs
	var warmErr error
	cfg.tr.time(0, "setup", func() { _, warmErr = session.RunCluster(ctx, warm) })
	if warmErr != nil {
		return nil, fmt.Errorf("cluster warm-up: %w", warmErr)
	}

	watch := watchGoroutines(cfg.tr)
	// RunCluster builds, boots, runs and tears down in one call, so the
	// window is the whole call: set-up is its wall time beyond the
	// session's own length, and the CPU and allocation counts include
	// the boot (a few percent of the session's).
	var res *session.ClusterResult
	var err error
	callStart := time.Now()
	m := startMeter()
	call := cfg.tr.begin(0, "session.RunCluster")
	res, err = session.RunCluster(ctx, cc)
	cfg.tr.finish(call)
	use := m.stop()
	if err != nil {
		return nil, err
	}
	callS := use.wallS
	use.setupS += callS - sessionS
	use.wallS = sessionS

	live, pred := res.Live, res.Sim
	var lat []float64
	var unapplied int64
	for _, e := range live.Events {
		if e.Epoch == 0 {
			unapplied++ // the resubscribe never reached the control plane
		}
		if e.DeliveredGained > 0 {
			lat = append(lat, e.MaxDisruptionMs)
		}
	}
	w := &work{
		ops: float64(live.TotalFrames),
		lat: lat,
		use: use,
		digest: fmt.Sprintf("sites=%d cameras=8 displays=2 scenario=%s churn=8/s mix=0.7 duration=%.0fms drain=%dms events=%d sim_gains=%d",
			flashSites, flashScenario, cc.DurationMs, flashDrainMs, res.Events, pred.DeliveredGained),
		counts: map[string]int64{
			"control_events":      int64(res.Events),
			"sim_delivered_gains": int64(pred.DeliveredGained),
			"sim_total_frames":    int64(pred.TotalFrames),
		},
		attempted: int64(res.Events),
		failed:    unapplied,
		callWallS: callS,
	}
	gap := live.MeanDisruptionMs - pred.MeanDisruptionMs
	w.check("live_matches_sim", math.Abs(gap) <= session.LiveSimToleranceMs,
		"live mean %.1f ms vs sim %.1f ms (tolerance %d)", live.MeanDisruptionMs, pred.MeanDisruptionMs, session.LiveSimToleranceMs)
	w.check("gains_delivered", float64(live.DeliveredGained) >= 0.97*float64(pred.DeliveredGained),
		"live delivered %d gains, sim %d", live.DeliveredGained, pred.DeliveredGained)
	w.check("nothing_dropped", live.TotalDropped == 0, "%d frames dropped", live.TotalDropped)
	w.check("every_event_applied", unapplied == 0, "%d of %d events not applied", unapplied, res.Events)
	w.check("disruption_samples", len(lat) > 0, "no event delivered a gained stream")
	if cfg.tr == nil {
		return w, nil
	}

	phaseChildren(cfg.tr, call, callStart, membership.PhaseStats{}, live.Phases)
	cfg.tr.child(call, "membership.construct", callStart,
		time.Duration((live.Phases.BatchApplyMs+live.Phases.RouteRebuildMs)*float64(time.Millisecond)),
		time.Duration(live.Phases.ConstructMs*float64(time.Millisecond)))
	w.layers = map[string]float64{
		"session.live_minus_sim_ms":       gap,
		"session.frames_delivered":        float64(live.TotalFrames),
		"session.delivered_gain_fraction": res.DeliveredFraction(),
		"session.retries":                 float64(live.Retries),
		"membership.construct_ms":         live.Phases.ConstructMs,
	}
	procLayers(w.layers, use, watch.stop())
	// The set-up RunCluster does before its first frame, step by step on
	// the same inputs.
	probes := cfg.tr.begin(0, "probes")
	defer cfg.tr.finish(probes)
	var s *session.Session
	d := cfg.tr.time(probes, "session.BuildCluster", func() { s, err = session.BuildCluster(cc.Spec) })
	if err != nil {
		return nil, err
	}
	w.layers["session.build_cluster_s"] = d.Seconds()
	sc, err := session.ScenarioByName(flashScenario)
	if err != nil {
		return nil, err
	}
	var plan session.ScenarioPlan
	d = cfg.tr.time(probes, "session.Scenario.Plan", func() {
		plan, err = sc.Plan(s, cc, rand.New(rand.NewSource(cfg.seed)))
	})
	if err != nil {
		return nil, err
	}
	w.layers["session.plan_ms"] = float64(d) / float64(time.Millisecond)
	d = cfg.tr.time(probes, "session.SimPrediction", func() {
		_, err = s.SimPrediction(session.LiveConfig{Profile: smallProfile(), DurationMs: cc.DurationMs, Seed: cfg.seed}, plan.Trace)
	})
	if err != nil {
		return nil, err
	}
	w.layers["sim.prediction_ms"] = float64(d) / float64(time.Millisecond)
	return w, nil
}
