package experiments

// churn.go runs the mid-session view-dynamics experiment the paper's §6
// future work points at: assemble a full FOV-driven session, subject it
// to a seeded churn trace (view changes, joins, leaves), replay the trace
// through the event-driven simulator, and measure what the viewer
// experiences — disruption latency from a view change to the first frame
// of each newly needed stream — alongside the forest's rejection
// accounting. Samples run on the same parallel engine as the figure
// experiments: each sample is a pure function of (seed, sample index), so
// results are bit-identical at every Parallelism setting.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// ChurnPoint describes one churn experiment cell.
type ChurnPoint struct {
	// N is the number of sites. Required.
	N int
	// RatePerSec is the churn event rate. Required (> 0).
	RatePerSec float64
	// ViewChangeMix in [0,1] is the fraction of churn events that are
	// view changes; the rest split evenly between joins and leaves.
	ViewChangeMix float64
	// DurationMs is the simulated session length; 0 means 4000.
	DurationMs float64
	// CamerasPerSite sizes the rigs; 0 means the session default (8).
	CamerasPerSite int
	// Bandwidth is the per-site in/out budget in streams; 0 means the
	// session default (20).
	Bandwidth int
	// BcostMultiplier scales the median pairwise cost into the latency
	// bound; 0 means Config.BcostMultiplier.
	BcostMultiplier float64
	// Algorithm constructs the initial overlay; nil means overlay.RJ{}.
	Algorithm overlay.Algorithm
}

func (pt ChurnPoint) withDefaults(cfg Config) ChurnPoint {
	if pt.DurationMs == 0 {
		pt.DurationMs = 4000
	}
	if pt.BcostMultiplier == 0 {
		pt.BcostMultiplier = cfg.BcostMultiplier
	}
	if pt.Algorithm == nil {
		pt.Algorithm = overlay.RJ{}
	}
	return pt
}

// ChurnResult holds the sample-averaged churn metrics of one cell.
type ChurnResult struct {
	// Events is the mean number of applied churn events per sample;
	// ViewChanges the mean view-change subset.
	Events      float64
	ViewChanges float64
	// GainedAccepted / GainedRejected are the mean per-sample counts of
	// newly needed streams admitted / refused by the live forest.
	GainedAccepted float64
	GainedRejected float64
	// MeanDisruptionMs averages, over samples, the per-sample mean time
	// from an event to the first delivered frame of a newly needed
	// stream; MaxDisruptionMs is the worst disruption seen in any sample.
	MeanDisruptionMs float64
	MaxDisruptionMs  float64
	// DeliveredFraction is the mean fraction of accepted gained streams
	// that received at least one frame before session end.
	DeliveredFraction float64
	// FinalRejection is the mean rejection ratio of the post-churn forest
	// (rejected / (accepted + rejected)).
	FinalRejection float64
	// ConstructMs and BatchApplyMs are the per-phase wall-clock totals of
	// the cell, summed over the sample batch: ConstructMs covers session
	// assembly including the initial forest construction, BatchApplyMs the
	// mid-session churn mutations the simulator applied to the live
	// forest. Wall-clock measurements, outside the determinism contract.
	ConstructMs  float64
	BatchApplyMs float64
}

// churnObs is the observation one churn sample contributes.
type churnObs struct {
	events, viewChanges            float64
	gainedAccepted, gainedRejected float64
	meanDisruption, maxDisruption  float64
	deliveredFraction              float64
	finalRejection                 float64
	constructMs, batchApplyMs      float64
	hasDisruption, hasDelivered    bool
}

// churnSample evaluates one Monte-Carlo churn sample. Pure up to its
// deterministic per-sample RNGs, like runSampleMulti.
func (r *Runner) churnSample(pt ChurnPoint, s int) (churnObs, error) {
	var obs churnObs
	seed := r.cfg.Seed + int64(s)*1_000_003 + int64(pt.N)*7919
	constructStart := time.Now()
	sess, err := session.Build(session.Spec{
		N:               pt.N,
		CamerasPerSite:  pt.CamerasPerSite,
		InCap:           pt.Bandwidth,
		OutCap:          pt.Bandwidth,
		BcostMultiplier: pt.BcostMultiplier,
		Algorithm:       pt.Algorithm,
		Seed:            seed,
	})
	if err != nil {
		return obs, err
	}
	obs.constructMs = float64(time.Since(constructStart)) / float64(time.Millisecond)
	trace, err := sess.ChurnTrace(workload.ChurnProfile{
		RatePerSec:    pt.RatePerSec,
		ViewChangeMix: pt.ViewChangeMix,
	}, pt.DurationMs, rand.New(rand.NewSource(seed+271_828)))
	if err != nil {
		return obs, err
	}
	res, err := sim.RunEvents(sim.Config{
		Forest:     sess.Forest,
		Profile:    stream.DefaultProfile(),
		DurationMs: pt.DurationMs,
	}, trace)
	if err != nil {
		return obs, err
	}
	if err := sess.Forest.Validate(); err != nil {
		return obs, fmt.Errorf("experiments: churned forest invalid: %w", err)
	}
	obs.batchApplyMs = res.BatchApplyMs
	obs.events = float64(len(res.Events))
	var accepted, rejected int
	for _, out := range res.Events {
		if out.Kind == sim.EventViewChange {
			obs.viewChanges++
		}
		accepted += out.GainedAccepted
		rejected += out.GainedRejected
		if out.Skipped != 0 {
			return obs, fmt.Errorf("experiments: churn trace skipped %d ops at event %d", out.Skipped, out.Index)
		}
	}
	obs.gainedAccepted = float64(accepted)
	obs.gainedRejected = float64(rejected)
	if res.DeliveredGained > 0 {
		obs.meanDisruption = res.MeanDisruptionMs
		obs.maxDisruption = res.MaxDisruptionMs
		obs.hasDisruption = true
	}
	if accepted > 0 {
		obs.deliveredFraction = float64(res.DeliveredGained) / float64(accepted)
		obs.hasDelivered = true
	}
	if total := res.FinalAccepted + res.FinalRejected; total > 0 {
		obs.finalRejection = float64(res.FinalRejected) / float64(total)
	}
	return obs, nil
}

// ChurnExperiment evaluates one churn cell over the full sample batch on
// the parallel engine. The reduction folds samples in index order, so the
// result is byte-identical at every Config.Parallelism setting.
func (r *Runner) ChurnExperiment(pt ChurnPoint) (ChurnResult, error) {
	if pt.N < 2 {
		return ChurnResult{}, fmt.Errorf("experiments: churn N=%d < 2", pt.N)
	}
	if err := (workload.ChurnProfile{RatePerSec: pt.RatePerSec, ViewChangeMix: pt.ViewChangeMix}).Validate(); err != nil {
		return ChurnResult{}, err
	}
	pt = pt.withDefaults(r.cfg)
	obs := make([]churnObs, r.cfg.Samples)
	err := forEachSample(r.cfg.Samples, r.cfg.Parallelism, func(s int) error {
		o, err := r.churnSample(pt, s)
		if err != nil {
			return err
		}
		obs[s] = o
		return nil
	})
	if err != nil {
		return ChurnResult{}, err
	}
	var events, viewChanges, gainedAcc, gainedRej, meanDis, delivered, rejection metrics.Accumulator
	var maxDis, constructMs, batchApplyMs float64
	for _, o := range obs {
		events.Observe(o.events)
		viewChanges.Observe(o.viewChanges)
		gainedAcc.Observe(o.gainedAccepted)
		gainedRej.Observe(o.gainedRejected)
		rejection.Observe(o.finalRejection)
		constructMs += o.constructMs
		batchApplyMs += o.batchApplyMs
		if o.hasDisruption {
			meanDis.Observe(o.meanDisruption)
			maxDis = math.Max(maxDis, o.maxDisruption)
		}
		if o.hasDelivered {
			delivered.Observe(o.deliveredFraction)
		}
	}
	return ChurnResult{
		Events:            events.Mean(),
		ViewChanges:       viewChanges.Mean(),
		GainedAccepted:    gainedAcc.Mean(),
		GainedRejected:    gainedRej.Mean(),
		MeanDisruptionMs:  meanDis.Mean(),
		MaxDisruptionMs:   maxDis,
		DeliveredFraction: delivered.Mean(),
		FinalRejection:    rejection.Mean(),
		ConstructMs:       constructMs,
		BatchApplyMs:      batchApplyMs,
	}, nil
}

// ChurnSweep runs the churn experiment across session sizes N=4..10 and
// renders the viewer-experience metrics as figure-style series: mean and
// max disruption latency, the delivered fraction, and the final rejection
// ratio, all versus N.
func (r *Runner) ChurnSweep(rate, mix float64) ([]metrics.Series, error) {
	meanS := metrics.Series{Label: "mean disruption (ms)"}
	maxS := metrics.Series{Label: "max disruption (ms)"}
	delS := metrics.Series{Label: "delivered fraction"}
	rejS := metrics.Series{Label: "final rejection ratio"}
	for n := 4; n <= 10; n += 2 {
		res, err := r.ChurnExperiment(ChurnPoint{N: n, RatePerSec: rate, ViewChangeMix: mix})
		if err != nil {
			return nil, err
		}
		meanS.Add(float64(n), res.MeanDisruptionMs)
		maxS.Add(float64(n), res.MaxDisruptionMs)
		delS.Add(float64(n), res.DeliveredFraction)
		rejS.Add(float64(n), res.FinalRejection)
	}
	return []metrics.Series{meanS, maxS, delS, rejS}, nil
}
