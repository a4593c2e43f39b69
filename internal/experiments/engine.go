package experiments

// engine.go is the parallel experiment engine: a pure per-sample
// evaluation function (runSampleMulti) fanned out over a bounded worker
// pool (forEachSample), reduced in sample-index order so the output of a
// run is bit-identical at every Parallelism setting — including the old
// serial path, which is simply Parallelism 1.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/workload"
)

// Point describes one experiment cell: the workload and problem knobs
// evaluated over the Config.Samples batch. The zero value of every field
// falls back to the paper's calibrated setup, so figure code only sets
// the knobs its panel varies.
type Point struct {
	// N is the number of sites. Required.
	N int
	// Capacity selects the node resource distribution. Required.
	Capacity workload.CapacityKind
	// Popularity selects the subscription distribution. Required.
	Popularity workload.PopularityKind
	// ZipfExponent is the Zipf s parameter; 0 means 1.0.
	ZipfExponent float64
	// SubscribeFraction overrides the run-level calibrated fraction; 0
	// means Config.SubscribeFraction.
	SubscribeFraction float64
	// StreamsPerSite overrides the per-site camera count; 0 keeps the
	// capacity kind's default.
	StreamsPerSite int
	// Bandwidth overrides the per-site in/out budget in stream units; 0
	// keeps the capacity kind's default.
	Bandwidth int
	// BcostMultiplier overrides the latency-bound multiplier; 0 means
	// Config.BcostMultiplier.
	BcostMultiplier float64
	// CoverageRate is the coverage-pass probability; 0 means the
	// experiments calibration of 1.0 (every stream must be sent).
	CoverageRate float64
	// Reservation and JoinPolicy override the problem-level knobs; the
	// zero values are the paper defaults (rank-only, max-rfc).
	Reservation overlay.ReservationMode
	JoinPolicy  overlay.JoinPolicy
}

func (pt Point) withDefaults(cfg Config) Point {
	if pt.SubscribeFraction == 0 {
		pt.SubscribeFraction = cfg.SubscribeFraction
	}
	if pt.BcostMultiplier == 0 {
		pt.BcostMultiplier = cfg.BcostMultiplier
	}
	if pt.CoverageRate == 0 {
		pt.CoverageRate = 1.0
	}
	return pt
}

// PointResult holds the sample-averaged metrics of one cell.
type PointResult struct {
	// Rejection is the mean normalized rejection ratio (Equation 1).
	Rejection float64
	// WeightedRaw is the mean literal Equation 3 value.
	WeightedRaw float64
	// WeightedNorm is the mean normalized Equation 3 value.
	WeightedNorm float64
	// Utilization is the mean out-degree utilization (Figure 10).
	Utilization metrics.Utilization
	// ConstructMs is the total wall-clock time the cell spent in forest
	// construction, summed over the sample batch — the construct phase of
	// the maintenance pipeline's per-phase observability. Unlike every
	// other field it is a wall-clock measurement and therefore outside the
	// engine's bit-identical determinism contract.
	ConstructMs float64
}

// sampleObs is the observation one algorithm contributes to a
// runSampleMulti call.
type sampleObs struct {
	rejection    float64
	weightedRaw  float64
	weightedNorm float64
	util         metrics.Utilization
	constructMs  float64
}

// sampleScratch is the per-worker reusable state behind runSampleMulti:
// the selected site set (cost matrix included), the assembled problem,
// and the overlay construction workspace. A worker drains samples
// sequentially, so one scratch per in-flight sample (leased from the
// runner's pool) amortizes every N×N matrix and forest allocation across
// the batch without any cross-sample state leaking into results — each
// field is fully re-filled or reset before use.
type sampleScratch struct {
	sites   topology.SiteSet
	problem overlay.Problem
	ws      overlay.Workspace
}

// fillProblem assembles the overlay problem from a workload sample into
// p's reused storage; it mirrors overlay.FromWorkload without the fresh
// allocations (validation happens in the forest reset).
func fillProblem(p *overlay.Problem, w *workload.Workload, cost [][]float64, bcost float64) {
	n := w.N()
	if cap(p.In) >= n {
		p.In = p.In[:n]
		p.Out = p.Out[:n]
	} else {
		p.In = make([]int, n)
		p.Out = make([]int, n)
	}
	for i, s := range w.Sites {
		p.In[i] = s.In
		p.Out[i] = s.Out
	}
	p.Cost = cost
	p.Bcost = bcost
	p.Requests = p.Requests[:0]
	for i, subs := range w.Subs {
		for _, id := range subs {
			p.Requests = append(p.Requests, overlay.Request{Node: i, Stream: id})
		}
	}
}

// sampleInstance fills sc with sample s's site set and generates its
// workload. The instance rng is derived from (Config.Seed, sample index,
// pt.N) exactly as the historical serial loop derived it, and never
// depends on the algorithm under test — which is what lets one instance
// be shared by several algorithms as a paired comparison.
func (r *Runner) sampleInstance(sc *sampleScratch, pt Point, s int) (*workload.Workload, error) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(s)*1_000_003 + int64(pt.N)*7919))
	if err := r.backbone.SelectSitesInto(&sc.sites, r.allCost, pt.N, rng); err != nil {
		return nil, err
	}
	return workload.Generate(workload.Config{
		N:                 pt.N,
		Capacity:          pt.Capacity,
		Popularity:        pt.Popularity,
		Mode:              workload.ModeCoverage,
		CoverageRate:      pt.CoverageRate,
		ZipfExponent:      pt.ZipfExponent,
		SubscribeFraction: pt.SubscribeFraction,
		StreamsPerSite:    pt.StreamsPerSite,
		Bandwidth:         pt.Bandwidth,
	}, rng)
}

// runSampleMulti evaluates one Monte-Carlo sample of a cell for every
// algorithm in algs, generating the instance once. Each algorithm gets a
// fresh construction rng seeded Config.Seed+s — the same source a solo
// run would use — so observations are bit-identical to evaluating the
// algorithms in separate RunPoint calls, at a fraction of the workload-
// generation cost. Observations are delivered through emit(ai, obs) in
// algs order.
func (r *Runner) runSampleMulti(pt Point, algs []overlay.Algorithm, s int, emit func(ai int, o sampleObs)) error {
	sc := r.scratch.Get().(*sampleScratch)
	defer r.scratch.Put(sc)
	w, err := r.sampleInstance(sc, pt, s)
	if err != nil {
		return err
	}
	bcost := sc.sites.MedianCost() * pt.BcostMultiplier
	for ai, alg := range algs {
		p := &sc.problem
		fillProblem(p, w, sc.sites.Cost, bcost)
		p.Reservation = pt.Reservation
		p.JoinPolicy = pt.JoinPolicy
		constructStart := time.Now()
		f, err := overlay.ConstructWith(&sc.ws, alg, p, rand.New(rand.NewSource(r.cfg.Seed+int64(s))))
		if err != nil {
			return err
		}
		constructMs := float64(time.Since(constructStart)) / float64(time.Millisecond)
		if err := f.Validate(); err != nil {
			return fmt.Errorf("experiments: %s produced invalid forest: %w", alg.Name(), err)
		}
		emit(ai, sampleObs{
			rejection:    metrics.Rejection(f),
			weightedRaw:  metrics.WeightedRejectionRaw(f),
			weightedNorm: metrics.WeightedRejection(f),
			util:         metrics.MeasureUtilization(f),
			constructMs:  constructMs,
		})
	}
	return nil
}

// RunPoint evaluates a cell for one algorithm: RunPointMulti with algs
// of length one.
func (r *Runner) RunPoint(pt Point, alg overlay.Algorithm) (PointResult, error) {
	res, err := r.RunPointMulti(pt, []overlay.Algorithm{alg})
	if err != nil {
		return PointResult{}, err
	}
	return res[0], nil
}

// RunPointMulti evaluates a cell for several algorithms over the same
// sample batch. Each sample's site set and workload are generated once
// and presented to every algorithm (the paired comparison the paper's
// figures rely on), so a four-algorithm sweep pays the workload cost
// once instead of four times. Results are returned in algs order and are
// the same at every worker count: samples fan out across
// Config.Parallelism workers, and each algorithm's observations are
// folded in sample-index order, whatever order the workers finished in.
func (r *Runner) RunPointMulti(pt Point, algs []overlay.Algorithm) ([]PointResult, error) {
	pt = pt.withDefaults(r.cfg)
	if len(algs) == 0 {
		return nil, nil
	}
	obs := make([][]sampleObs, len(algs))
	for i := range obs {
		obs[i] = make([]sampleObs, r.cfg.Samples)
	}
	err := forEachSample(r.cfg.Samples, r.cfg.Parallelism, func(s int) error {
		return r.runSampleMulti(pt, algs, s, func(ai int, o sampleObs) { obs[ai][s] = o })
	})
	if err != nil {
		return nil, err
	}
	out := make([]PointResult, len(algs))
	for i := range algs {
		var rej, wraw, wnorm metrics.Accumulator
		var util metrics.UtilizationAccumulator
		var constructMs float64
		for _, o := range obs[i] {
			rej.Observe(o.rejection)
			wraw.Observe(o.weightedRaw)
			wnorm.Observe(o.weightedNorm)
			util.Observe(o.util)
			constructMs += o.constructMs
		}
		out[i] = PointResult{
			Rejection:    rej.Mean(),
			WeightedRaw:  wraw.Mean(),
			WeightedNorm: wnorm.Mean(),
			Utilization:  util.Mean(),
			ConstructMs:  constructMs,
		}
	}
	return out, nil
}

// forEachSample invokes fn for every sample index in [0, samples) from a
// pool of up to parallelism goroutines. On failure the lowest-index error
// observed is returned and remaining samples are abandoned as soon as
// workers notice.
func forEachSample(samples, parallelism int, fn func(s int) error) error {
	if samples <= 0 {
		return nil
	}
	if parallelism > samples {
		parallelism = samples
	}
	if parallelism <= 1 {
		for s := 0; s < samples; s++ {
			if err := fn(s); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		errIdx  int
		firstEr error
		wg      sync.WaitGroup
	)
	record := func(s int, err error) {
		mu.Lock()
		if firstEr == nil || s < errIdx {
			errIdx, firstEr = s, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= samples || failed.Load() {
					return
				}
				if err := fn(s); err != nil {
					record(s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}
