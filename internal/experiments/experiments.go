// Package experiments reproduces every figure of the paper's evaluation
// (§5) on the reconstructed substrates: the Figure 8 rejection-ratio
// sweeps, the Figure 9 granularity analysis, the Figure 10 load-balancing
// measurements, and the Figure 11 correlation (CO-RJ) comparison, plus the
// §1 capacity table and two ablations on design choices DESIGN.md calls
// out (the reservation mode and the join policy).
//
// All runners share one calibrated configuration (see EXPERIMENTS.md,
// "Calibration"): coverage-mode workloads with SubscribeFraction 0.12 on
// the geographic backbone topology, latency bound 3× the median pairwise
// cost, and 200 samples per point.
//
// Evaluation is driven by a parallel engine (engine.go): each Monte-Carlo
// sample is a pure function of (Config.Seed, sample index), fanned out
// across Config.Parallelism workers and reduced in sample-index order, so
// results are bit-identical at every worker count. RunPoint exposes the
// engine directly for grid sweeps (cmd/tisweep).
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/tele3d/tele3d/internal/geo"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Samples per data point; the paper uses 200. 0 means 200.
	Samples int
	// Seed makes the whole run reproducible. 0 means 1.
	Seed int64
	// SubscribeFraction overrides the calibrated workload density; 0
	// means the calibrated 0.12.
	SubscribeFraction float64
	// BcostMultiplier scales the median pairwise cost into the latency
	// bound; 0 means the calibrated 3.0.
	BcostMultiplier float64
	// Parallelism is the number of worker goroutines evaluating samples.
	// 0 means runtime.GOMAXPROCS(0); 1 is the serial path. Results are
	// bit-identical at every setting.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Samples == 0 {
		c.Samples = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SubscribeFraction == 0 {
		c.SubscribeFraction = 0.12
	}
	if c.BcostMultiplier == 0 {
		c.BcostMultiplier = 3.0
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Runner owns the shared backbone topology, its precomputed all-pairs
// cost matrix, and a pool of per-worker scratch spaces that amortize the
// per-sample allocations (site selection, problem assembly, forest
// construction) across the whole Monte-Carlo batch.
type Runner struct {
	cfg      Config
	backbone *topology.Graph
	allCost  [][]float64
	scratch  sync.Pool
}

// NewRunner builds a runner over the default backbone.
func NewRunner(cfg Config) (*Runner, error) {
	g, err := topology.Backbone(geo.DefaultLatencyModel())
	if err != nil {
		return nil, err
	}
	allCost, err := g.CostMatrix()
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg.withDefaults(), backbone: g, allCost: allCost}
	r.scratch.New = func() any { return new(sampleScratch) }
	return r, nil
}

// Fig8Variant names one of the four subfigures of Figure 8.
type Fig8Variant string

// The four Figure 8 panels.
const (
	Fig8a Fig8Variant = "8a" // Zipf workload, heterogeneous nodes
	Fig8b Fig8Variant = "8b" // Zipf workload, uniform nodes
	Fig8c Fig8Variant = "8c" // random workload, heterogeneous nodes
	Fig8d Fig8Variant = "8d" // random workload, uniform nodes
)

func (v Fig8Variant) kinds() (workload.CapacityKind, workload.PopularityKind, error) {
	switch v {
	case Fig8a:
		return workload.CapacityHeterogeneous, workload.PopularityZipf, nil
	case Fig8b:
		return workload.CapacityUniform, workload.PopularityZipf, nil
	case Fig8c:
		return workload.CapacityHeterogeneous, workload.PopularityRandom, nil
	case Fig8d:
		return workload.CapacityUniform, workload.PopularityRandom, nil
	default:
		return 0, 0, fmt.Errorf("experiments: unknown Figure 8 variant %q", v)
	}
}

// Fig8 reproduces one panel of Figure 8: average rejection ratio versus
// the number of sites (3..10) for STF, LTF, MCTF and RJ.
func (r *Runner) Fig8(v Fig8Variant) ([]metrics.Series, error) {
	capk, popk, err := v.kinds()
	if err != nil {
		return nil, err
	}
	algs := overlay.Algorithms()
	out := make([]metrics.Series, len(algs))
	for i, alg := range algs {
		out[i] = metrics.Series{Label: alg.Name()}
	}
	// One instance batch per N, shared by all four algorithms: the same
	// paired comparison as running them separately, at a quarter of the
	// workload-generation cost.
	for n := 3; n <= 10; n++ {
		results, err := r.RunPointMulti(Point{N: n, Capacity: capk, Popularity: popk}, algs)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			out[i].Add(float64(n), res.Rejection)
		}
	}
	return out, nil
}

// Fig9 reproduces the granularity analysis of Figure 9: average rejection
// ratio of Gran-LTF at N=10 under random workload and uniform nodes, as
// the granularity g sweeps from 1 (LTF) toward F (RJ).
func (r *Runner) Fig9() (metrics.Series, error) {
	s := metrics.Series{Label: "Gran-LTF"}
	// All ten granularities evaluate the identical cell, so they share
	// one instance batch as a ten-way multi-algorithm run.
	grans := []int{1, 2, 5, 10, 20, 40, 70, 100, 150, 200}
	algs := make([]overlay.Algorithm, len(grans))
	for i, g := range grans {
		algs[i] = overlay.GranLTF{G: g}
	}
	results, err := r.RunPointMulti(Point{N: 10, Capacity: workload.CapacityUniform,
		Popularity: workload.PopularityRandom}, algs)
	if err != nil {
		return s, err
	}
	for i, g := range grans {
		s.Add(float64(g), results[i].Rejection)
	}
	return s, nil
}

// Fig10 reproduces the load-balancing measurements of Figure 10: RJ's
// average out-degree utilization and the fraction of out-degree used for
// relaying, for N = 4..20 under random workload and uniform nodes. The
// third series carries the per-sample standard deviation of utilization
// (the paper reports it stays below 3%).
func (r *Runner) Fig10() ([]metrics.Series, error) {
	util := metrics.Series{Label: "average out-degree utilization"}
	relay := metrics.Series{Label: "average fraction used for relaying"}
	sd := metrics.Series{Label: "stddev of out-degree utilization"}
	for n := 4; n <= 20; n += 2 {
		res, err := r.RunPoint(Point{N: n, Capacity: workload.CapacityUniform,
			Popularity: workload.PopularityRandom}, overlay.RJ{})
		if err != nil {
			return nil, err
		}
		util.Add(float64(n), res.Utilization.MeanOut)
		relay.Add(float64(n), res.Utilization.RelayFraction)
		sd.Add(float64(n), res.Utilization.StdDevOut)
	}
	return []metrics.Series{util, relay, sd}, nil
}

// Fig11 reproduces the correlation experiment of Figure 11: the
// correlation-weighted rejection ratio X′ (Equation 3) of RJ versus CO-RJ
// under Zipf workload and heterogeneous nodes, N = 3..10. The workload
// uses the site-skewed Zipf variant so per-pair subscription counts
// u_{i→j} spread widely — the regime the criticality optimization
// exploits. Values are the literal Equation 3 averaged over samples.
func (r *Runner) Fig11() ([]metrics.Series, error) {
	// Denser fill than Fig. 8 so criticality classes are well populated.
	frac := r.cfg.SubscribeFraction + 0.08
	algs := []overlay.Algorithm{overlay.RJ{}, overlay.CORJ{}}
	out := make([]metrics.Series, len(algs))
	for i, alg := range algs {
		out[i] = metrics.Series{Label: alg.Name()}
	}
	for n := 3; n <= 10; n++ {
		results, err := r.RunPointMulti(Point{N: n, Capacity: workload.CapacityHeterogeneous,
			Popularity: workload.PopularityZipfSites, ZipfExponent: 1.6, SubscribeFraction: frac}, algs)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			out[i].Add(float64(n), res.WeightedRaw)
		}
	}
	return out, nil
}

// AblationReservation measures the rejection cost of the three readings
// of the reservation mechanism at N=10 (random workload, uniform nodes),
// for LTF and RJ.
func (r *Runner) AblationReservation() ([]metrics.Series, error) {
	modes := []overlay.ReservationMode{
		overlay.ReservationRankOnly, overlay.ReservationBlocking, overlay.ReservationOff,
	}
	var out []metrics.Series
	for _, alg := range []overlay.Algorithm{overlay.LTF{}, overlay.RJ{}} {
		s := metrics.Series{Label: alg.Name()}
		for mi, mode := range modes {
			res, err := r.RunPoint(Point{N: 10, Capacity: workload.CapacityUniform,
				Popularity: workload.PopularityRandom, Reservation: mode,
				JoinPolicy: overlay.PolicyMaxRFC}, alg)
			if err != nil {
				return nil, err
			}
			s.Add(float64(mi), res.Rejection)
		}
		out = append(out, s)
	}
	return out, nil
}

// AblationJoinPolicy compares the two parent-selection readings of the
// Appendix pseudocode at N=10 for RJ.
func (r *Runner) AblationJoinPolicy() ([]metrics.Series, error) {
	var out []metrics.Series
	for _, pol := range []overlay.JoinPolicy{overlay.PolicyMaxRFC, overlay.PolicyRelayFirst} {
		s := metrics.Series{Label: pol.String()}
		res, err := r.RunPoint(Point{N: 10, Capacity: workload.CapacityUniform,
			Popularity: workload.PopularityRandom, Reservation: overlay.ReservationRankOnly,
			JoinPolicy: pol}, overlay.RJ{})
		if err != nil {
			return nil, err
		}
		s.Add(0, res.Rejection)
		out = append(out, s)
	}
	return out, nil
}

// AblationDynamic measures the cost of incremental reconfiguration (the
// §6 future-work extension implemented in overlay's dynamic operations):
// starting from an RJ forest, a churn phase re-points 30% of the requests
// (unsubscribe + subscribe of a fresh stream); the resulting rejection
// ratio is compared against a full static rebuild of the final workload.
// The returned series hold one point each: incremental and rebuilt.
func (r *Runner) AblationDynamic() ([]metrics.Series, error) {
	type dynObs struct{ inc, rebuild float64 }
	obs := make([]dynObs, r.cfg.Samples)
	err := forEachSample(r.cfg.Samples, r.cfg.Parallelism, func(s int) error {
		inc, rebuild, err := r.dynamicSample(s)
		if err != nil {
			return err
		}
		obs[s] = dynObs{inc: inc, rebuild: rebuild}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var incAcc, rebuildAcc metrics.Accumulator
	for _, o := range obs {
		incAcc.Observe(o.inc)
		rebuildAcc.Observe(o.rebuild)
	}
	return []metrics.Series{
		{Label: "incremental", X: []float64{0}, Y: []float64{incAcc.Mean()}},
		{Label: "full rebuild", X: []float64{0}, Y: []float64{rebuildAcc.Mean()}},
	}, nil
}

// dynamicSample runs one churn-vs-rebuild sample of AblationDynamic.
func (r *Runner) dynamicSample(s int) (inc, rebuild float64, err error) {
	const n = 8
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(s)*1_000_003))
	var sites topology.SiteSet
	if err := r.backbone.SelectSitesInto(&sites, r.allCost, n, rng); err != nil {
		return 0, 0, err
	}
	w, err := workload.Generate(workload.Config{
		N: n, Capacity: workload.CapacityUniform, Popularity: workload.PopularityRandom,
		Mode: workload.ModeCoverage, CoverageRate: 1.0,
		SubscribeFraction: r.cfg.SubscribeFraction,
	}, rng)
	if err != nil {
		return 0, 0, err
	}
	p, err := overlay.FromWorkload(w, sites.Cost, sites.MedianCost()*r.cfg.BcostMultiplier)
	if err != nil {
		return 0, 0, err
	}
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(r.cfg.Seed+int64(s))))
	if err != nil {
		return 0, 0, err
	}
	// Churn 30% of the requests: drop one, subscribe to a different
	// stream of the same site.
	churn := len(p.Requests) * 3 / 10
	for c := 0; c < churn && len(f.Problem().Requests) > 0; c++ {
		reqs := f.Problem().Requests
		old := reqs[rng.Intn(len(reqs))]
		if err := f.Unsubscribe(old); err != nil {
			return 0, 0, err
		}
		repl := overlay.Request{
			Node:   old.Node,
			Stream: stream.ID{Site: old.Stream.Site, Index: rng.Intn(w.Sites[old.Stream.Site].NumStreams)},
		}
		if _, err := f.Subscribe(repl); err != nil {
			// Duplicate of an existing subscription: put the old one
			// back so demand stays comparable.
			if _, err := f.Subscribe(old); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := f.Validate(); err != nil {
		return 0, 0, fmt.Errorf("experiments: churned forest invalid: %w", err)
	}
	inc = metrics.Rejection(f)

	// Full static rebuild of the post-churn workload.
	rebuilt, err := overlay.RJ{}.Construct(f.Problem(), rand.New(rand.NewSource(r.cfg.Seed+int64(s)+500)))
	if err != nil {
		return 0, 0, err
	}
	return inc, metrics.Rejection(rebuilt), nil
}
