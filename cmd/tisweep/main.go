// Command tisweep sweeps the experiment engine over a parameter grid and
// streams one result record per grid cell (× trial) to a compact CSV
// summary and full JSON-Lines records — every future figure or ablation
// becomes a one-flag sweep instead of a bespoke runner.
//
// Each grid flag takes a comma-separated list; the sweep is the cross
// product of all lists. 0 in -streams or -bandwidth keeps the capacity
// kind's paper default.
//
// Usage:
//
//	tisweep -n 4,6,8,10 -alg stf,ltf,mctf,rj -bcost 2.5,3.0 \
//	        -samples 50 -trials 3 -parallel 0 \
//	        -csv sweep.csv -jsonl sweep.jsonl
//	tisweep -n 4,8 -alg rj -churnrate 2,8 -churnmix 0.5,0.9   # churn cells
//
// CSV columns (JSONL carries the same fields, one object per line):
//
//	cell, trial        grid cell index and repetition index
//	n                  number of sites
//	streams, bandwidth per-site stream count and in/out budget (0 = default)
//	bcost, frac        latency-bound multiplier, subscribe fraction
//	capacity, popularity, algorithm   workload kinds and construction algorithm
//	samples, seed, parallelism        engine configuration of the run
//	rejection          mean normalized rejection ratio (Equation 1)
//	weighted_rejection mean normalized criticality-weighted ratio (Equation 3)
//	util_mean, util_stddev, relay_fraction   out-degree utilization (Figure 10)
//	churn_rate, churn_mix   churn events/sec and view-change fraction (0 = static cell)
//	scenario           cluster scenario name (ticluster -virtual; empty for sweeps)
//	churn_events       mean applied churn events per sample (churn cells)
//	disruption_mean_ms, disruption_max_ms    disruption latency (churn cells)
//	delivered_fraction mean fraction of gained streams served before session end
//	frames_delivered, frames_dropped, frames_stale, frames_duplicate   cluster frame ledger (0 for sweeps)
//	construct_ms       wall-clock forest-construction total of the cell
//	batch_apply_ms     wall-clock churn-application total (churn cells)
//	route_rebuild_ms   routing-table rebuild total (cluster runs; 0 for sweeps)
//	heap_delta_bytes   live-heap growth across the cell's evaluation
//	elapsed_ms         wall-clock cost of the cell
//
// A cell with churn_rate 0 is a static construction sweep (the original
// engine path); a positive churn_rate runs the event-driven churn
// experiment over FOV-driven sessions instead, and rejection reports the
// post-churn forest state. Axes that do not apply to a cell family are
// collapsed instead of crossed — churn cells ignore capacity/popularity/
// frac (their records carry the "fov" sentinel; the FOV pipeline defines
// the workload) and static cells ignore churnmix — so a multi-valued
// inapplicable axis never repeats identical work or emits duplicate
// records.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/tele3d/tele3d/internal/experiments"
	"github.com/tele3d/tele3d/internal/overlay"
	reclib "github.com/tele3d/tele3d/internal/record"
	"github.com/tele3d/tele3d/internal/workload"
)

// record is the shared result-record schema (internal/record), emitted
// identically by tisweep and ticluster so one toolchain loads both.
type record = reclib.Record

// sweepConfig is the fully parsed grid.
type sweepConfig struct {
	ns           []int
	streams      []int
	bandwidths   []int
	bcosts       []float64
	fracs        []float64
	capacities   []workload.CapacityKind
	popularities []workload.PopularityKind
	algs         []overlay.Algorithm
	churnRates   []float64
	churnMixes   []float64

	samples  int
	seed     int64
	parallel int
	trials   int

	csvPath   string
	jsonlPath string
	quiet     bool
}

// cellSpec is one effective grid cell after axis collapse.
type cellSpec struct {
	n, streams, bw      int
	bcost, frac         float64
	capk                workload.CapacityKind
	popk                workload.PopularityKind
	alg                 overlay.Algorithm
	churnRate, churnMix float64
}

// enumerateCells expands the grid cross product into the effective cell
// list. Axes that do not apply to a cell family are collapsed rather than
// crossed: static cells (churn rate 0) ignore the churn mix, and churn
// cells ignore the capacity/popularity/frac axes (the FOV pipeline
// defines their workload). Collapse is by axis position, not value, so a
// grid that repeats a value still runs each effective cell once.
func (c sweepConfig) enumerateCells() []cellSpec {
	var cells []cellSpec
	for _, n := range c.ns {
		for _, streams := range c.streams {
			for _, bw := range c.bandwidths {
				for _, bcost := range c.bcosts {
					for fi, frac := range c.fracs {
						for ci, capk := range c.capacities {
							for pi, popk := range c.popularities {
								for _, alg := range c.algs {
									for _, churnRate := range c.churnRates {
										for mi, churnMix := range c.churnMixes {
											if churnRate > 0 {
												if ci != 0 || pi != 0 || fi != 0 {
													continue
												}
											} else if mi != 0 {
												continue
											}
											cells = append(cells, cellSpec{
												n: n, streams: streams, bw: bw,
												bcost: bcost, frac: frac,
												capk: capk, popk: popk, alg: alg,
												churnRate: churnRate, churnMix: churnMix,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// cells returns the number of effective grid cells (excluding trials).
func (c sweepConfig) cells() int { return len(c.enumerateCells()) }

// evalCell evaluates one cell with one trial's runner, returning the
// record with the axis and metric columns filled in; the caller stamps
// the run metadata (cell/trial/seed/parallelism/elapsed).
func evalCell(r *experiments.Runner, sp cellSpec) (record, error) {
	rec := record{
		N: sp.n, Streams: sp.streams, Bandwidth: sp.bw,
		Bcost: sp.bcost, Frac: sp.frac,
		Capacity: sp.capk.String(), Popularity: sp.popk.String(),
		Algorithm: sp.alg.Name(),
		ChurnRate: sp.churnRate, ChurnMix: sp.churnMix,
	}
	if sp.churnRate > 0 {
		res, err := r.ChurnExperiment(experiments.ChurnPoint{
			N: sp.n, RatePerSec: sp.churnRate, ViewChangeMix: sp.churnMix,
			CamerasPerSite: sp.streams, Bandwidth: sp.bw,
			BcostMultiplier: sp.bcost, Algorithm: sp.alg,
		})
		if err != nil {
			return rec, err
		}
		// The FOV pipeline defines the workload; the collapsed axes must
		// not claim otherwise.
		rec.Capacity, rec.Popularity, rec.Frac = "fov", "fov", 0
		rec.Rejection = res.FinalRejection
		rec.ChurnEvents = res.Events
		rec.DisruptionMeanMs = res.MeanDisruptionMs
		rec.DisruptionMaxMs = res.MaxDisruptionMs
		rec.DeliveredFraction = res.DeliveredFraction
		rec.ConstructMs = res.ConstructMs
		rec.BatchApplyMs = res.BatchApplyMs
		return rec, nil
	}
	res, err := r.RunPoint(experiments.Point{
		N: sp.n, Capacity: sp.capk, Popularity: sp.popk,
		SubscribeFraction: sp.frac, StreamsPerSite: sp.streams,
		Bandwidth: sp.bw, BcostMultiplier: sp.bcost,
	}, sp.alg)
	if err != nil {
		return rec, err
	}
	rec.ChurnMix = 0 // no churn, no mix
	rec.Rejection = res.Rejection
	rec.WeightedRejection = res.WeightedNorm
	rec.UtilMean = res.Utilization.MeanOut
	rec.UtilStdDev = res.Utilization.StdDevOut
	rec.RelayFraction = res.Utilization.RelayFraction
	rec.ConstructMs = res.ConstructMs
	return rec, nil
}

func main() {
	var (
		nSpec         = flag.String("n", "4,6,8,10", "site-count grid")
		streamSpec    = flag.String("streams", "0", "streams-per-site grid; 0 = capacity kind default")
		bwSpec        = flag.String("bandwidth", "0", "per-site in/out budget grid in stream units; 0 = capacity kind default")
		bcostSpec     = flag.String("bcost", "3.0", "latency-bound multiplier grid (× median pairwise cost)")
		fracSpec      = flag.String("frac", "0.12", "subscribe-fraction grid")
		capSpec       = flag.String("capacity", "uniform", "capacity kind grid: uniform, heterogeneous")
		popSpec       = flag.String("popularity", "random", "popularity kind grid: zipf, random, zipf-sites")
		algSpec       = flag.String("alg", "stf,ltf,mctf,rj", "algorithm grid: stf, ltf, mctf, rj, co-rj, alltoall, gran-ltf:<g>")
		churnRateSpec = flag.String("churnrate", "0", "churn events/sec grid; 0 = static construction cell")
		churnMixSpec  = flag.String("churnmix", "0.7", "view-change fraction grid for churn cells")
		samples       = flag.Int("samples", 50, "Monte-Carlo samples per cell (paper figures: 200)")
		seed          = flag.Int64("seed", 1, "base random seed; trial t runs at a seed derived from it")
		parallel      = flag.Int("parallel", 0, "sample-evaluation workers; 0 = GOMAXPROCS")
		trials        = flag.Int("trials", 1, "repetitions of every cell at distinct derived seeds")
		csvPath       = flag.String("csv", "sweep.csv", "CSV summary path; - for stdout, empty to disable")
		jsonlPath     = flag.String("jsonl", "sweep.jsonl", "JSON-Lines records path; - for stdout, empty to disable")
		quiet         = flag.Bool("quiet", false, "suppress per-cell progress on stderr")
	)
	flag.Parse()
	cfg := sweepConfig{
		samples: *samples, seed: *seed, parallel: *parallel, trials: *trials,
		csvPath: *csvPath, jsonlPath: *jsonlPath, quiet: *quiet,
	}
	err := cfg.parseGrids(*nSpec, *streamSpec, *bwSpec, *bcostSpec, *fracSpec, *capSpec, *popSpec, *algSpec, *churnRateSpec, *churnMixSpec)
	if err == nil {
		err = runSweep(cfg, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tisweep:", err)
		os.Exit(1)
	}
}

// parseGrids fills the grid axes from their flag values.
func (c *sweepConfig) parseGrids(n, streams, bw, bcost, frac, capacity, popularity, alg, churnRate, churnMix string) error {
	var err error
	if c.ns, err = parseInts("n", n); err != nil {
		return err
	}
	if c.streams, err = parseInts("streams", streams); err != nil {
		return err
	}
	if c.bandwidths, err = parseInts("bandwidth", bw); err != nil {
		return err
	}
	if c.bcosts, err = parseFloats("bcost", bcost); err != nil {
		return err
	}
	if c.fracs, err = parseFloats("frac", frac); err != nil {
		return err
	}
	if c.capacities, err = parseCapacities(capacity); err != nil {
		return err
	}
	if c.popularities, err = parsePopularities(popularity); err != nil {
		return err
	}
	if c.algs, err = parseAlgorithms(alg); err != nil {
		return err
	}
	if c.churnRates, err = parseFloats("churnrate", churnRate); err != nil {
		return err
	}
	c.churnMixes, err = parseFloats("churnmix", churnMix)
	return err
}

// runSweep executes the grid, streaming records after every cell so long
// sweeps can be tailed and survive interruption with partial output.
func runSweep(cfg sweepConfig, stdout, stderr io.Writer) error {
	if cfg.samples < 1 {
		return fmt.Errorf("samples %d < 1", cfg.samples)
	}
	if cfg.trials < 1 {
		return fmt.Errorf("trials %d < 1", cfg.trials)
	}
	// Unlike -streams/-bandwidth, these knobs have no 0-means-default
	// reading: a 0 would silently run at the calibrated value while the
	// output rows claim 0, corrupting the sweep data.
	for _, b := range cfg.bcosts {
		if b <= 0 {
			return fmt.Errorf("-bcost: %v not positive", b)
		}
	}
	for _, f := range cfg.fracs {
		if f <= 0 || f > 1 {
			return fmt.Errorf("-frac: %v outside (0,1]", f)
		}
	}
	for _, cr := range cfg.churnRates {
		if cr < 0 {
			return fmt.Errorf("-churnrate: %v negative", cr)
		}
	}
	for _, cm := range cfg.churnMixes {
		if cm < 0 || cm > 1 {
			return fmt.Errorf("-churnmix: %v outside [0,1]", cm)
		}
	}
	// Resolve the effective worker count so records describe the run
	// that actually happened rather than echoing the 0 placeholder.
	parallel := cfg.parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sink, err := reclib.NewSink(cfg.csvPath, cfg.jsonlPath, stdout)
	if err != nil {
		return err
	}
	defer sink.Close()

	// One runner per trial: trials repeat the whole grid at distinct
	// derived seeds, so repetition variance is across-seeds, not
	// across-samples.
	runners := make([]*experiments.Runner, cfg.trials)
	seeds := make([]int64, cfg.trials)
	for t := 0; t < cfg.trials; t++ {
		seeds[t] = cfg.seed + int64(t)*104_729
		r, err := experiments.NewRunner(experiments.Config{
			Samples: cfg.samples, Seed: seeds[t], Parallelism: parallel,
		})
		if err != nil {
			return err
		}
		runners[t] = r
	}

	cells := cfg.enumerateCells()
	total := len(cells)
	if !cfg.quiet {
		fmt.Fprintf(stderr, "tisweep: %d cells x %d trials, %d samples/cell, parallel=%d\n",
			total, cfg.trials, cfg.samples, parallel)
	}
	start := time.Now()
	for cell, sp := range cells {
		for t := 0; t < cfg.trials; t++ {
			cellStart := time.Now()
			var memBefore, memAfter runtime.MemStats
			runtime.ReadMemStats(&memBefore)
			rec, err := evalCell(runners[t], sp)
			if err != nil {
				return fmt.Errorf("cell %d (n=%d alg=%s churn=%g trial=%d): %w",
					cell, sp.n, sp.alg.Name(), sp.churnRate, t, err)
			}
			runtime.ReadMemStats(&memAfter)
			rec.Cell, rec.Trial = cell, t
			rec.Samples, rec.Seed, rec.Parallelism = cfg.samples, seeds[t], parallel
			rec.HeapDeltaBytes = int64(memAfter.HeapAlloc) - int64(memBefore.HeapAlloc)
			rec.ElapsedMs = float64(time.Since(cellStart).Microseconds()) / 1e3
			if err := sink.Write(rec); err != nil {
				return err
			}
			if !cfg.quiet {
				fmt.Fprintf(stderr, "[%d/%d] n=%d streams=%d bw=%d bcost=%g frac=%g churn=%g/%g %s/%s %s trial=%d rejection=%.4f (%.0fms)\n",
					cell+1, total, sp.n, sp.streams, sp.bw, sp.bcost, sp.frac, sp.churnRate, sp.churnMix,
					sp.capk, sp.popk, sp.alg.Name(), t, rec.Rejection, rec.ElapsedMs)
			}
		}
	}
	if !cfg.quiet {
		fmt.Fprintf(stderr, "tisweep: done, %d records in %.1fs\n",
			total*cfg.trials, time.Since(start).Seconds())
	}
	return nil
}
