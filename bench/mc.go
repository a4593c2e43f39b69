package main

// mc.go is the paper-reproduction workload: the Monte-Carlo engine
// regenerating Figure 8a — thousands of small overlay constructions at
// N = 3..10 — on one worker. The live stack is not involved, which makes
// this the workload a data-plane or control-plane change must not move.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/tele3d/tele3d/internal/experiments"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/session"
)

const (
	mcSamples = 200
	mcPoints  = 8 // Fig8 sweeps N = 3..10
	mcWarm    = 2
	mcSetups  = 3
	mcCalls   = 20
)

// fig8Calls runs Fig8a n times on the runner, checking every series
// against want (set from the first call when nil), and returns the
// per-call wall times in ms.
func fig8Calls(r *experiments.Runner, n int, want *[]metrics.Series, tr *tracer, parent int32, span string) (ms []float64, failed int64, err error) {
	for i := 0; i < n; i++ {
		start := time.Now()
		series, err := r.Fig8(experiments.Fig8a)
		end := time.Now()
		tr.add(parent, span, start, end)
		if err != nil {
			return ms, failed + 1, err
		}
		if *want == nil {
			*want = series
		} else if !reflect.DeepEqual(*want, series) {
			failed++
		}
		ms = append(ms, float64(end.Sub(start))/float64(time.Millisecond))
	}
	return ms, failed, nil
}

func runMCFig8a(ctx context.Context, cfg runCfg) (*work, error) {
	calls := cfg.scaled(mcCalls)
	// Set up mcSetups times and report the median: the first runner pays
	// for a cold heap and cold caches, which on a shared host is the
	// noisiest second of the run.
	var serial *experiments.Runner
	var want []metrics.Series
	setups := make([]float64, mcSetups)
	for i := range setups {
		var err error
		setups[i] = cfg.tr.time(0, "setup", func() {
			if serial, err = experiments.NewRunner(experiments.Config{Samples: mcSamples, Seed: cfg.seed, Parallelism: 1}); err == nil {
				_, _, err = fig8Calls(serial, mcWarm, &want, nil, 0, "")
			}
		}).Seconds()
		if err != nil {
			return nil, err
		}
	}

	window := cfg.tr.begin(0, "window")
	m := startMeter()
	ms, differed, err := fig8Calls(serial, calls, &want, cfg.tr, window, "experiments.Runner.Fig8")
	use := m.stop()
	cfg.tr.finish(window)
	if err != nil {
		return nil, err
	}
	use.setupS = median(setups)

	// After the window: the same figure on every core must be the same
	// bits (the engine's determinism contract), timed on a traced run.
	procs := runtime.GOMAXPROCS(0)
	parallel, err := experiments.NewRunner(experiments.Config{Samples: mcSamples, Seed: cfg.seed, Parallelism: procs})
	if err != nil {
		return nil, err
	}
	parCalls := 1
	if cfg.tr != nil {
		parCalls = 5
	}
	probes := cfg.tr.begin(0, "probes")
	defer cfg.tr.finish(probes)
	parMs, parDiffered, err := fig8Calls(parallel, parCalls, &want, cfg.tr, probes, "experiments.Runner.Fig8/parallel")
	if err != nil {
		return nil, err
	}

	points := 0
	for _, s := range want {
		points += len(s.Y)
	}
	w := &work{
		ops: float64(mcSamples * mcPoints * calls),
		lat: ms,
		use: use,
		digest: fmt.Sprintf("fig=8a samples=%d points=%d warm=%d calls=%d series=%d values=%d",
			mcSamples, mcPoints, mcWarm, calls, len(want), points),
		counts:    map[string]int64{"fig8_calls": int64(mcSetups*mcWarm + calls), "series_values": int64(points)},
		attempted: int64(calls),
		failed:    differed,
	}
	w.check("series_identical_across_calls", differed == 0, "%d of %d calls differed from the first", differed, calls)
	w.check("series_identical_across_parallelism", parDiffered == 0, "Parallelism %d differed from 1", procs)
	w.check("series_shape", points == len(want)*mcPoints && len(want) > 0, "%d series, %d values", len(want), points)
	if cfg.tr == nil {
		return w, nil
	}

	serialMs, parallelMs := median(ms), median(parMs)
	w.layers = map[string]float64{
		"experiments.fig8a_serial_ms":   serialMs,
		"experiments.fig8a_parallel_ms": parallelMs,
		"experiments.parallel_speedup":  serialMs / parallelMs,
	}
	procLayers(w.layers, use, runtime.NumGoroutine())
	// One paper-scale construction, the unit the engine repeats.
	s, err := session.BuildCluster(session.ClusterSpec{Spec: session.Spec{N: 10, Seed: cfg.seed}})
	if err != nil {
		return nil, err
	}
	_, per, err := prober{tr: cfg.tr, parent: probes}.construct(s.Problem, cfg.seed, 500)
	if err != nil {
		return nil, err
	}
	w.layers["overlay.construct_n10_us"] = float64(per) / float64(time.Microsecond)
	return w, ctx.Err()
}
