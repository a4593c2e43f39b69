package main

// work.go defines what every workload hands back — operations done, one
// latency sample per operation (or per group of them), and what the
// measured window consumed — and derives the end-to-end metrics from it.

import (
	"context"
	"fmt"
)

// runCfg is a workload's input: the seed its inputs are a pure function
// of, the work scale (-seconds / nominalSeconds), and the tracer (nil on
// an untraced run).
type runCfg struct {
	seed  int64
	scale float64
	tr    *tracer
}

// scaled sizes a nominal amount of work; never below one unit.
func (c runCfg) scaled(n int) int {
	return max(1, int(float64(n)*c.scale+0.5))
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// work is a workload's outcome.
type work struct {
	// ops is the operation count of the measured window and lat one
	// latency sample in ms per operation (relay: per tick of 48
	// deliveries); which operation is the workload's own — see opOf.
	ops float64
	lat []float64
	use usage
	// latGroups is how many independent samples lat holds, when fewer
	// than len(lat): the calls of one churn burst are all acknowledged
	// by the same flush, so a burst counts once towards the "ten samples
	// beyond" rule of a tail percentile. 0 means len(lat).
	latGroups int

	attempted, failed int64
	checks            []check
	// digest describes the generated inputs; counts are the exactly
	// repeating numbers (forest shape, deliveries expected, events
	// replayed). Both must be equal across passes with one seed.
	digest string
	counts map[string]int64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// callWallS, when set, is the wall time tracing overhead is judged
	// on, for a workload whose rate window is fixed by the clock.
	callWallS float64
}

// overheadWallS is the wall time a traced run is compared on.
func (w *work) overheadWallS() float64 {
	if w.callWallS > 0 {
		return w.callWallS
	}
	return w.use.wallS
}

func (w *work) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	w.checks = append(w.checks, c)
}

func (w *work) correct() bool {
	for _, c := range w.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// workloadSpec is one named set of inputs the benchmark runs.
type workloadSpec struct {
	name string
	why  string
	// op names the operation the workload's rate, per-operation costs
	// and latency samples are taken over.
	op   string
	loop string
	run  func(ctx context.Context, cfg runCfg) (*work, error)
}

// workloads is the permanent list, in pass order.
var workloads = []workloadSpec{
	{"relay_large", "bytes dominate: 59 KB frames through two relay levels, so copies, encode/decode and allocation per byte set the rate; control plane idle",
		"frame delivery", "closed, window 32 ticks", runRelayLarge},
	{"relay_small", "same tree with 1.5 KB frames: per-message cost (node lock, allocs, channel hops, per-chunk fabric overhead) sets the rate; byte copies are negligible",
		"frame delivery", "closed, window 32 ticks", runRelaySmall},
	{"churn_inline", "control plane per event at 1,000 sites with inline flush: batch apply, route rebuild, diff, JSON delta, RP table swap; data plane idle",
		"acked resubscribe", "closed, 1 caller", runChurnInline},
	{"churn_burst", "the batched flush path (40 ms) under bursts of up to 200 concurrent resubscribes; throughput is timer-paced, so CPU per resubscribe and the latency tail carry the signal",
		"acked resubscribe", "closed, bursts of <=200 callers", runChurnBurst},
	{"cluster_flash", "the end-to-end rung: 100 sites on emulated WAN links, 15 fps frames and a flash crowd competing for the same nodes; measures disruption latency far below saturation",
		"frame delivery", "open, paced at 15 fps by the program", runClusterFlash},
	{"mc_fig8a", "the paper-reproduction path: thousands of small overlay constructions at N=3..10, single-threaded; the live stack is not involved",
		"Monte-Carlo sample", "closed, 1 caller", runMCFig8a},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec declares one end-to-end metric. Every workload reports every
// metric: each name is one statistic (rate, CPU per operation, latency
// percentile, ...) taken over the workload's own operation. home lists
// the workloads whose operation the name speaks of; elsewhere the same
// statistic is read over that workload's operation (README, "Reading a
// metric on a workload that is not its home").
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	home   []string
	value  func(w *work) float64
}

var (
	relayHome = []string{"relay_large", "relay_small"}
	churnHome = []string{"churn_inline", "churn_burst"}
	allHome   = []string{"relay_large", "relay_small", "churn_inline", "churn_burst", "cluster_flash", "mc_fig8a"}
)

func rate(w *work) float64     { return w.ops / w.use.wallS }
func cpuPerOp(w *work) float64 { return w.use.cpuS / w.ops }
func latP(p float64) func(w *work) float64 {
	return func(w *work) float64 {
		independent := len(w.lat)
		if w.latGroups > 0 {
			independent = w.latGroups
		}
		return percentile(sortedCopy(w.lat), pickPercentile(p, independent))
	}
}

// endToEnd is the contract's end_to_end list, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, allHome, func(w *work) float64 { return w.use.setupS }},
	{"peak_rss_mb", "MB", "lower", 0.25, allHome, func(w *work) float64 { return w.use.peakRSSMB }},
	{"frames_per_s", "1/s", "higher", 0.25, relayHome, rate},
	{"cpu_us_per_frame", "us", "lower", 0.25, relayHome, func(w *work) float64 { return cpuPerOp(w) * 1e6 }},
	{"allocs_per_frame", "count", "lower", 0.08, relayHome, func(w *work) float64 { return w.use.mallocs / w.ops }},
	{"alloc_bytes_per_frame", "B", "lower", 0.03, relayHome, func(w *work) float64 { return w.use.allocBytes / w.ops }},
	{"resub_per_s", "1/s", "higher", 0.25, churnHome, rate},
	{"resub_p50_ms", "ms", "lower", 0.25, churnHome, latP(50)},
	{"resub_p99_ms", "ms", "lower", 0.25, churnHome, latP(99)},
	{"cpu_ms_per_resub", "ms", "lower", 0.25, churnHome, func(w *work) float64 { return cpuPerOp(w) * 1e3 }},
	{"disruption_p50_ms", "ms", "lower", 0.25, []string{"cluster_flash"}, latP(50)},
	{"disruption_p95_ms", "ms", "lower", 0.25, []string{"cluster_flash"}, latP(95)},
	{"cpu_s_per_session_s", "s/s", "lower", 0.25, []string{"cluster_flash"}, func(w *work) float64 { return w.use.cpuS / w.use.wallS }},
	{"samples_per_s", "1/s", "higher", 0.25, []string{"mc_fig8a"}, rate},
}

// endToEndMetrics evaluates every end-to-end metric for one outcome.
func endToEndMetrics(w *work) map[string]float64 {
	out := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = m.value(w)
	}
	return out
}
