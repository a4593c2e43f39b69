package tele3d

// bench_test.go regenerates every table and figure of the paper's
// evaluation as a Go benchmark, plus ablations and micro-benchmarks of the
// core data structures. Figure benches report the headline metric of the
// figure via b.ReportMetric so `go test -bench` output doubles as a
// compact results table; the full-resolution tables come from cmd/tisim.

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/tele3d/tele3d/internal/experiments"
	"github.com/tele3d/tele3d/internal/geo"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/workload"
)

// benchSamples keeps figure benches fast; cmd/tisim runs the full 200.
const benchSamples = 20

func newRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	// Parallelism pinned to 1 so the historical figure benches keep
	// measuring the serial path; the Fig8aSerial/Fig8aParallel pair
	// below is the deliberate speedup measurement.
	r, err := experiments.NewRunner(experiments.Config{Samples: benchSamples, Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchFig8 runs one Figure 8 panel and reports the N=10 rejection ratio
// of STF (worst) and RJ (best) as metrics.
func benchFig8(b *testing.B, v experiments.Fig8Variant) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.Fig8(v)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		switch s.Label {
		case "STF":
			b.ReportMetric(s.Y[len(s.Y)-1], "STF@N10")
		case "RJ":
			b.ReportMetric(s.Y[len(s.Y)-1], "RJ@N10")
		}
	}
}

func BenchmarkFig8a(b *testing.B) { benchFig8(b, experiments.Fig8a) }

// benchFig8aAt pins the engine's worker count; the Serial/Parallel pair
// below measures the worker-pool speedup on identical work (the output is
// bit-identical by the engine's determinism contract, so the pair differs
// only in scheduling).
func benchFig8aAt(b *testing.B, parallelism int) {
	r, err := experiments.NewRunner(experiments.Config{
		Samples: benchSamples, Seed: 1, Parallelism: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig8(experiments.Fig8a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aSerial(b *testing.B)   { benchFig8aAt(b, 1) }
func BenchmarkFig8aParallel(b *testing.B) { benchFig8aAt(b, runtime.GOMAXPROCS(0)) }
func BenchmarkFig8b(b *testing.B)         { benchFig8(b, experiments.Fig8b) }
func BenchmarkFig8c(b *testing.B)         { benchFig8(b, experiments.Fig8c) }
func BenchmarkFig8d(b *testing.B)         { benchFig8(b, experiments.Fig8d) }

func BenchmarkFig9(b *testing.B) {
	r := newRunner(b)
	var s metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		s, err = r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Y[0], "rej@g1")
	b.ReportMetric(s.Y[len(s.Y)-1], "rej@gMax")
}

func BenchmarkFig10(b *testing.B) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	util, relay := series[0], series[1]
	b.ReportMetric(util.Y[len(util.Y)-1], "util@N20")
	b.ReportMetric(relay.Y[len(relay.Y)-1], "relay@N20")
}

func BenchmarkFig11(b *testing.B) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	rj, co := series[0], series[1]
	last := len(rj.Y) - 1
	b.ReportMetric(rj.Y[last]/co.Y[last], "CO-RJ_factor@N10")
}

func BenchmarkAblationReservation(b *testing.B) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.AblationReservation()
		if err != nil {
			b.Fatal(err)
		}
	}
	// series[1] is RJ across modes rank-only / blocking / off.
	b.ReportMetric(series[1].Y[0], "RJ_rankonly")
	b.ReportMetric(series[1].Y[1], "RJ_blocking")
}

func BenchmarkAblationJoinPolicy(b *testing.B) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.AblationJoinPolicy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Y[0], "maxrfc")
	b.ReportMetric(series[1].Y[0], "relayfirst")
}

// BenchmarkAllToAllBaseline quantifies §1's claim that unicast all-to-all
// cannot scale past two sites: rejection of AllToAll vs RJ at N=3..4.
func BenchmarkAllToAllBaseline(b *testing.B) {
	g, err := topology.Backbone(geo.DefaultLatencyModel())
	if err != nil {
		b.Fatal(err)
	}
	var uni, rj float64
	for i := 0; i < b.N; i++ {
		uni, rj = 0, 0
		for s := int64(0); s < benchSamples; s++ {
			rng := rand.New(rand.NewSource(s*7919 + 3))
			sites, err := topology.SelectSites(g, 3, rng)
			if err != nil {
				b.Fatal(err)
			}
			w, err := workload.Generate(workload.Config{
				N: 3, Capacity: workload.CapacityUniform, Popularity: workload.PopularityRandom,
				Mode: workload.ModeCoverage, CoverageRate: 1.0, SubscribeFraction: 0.12,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			p, err := overlay.FromWorkload(w, sites.Cost, sites.MedianCost()*3)
			if err != nil {
				b.Fatal(err)
			}
			fu, err := overlay.AllToAll{}.Construct(p, rand.New(rand.NewSource(s)))
			if err != nil {
				b.Fatal(err)
			}
			fr, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(s)))
			if err != nil {
				b.Fatal(err)
			}
			uni += metrics.Rejection(fu)
			rj += metrics.Rejection(fr)
		}
	}
	b.ReportMetric(uni/benchSamples, "alltoall_rej@N3")
	b.ReportMetric(rj/benchSamples, "multicast_rej@N3")
}

// --- micro-benchmarks on the core building blocks ---

func benchProblem(b *testing.B, n int) *overlay.Problem {
	b.Helper()
	g, err := topology.Backbone(geo.DefaultLatencyModel())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	sites, err := topology.SelectSites(g, n, rng)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		N: n, Capacity: workload.CapacityUniform, Popularity: workload.PopularityRandom,
		Mode: workload.ModeCoverage, CoverageRate: 1.0, SubscribeFraction: 0.12,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := overlay.FromWorkload(w, sites.Cost, sites.MedianCost()*3)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkConstructRJ_N10(b *testing.B) {
	p := benchProblem(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (overlay.RJ{}).Construct(p, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructLTF_N10(b *testing.B) {
	p := benchProblem(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (overlay.LTF{}).Construct(p, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructCORJ_N10(b *testing.B) {
	p := benchProblem(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (overlay.CORJ{}).Construct(p, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	gen, err := stream.NewGenerator(stream.ID{Site: 1, Index: 2}, stream.DefaultProfile(), 7)
	if err != nil {
		b.Fatal(err)
	}
	f := gen.Next()
	b.SetBytes(int64(stream.EncodedSize(f)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Encode(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	gen, err := stream.NewGenerator(stream.ID{Site: 1, Index: 2}, stream.DefaultProfile(), 7)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := stream.Encode(gen.Next())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stream.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	gen, err := stream.NewGenerator(stream.ID{}, stream.DefaultProfile(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(stream.DefaultProfile().FrameBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkSimFrameDelivery(b *testing.B) {
	p := benchProblem(b, 8)
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Forest: f, Profile: stream.DefaultProfile(), DurationMs: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunEvents(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackboneShortestPaths(b *testing.B) {
	g, err := topology.Backbone(geo.DefaultLatencyModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPaths(topology.NodeID(i % g.NumNodes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn runs the event-driven churn experiment: FOV-driven
// sessions under seeded mid-session view dynamics, reporting the viewer's
// disruption latency and the post-churn rejection ratio.
func BenchmarkChurn(b *testing.B) {
	r := newRunner(b)
	var res experiments.ChurnResult
	var err error
	var constructMs, batchApplyMs float64
	for i := 0; i < b.N; i++ {
		res, err = r.ChurnExperiment(experiments.ChurnPoint{
			N: 8, RatePerSec: 4, ViewChangeMix: 0.7,
		})
		if err != nil {
			b.Fatal(err)
		}
		constructMs += res.ConstructMs
		batchApplyMs += res.BatchApplyMs
	}
	b.ReportMetric(res.MeanDisruptionMs, "disruption_ms")
	b.ReportMetric(res.FinalRejection, "rejection")
	// Per-phase maintenance cost — construction (session assembly) vs
	// batched churn application — averaged over all b.N iterations so the
	// reported figure gets the same smoothing ns/op does. These feed the
	// BENCH_*.json trajectory and are gated by bench-compare alongside
	// ns/op, so a regression in either phase fails CI even when the
	// other phase masks it in the aggregate.
	b.ReportMetric(constructMs/float64(b.N), "construct_ms")
	b.ReportMetric(batchApplyMs/float64(b.N), "batch_apply_ms")
}

// benchMultiTenant measures the multi-tenant build path — spec
// expansion, K per-tenant site placements and forests, the SLO-ordered
// admission pre-pass and churn-trace planning, i.e. session.BuildTenants
// — at a fixed total fleet size, so the 1-vs-8 pair isolates the cost
// of tenancy itself rather than of extra sites.
func benchMultiTenant(b *testing.B, tenants int) {
	const totalSites = 200
	spec, err := workload.DefaultTenantSpec(tenants, totalSites)
	if err != nil {
		b.Fatal(err)
	}
	cfg := session.ClusterConfig{
		Spec: session.ClusterSpec{Spec: session.Spec{
			CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 1,
		}},
		Tenants:        spec,
		Churn:          workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
		UplinkCapacity: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := session.BuildTenants(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != tenants {
			b.Fatalf("built %d tenants, want %d", len(runs), tenants)
		}
	}
}

func BenchmarkMultiTenant1(b *testing.B) { benchMultiTenant(b, 1) }
func BenchmarkMultiTenant8(b *testing.B) { benchMultiTenant(b, 8) }

func BenchmarkAblationDynamic(b *testing.B) {
	r := newRunner(b)
	var series []metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.AblationDynamic()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].Y[0], "incremental")
	b.ReportMetric(series[1].Y[0], "rebuild")
}
