package main

// Unit tests of the harness's own arithmetic. They execute no workload.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
)

func TestPickPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		nominal float64
		n       int
		want    float64
	}{
		{99, 8000, 99}, // 80 beyond
		{99, 3000, 99}, // 30 beyond
		{99, 1000, 99}, // exactly 10 beyond
		{99, 999, 95},  // 9 beyond p99
		{99, 600, 95},  // 6 beyond p99, 30 beyond p95
		{95, 600, 95},
		{95, 199, 90}, // 9 beyond p95
		{99, 20, 50},  // 10 beyond the median
		{99, 5, 50},   // the median is the floor
		{50, 8000, 50},
	}
	for _, c := range cases {
		if got := pickPercentile(c.nominal, c.n); got != c.want {
			t.Errorf("pickPercentile(%v, %d) = %v, want %v", c.nominal, c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: q1=%v q3=%v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{2, 1, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("three values: q1=%v q3=%v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestWindowGateBoundsTicksInFlight(t *testing.T) {
	g := newWindowGate(4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Ticks 0..3 fit the window with nothing delivered; admit must not
	// even look at the context.
	for k := int64(0); k < 4; k++ {
		if err := g.admit(cancelled, k); err != nil {
			t.Fatalf("tick %d refused inside the window: %v", k, err)
		}
	}
	// Tick 4 would be the fifth in flight: it must wait.
	if err := g.admit(cancelled, 4); err == nil {
		t.Fatal("tick 4 admitted with four ticks in flight")
	}
	g.advance(1)
	if err := g.admit(cancelled, 4); err != nil {
		t.Fatalf("tick 4 refused after one tick completed: %v", err)
	}
	if g.maxAhead != 4 {
		t.Errorf("maxAhead = %d, want 4", g.maxAhead)
	}

	// A publisher racing a slow drain never exceeds the window.
	g = newWindowGate(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(1); k <= 200; k++ {
			g.advance(k)
		}
	}()
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	for k := int64(0); k < 203; k++ {
		if err := g.admit(ctx, k); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
	<-done
	if g.maxAhead > 3 {
		t.Errorf("maxAhead = %d with window 3", g.maxAhead)
	}
}

func TestRelayAccountingFindsGapsAndSlowest(t *testing.T) {
	l := &relayLoop{next: [][]uint64{make([]uint64, relayCameras), make([]uint64, relayCameras)}}
	deliver := func(sub, cam int, seq uint64) {
		l.account(sub, rp.Delivery{Frame: &stream.Frame{Stream: stream.ID{Site: 0, Index: cam}, Seq: seq}})
	}
	for cam := 0; cam < relayCameras; cam++ {
		deliver(0, cam, 0)
		deliver(0, cam, 1)
		deliver(1, cam, 0)
	}
	if sub, tick := l.slowest(); sub != 1 || tick != 1 {
		t.Errorf("slowest = (%d, %d), want (1, 1)", sub, tick)
	}
	deliver(1, 2, 2) // skips seq 1
	deliver(1, 9, 0) // no such camera
	if l.outOfSeq != 1 || l.misrouted != 1 || l.delivered != 13 {
		t.Errorf("outOfSeq=%d misrouted=%d delivered=%d", l.outOfSeq, l.misrouted, l.delivered)
	}
}

func TestPackBurstsKeepsPerSiteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	events := make([]sim.Event, 2000)
	for i := range events {
		// A skewed site choice forces deferrals past full bursts.
		events[i].Node = int(math.Abs(rng.NormFloat64()) * 15)
	}
	const limit = 25
	bursts := packBursts(events, limit)
	burstOf := make(map[int]int)
	for b, idxs := range bursts {
		if len(idxs) == 0 || len(idxs) > limit {
			t.Fatalf("burst %d has %d events", b, len(idxs))
		}
		seen := make(map[int]bool)
		for _, i := range idxs {
			if seen[events[i].Node] {
				t.Fatalf("burst %d repeats site %d", b, events[i].Node)
			}
			seen[events[i].Node] = true
			if _, dup := burstOf[i]; dup {
				t.Fatalf("event %d packed twice", i)
			}
			burstOf[i] = b
		}
	}
	if len(burstOf) != len(events) {
		t.Fatalf("packed %d of %d events", len(burstOf), len(events))
	}
	last := make(map[int]int)
	for i, e := range events {
		if prev, ok := last[e.Node]; ok && burstOf[i] <= prev {
			t.Fatalf("site %d: event %d in burst %d, not after its previous event's burst %d", e.Node, i, burstOf[i], prev)
		}
		last[e.Node] = burstOf[i]
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70}, // overlaps the first
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"parent": 30, "child": 40 + 40 - 5, "late": 30, "grandchild": 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("valid spans rejected: %v", err)
	}
	if err := checkSpans([]span{{ID: 1, Parent: 7, Name: "orphan", Start: 0, End: 1}}); err == nil {
		t.Error("span with a missing parent accepted")
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x")
	tr.finish(id)
	if d := tr.time(id, "y", func() {}); d < 0 || id != 0 {
		t.Errorf("nil tracer: id=%d d=%v", id, d)
	}
	live := newTracer()
	root := live.begin(0, "root")
	live.time(root, "inner", func() {})
	live.finish(root)
	if err := checkSpans(live.spans); err != nil || len(live.spans) != 2 {
		t.Errorf("spans=%d err=%v", len(live.spans), err)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"within the bound", []float64{100, 101, 99}, []float64{102, 103, 101}, "lower", 0.05, verdictSame},
		{"slower beyond the bound", []float64{100, 101, 99}, []float64{110, 111, 109}, "lower", 0.05, verdictWorse},
		{"faster beyond the bound", []float64{100, 101, 99}, []float64{90, 91, 89}, "lower", 0.05, verdictBetter},
		{"rate dropped", []float64{1000, 1010, 990}, []float64{900, 905, 895}, "higher", 0.05, verdictWorse},
		{"rate rose", []float64{1000, 1010, 990}, []float64{1100, 1105, 1095}, "higher", 0.05, verdictBetter},
		{"wide spread, runs interleave", []float64{100, 130, 80}, []float64{120, 90, 140}, "lower", 0.05, verdictUnresolved},
		{"wide spread but every run worse", []float64{100, 120, 80}, []float64{150, 170, 130}, "lower", 0.05, verdictWorse},
		{"wide spread but every run better", []float64{100, 120, 80}, []float64{50, 60, 40}, "lower", 0.05, verdictBetter},
		{"identical counts", []float64{8, 8, 8}, []float64{8, 8, 8}, "lower", 0.02, verdictSame},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: %s (worse by %.3f, spread %.3f), want %s", c.name, got.verdict, got.delta, got.spread, c.want)
		}
	}
}

func TestCompareFlagsFailuresAndInputDrift(t *testing.T) {
	file := func(rate float64, failed int64, digest string) *resultsFile {
		f := &resultsFile{Env: environment{Seed: 1, Seconds: 15}}
		for p := 0; p < 3; p++ {
			m := make(map[string]float64)
			for _, spec := range endToEnd {
				m[spec.name] = 10
			}
			m["frames_per_s"] = rate + float64(p)
			f.Passes = append(f.Passes, passResult{Untraced: []childResult{{
				Workload: "relay_small", Correct: failed == 0, Attempted: 100, Failed: failed, Digest: digest, Metrics: m,
			}}})
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(file(1000, 0, "d"), file(1001, 0, "d"), &out); code != 0 {
		t.Errorf("agreeing sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(file(1000, 0, "d"), file(600, 0, "d"), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
	if code := compareResults(file(1000, 0, "d"), file(1000, 5, "d"), &out); code != 1 {
		t.Errorf("more failures: exit %d", code)
	}
	if code := compareResults(file(1000, 0, "d"), file(1000, 0, "other inputs"), &out); code != 1 {
		t.Errorf("input drift under one seed: exit %d", code)
	}
}

func TestSplitBoolValue(t *testing.T) {
	got := splitBoolValue([]string{"--workload", "relay_small", "--seed", "1", "--trace", "1", "-trace", "0", "-trace"}, "trace")
	want := []string{"--workload", "relay_small", "--seed", "1", "--trace=1", "-trace=0", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program prints from, and to the limits of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, program nominal %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound == nil || *m.Bound != s.bound || s.bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %s %s %s %v", i, m, s.name, s.unit, s.better, s.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, program has %d", len(doc.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better || m.Bound != nil {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, perLayer[i])
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer %d: bad or repeated name %q unit %q", i, m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

func TestContractLineCarriesEveryMetric(t *testing.T) {
	res := childResult{Correct: true, Attempted: 0, Metrics: map[string]float64{"setup_s": 1.5}, Layers: map[string]float64{"rp.tree_depth": 2}}
	line := contractLine(res, false)
	if len(line.Metrics) != len(endToEnd) || line.Metrics["setup_s"].Value != 1.5 || line.Metrics["setup_s"].Unit != "s" || line.Attempted != 1 {
		t.Errorf("untraced line: %+v", line)
	}
	line = contractLine(res, true)
	if len(line.Metrics) != len(perLayer) || line.Metrics["rp.tree_depth"].Value != 2 || line.Metrics["sim.prediction_ms"].Value != 0 {
		t.Errorf("traced line: %+v", line)
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result object has keys %v (err %v), want exactly correct/attempted/failed/metrics", keys, err)
	}
}

func TestEndToEndMetricsAreOneStatisticEach(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	w := &work{ops: 2000, lat: lat, use: usage{setupS: 0.5, wallS: 4, cpuS: 2, mallocs: 6000, allocBytes: 8e6, peakRSSMB: 64}}
	m := endToEndMetrics(w)
	want := map[string]float64{
		"setup_s": 0.5, "peak_rss_mb": 64, "frames_per_s": 500, "resub_per_s": 500, "samples_per_s": 500,
		"cpu_us_per_frame": 1000, "cpu_ms_per_resub": 1, "cpu_s_per_session_s": 0.5,
		"allocs_per_frame": 3, "alloc_bytes_per_frame": 4000,
		"resub_p50_ms": 500, "disruption_p50_ms": 500, "resub_p99_ms": 990, "disruption_p95_ms": 950,
	}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	// Samples that share a cause count once: 1,000 calls in 50 bursts
	// support p75 (13 bursts beyond), not p99 or p95.
	w.latGroups = 50
	if m := endToEndMetrics(w); m["resub_p99_ms"] != 750 || m["disruption_p95_ms"] != 750 || m["resub_p50_ms"] != 500 {
		t.Errorf("grouped tails: p99 %v p95 %v p50 %v", m["resub_p99_ms"], m["disruption_p95_ms"], m["resub_p50_ms"])
	}
}
