package sim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

func chainForest(t *testing.T) *overlay.Forest {
	t.Helper()
	// Source 0 with Out=1 forces the chain 0 -> a -> b.
	sID := stream.ID{Site: 0, Index: 0}
	cost := [][]float64{{0, 10, 10}, {10, 0, 10}, {10, 10, 0}}
	p := &overlay.Problem{
		In: []int{5, 5, 5}, Out: []int{1, 5, 5},
		Cost: cost, Bcost: 100,
		Requests: []overlay.Request{{Node: 1, Stream: sID}, {Node: 2, Stream: sID}},
	}
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rejected()) != 0 {
		t.Fatalf("rejections: %v", f.Rejected())
	}
	return f
}

func TestRunChainLatencies(t *testing.T) {
	f := chainForest(t)
	prof := stream.Profile{Width: 64, Height: 48, FPS: 10, CompressionRatio: 10}
	res, err := RunEvents(Config{Forest: f, Profile: prof, DurationMs: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 10 fps for 1000ms = 10 frames; 2 subscribers.
	if res.TotalFrames != 20 {
		t.Errorf("TotalFrames = %d, want 20", res.TotalFrames)
	}
	if len(res.PerSubscription) != 2 {
		t.Fatalf("per-subscription entries = %d, want 2", len(res.PerSubscription))
	}
	for _, st := range res.PerSubscription {
		wantLat := 10.0 * float64(st.Hops)
		if math.Abs(st.MeanLatMs-wantLat) > 1e-9 || math.Abs(st.MaxLatMs-wantLat) > 1e-9 {
			t.Errorf("node %d: latency mean %.2f max %.2f, want %.2f (hops=%d)",
				st.Node, st.MeanLatMs, st.MaxLatMs, wantLat, st.Hops)
		}
		if st.Frames != 10 {
			t.Errorf("node %d frames = %d, want 10", st.Node, st.Frames)
		}
	}
	// One subscriber is one hop away, the other two hops.
	hops := map[int]bool{}
	for _, st := range res.PerSubscription {
		hops[st.Hops] = true
	}
	if !hops[1] || !hops[2] {
		t.Errorf("expected hop counts {1,2}, got %v", hops)
	}
	if res.MaxLatencyMs != 20 {
		t.Errorf("MaxLatencyMs = %v, want 20", res.MaxLatencyMs)
	}
}

func TestHopOverhead(t *testing.T) {
	f := chainForest(t)
	prof := stream.Profile{Width: 64, Height: 48, FPS: 10, CompressionRatio: 10}
	res, err := RunEvents(Config{Forest: f, Profile: prof, DurationMs: 300, HopOverheadMs: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.PerSubscription {
		want := 15.0 * float64(st.Hops)
		if math.Abs(st.MeanLatMs-want) > 1e-9 {
			t.Errorf("node %d latency %.2f, want %.2f with overhead", st.Node, st.MeanLatMs, want)
		}
	}
}

func TestVerifyLatencyBound(t *testing.T) {
	f := chainForest(t)
	prof := stream.Profile{Width: 64, Height: 48, FPS: 10, CompressionRatio: 10}
	cfg := Config{Forest: f, Profile: prof, DurationMs: 500}
	res, err := RunEvents(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLatencyBound(cfg, res); err != nil {
		t.Errorf("bound violated: %v", err)
	}
}

// paperForest builds a full paper-style instance: 8 sites, coverage-mode
// subscriptions and random symmetric link costs, constructed by RJ.
func paperForest(t *testing.T) *overlay.Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	w, err := workload.Generate(workload.Config{
		N: 8, Capacity: workload.CapacityUniform, Popularity: workload.PopularityRandom,
		Mode: workload.ModeCoverage, CoverageRate: 1.0, SubscribeFraction: 0.12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 5 + rng.Float64()*40
			cost[i][j], cost[j][i] = c, c
		}
	}
	p, err := overlay.FromWorkload(w, cost, 90)
	if err != nil {
		t.Fatal(err)
	}
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPaperScaleSessionSatisfiesBound(t *testing.T) {
	// Every accepted subscription must be served within Bcost at frame
	// granularity.
	f := paperForest(t)
	cfg := Config{Forest: f, Profile: stream.DefaultProfile(), DurationMs: 2000}
	res, err := RunEvents(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrames == 0 {
		t.Fatal("no frames simulated")
	}
	if err := VerifyLatencyBound(cfg, res); err != nil {
		t.Errorf("latency bound violated on accepted subscription: %v", err)
	}
	// Every accepted request appears in the result with full frame rate.
	wantFrames := int(2000 / stream.DefaultProfile().FrameIntervalMs())
	if len(res.PerSubscription) != len(f.Accepted()) {
		t.Errorf("per-subscription entries %d != accepted %d", len(res.PerSubscription), len(f.Accepted()))
	}
	for _, st := range res.PerSubscription {
		if st.Frames != wantFrames {
			t.Errorf("node %d stream %s got %d frames, want %d", st.Node, st.Stream, st.Frames, wantFrames)
		}
	}
}

func TestRunValidation(t *testing.T) {
	f := chainForest(t)
	prof := stream.Profile{Width: 64, Height: 48, FPS: 10, CompressionRatio: 10}
	if _, err := RunEvents(Config{Forest: nil, Profile: prof, DurationMs: 100}, nil); err == nil {
		t.Error("nil forest accepted")
	}
	if _, err := RunEvents(Config{Forest: f, Profile: stream.Profile{}, DurationMs: 100}, nil); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := RunEvents(Config{Forest: f, Profile: prof, DurationMs: 0}, nil); err == nil {
		t.Error("zero duration accepted")
	}
}
