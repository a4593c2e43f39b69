package session

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// loopback is the TCP fabric the loopback tests run on.
var loopback = transport.TCPFabric{DialTimeout: transport.DefaultDialTimeout}

func liveProfile() stream.Profile {
	return stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}
}

// TestLiveChurnMatchesSimPrediction is the end-to-end acceptance check
// for the live control plane: the same churn trace is applied once to
// the event-driven simulator and once over real TCP loopback, and the
// mean disruption latencies must agree within LiveSimToleranceMs.
func TestLiveChurnMatchesSimPrediction(t *testing.T) {
	spec := Spec{N: 4, CamerasPerSite: 3, DisplaysPerSite: 1, Algorithm: overlay.RJ{}, Seed: 21}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LiveConfig{
		Profile:    liveProfile(),
		DurationMs: 1500,
		Algorithm:  overlay.RJ{},
		Seed:       spec.Seed,
	}
	trace, err := s.ChurnTrace(workload.ChurnProfile{RatePerSec: 3, ViewChangeMix: 0.7}, cfg.DurationMs, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	gains := 0
	for _, e := range trace {
		gains += len(e.Gained)
	}
	if len(trace) == 0 || gains == 0 {
		t.Fatalf("trace has %d events, %d gains — pick a seed that churns", len(trace), gains)
	}

	simRes, err := s.SimPrediction(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	liveRes, err := s.runLive(ctx, cfg, loopback, trace)
	if err != nil {
		t.Fatal(err)
	}

	if liveRes.TotalFrames == 0 {
		t.Fatal("live plane delivered no frames")
	}
	if liveRes.FinalEpoch != uint64(1+len(trace)) {
		t.Errorf("final epoch = %d, want %d (one bump per event)", liveRes.FinalEpoch, 1+len(trace))
	}
	if len(liveRes.Events) != len(simRes.Events) {
		t.Fatalf("event counts differ: live %d, sim %d", len(liveRes.Events), len(simRes.Events))
	}
	// Both planes apply the same trace to the same forest, so per-event
	// admission decisions must match exactly.
	for i := range liveRes.Events {
		le, se := liveRes.Events[i], simRes.Events[i]
		if le.GainedAccepted != se.GainedAccepted || le.GainedRejected != se.GainedRejected {
			t.Errorf("event %d admission: live %d/%d, sim %d/%d",
				i, le.GainedAccepted, le.GainedRejected, se.GainedAccepted, se.GainedRejected)
		}
	}

	if simRes.DeliveredGained == 0 || liveRes.DeliveredGained == 0 {
		t.Fatalf("delivered gains: live %d, sim %d — trace too quiet to compare",
			liveRes.DeliveredGained, simRes.DeliveredGained)
	}
	diff := math.Abs(liveRes.MeanDisruptionMs - simRes.MeanDisruptionMs)
	if diff > LiveSimToleranceMs {
		t.Errorf("live mean disruption %.1fms vs sim %.1fms: |diff| %.1fms exceeds tolerance %dms",
			liveRes.MeanDisruptionMs, simRes.MeanDisruptionMs, diff, LiveSimToleranceMs)
	}
	t.Logf("disruption latency: live mean %.1fms max %.1fms (%d delivered), sim mean %.1fms max %.1fms (%d delivered)",
		liveRes.MeanDisruptionMs, liveRes.MaxDisruptionMs, liveRes.DeliveredGained,
		simRes.MeanDisruptionMs, simRes.MaxDisruptionMs, simRes.DeliveredGained)
}

// TestLiveChurnVirtualFabric is the virtual-fabric variant of the
// live-vs-sim cross-check: the same session, trace and assertions as the
// TCP test, but every connection runs through a transport.VirtualNetwork
// whose links carry the session's cost matrix — the configuration that
// scales to thousand-node clusters (see cluster_test.go for 500 nodes).
func TestLiveChurnVirtualFabric(t *testing.T) {
	spec := Spec{N: 4, CamerasPerSite: 3, DisplaysPerSite: 1, Algorithm: overlay.RJ{}, Seed: 21}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LiveConfig{
		Profile:    liveProfile(),
		DurationMs: 1500,
		Algorithm:  overlay.RJ{},
		Seed:       spec.Seed,
	}
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{
		Seed:  spec.Seed,
		Links: transport.TenantSiteLinks([][][]float64{s.Sites.Cost}),
	})
	trace, err := s.ChurnTrace(workload.ChurnProfile{RatePerSec: 3, ViewChangeMix: 0.7}, cfg.DurationMs, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := s.SimPrediction(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	liveRes, err := s.runLive(ctx, cfg, fabric, trace)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.TotalFrames == 0 {
		t.Fatal("virtual fabric delivered no frames")
	}
	for i := range liveRes.Events {
		le, se := liveRes.Events[i], simRes.Events[i]
		if le.GainedAccepted != se.GainedAccepted || le.GainedRejected != se.GainedRejected {
			t.Errorf("event %d admission: live %d/%d, sim %d/%d",
				i, le.GainedAccepted, le.GainedRejected, se.GainedAccepted, se.GainedRejected)
		}
	}
	if liveRes.DeliveredGained == 0 {
		t.Fatal("no gains delivered on the virtual fabric")
	}
	diff := math.Abs(liveRes.MeanDisruptionMs - simRes.MeanDisruptionMs)
	if diff > LiveSimToleranceMs {
		t.Errorf("virtual live mean disruption %.1fms vs sim %.1fms: |diff| %.1fms exceeds %dms",
			liveRes.MeanDisruptionMs, simRes.MeanDisruptionMs, diff, LiveSimToleranceMs)
	}
	t.Logf("virtual fabric: live mean %.1fms (%d delivered), sim mean %.1fms",
		liveRes.MeanDisruptionMs, liveRes.DeliveredGained, simRes.MeanDisruptionMs)
}

// TestRunLiveValidation covers the live driver's argument checks.
func TestRunLiveValidation(t *testing.T) {
	s, err := Build(Spec{N: 2, CamerasPerSite: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.runLive(ctx, LiveConfig{Profile: liveProfile()}, loopback, nil); err == nil {
		t.Error("zero duration accepted")
	}
	bad := []sim.Event{{AtMs: 10, Node: 99}}
	if _, err := s.runLive(ctx, LiveConfig{Profile: liveProfile(), DurationMs: 100}, loopback, bad); err == nil {
		t.Error("out-of-range node accepted")
	}
	late := []sim.Event{{AtMs: 500, Node: 0}}
	if _, err := s.runLive(ctx, LiveConfig{Profile: liveProfile(), DurationMs: 100}, loopback, late); err == nil {
		t.Error("event after session end accepted")
	}
}
