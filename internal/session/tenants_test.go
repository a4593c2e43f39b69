package session

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// TestSingleTenantBuildMatchesSingleSession is the regression pin for
// the one cluster runner: BuildTenants on a one-premium-tenant spec
// with unconstrained uplinks must reproduce the same step on no spec —
// placement, workload, forest and the planned steady-churn trace — bit
// for bit.
func TestSingleTenantBuildMatchesSingleSession(t *testing.T) {
	const (
		seed     = 42
		sites    = 12
		duration = 1500.0
	)
	churn := workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.5}

	runs, err := BuildTenants(ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{Seed: seed}},
		Tenants: workload.MultiTenantSpec{Classes: []workload.TenantClass{
			{Count: 1, SLO: workload.SLOPremium, Sites: sites},
		}},
		DurationMs: duration, Churn: churn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("built %d tenants, want 1", len(runs))
	}
	run := runs[0]
	if run.Tenant.Index != 0 || run.RejectedStart != 0 {
		t.Fatalf("single premium tenant run %+v: want index 0 and no rejections", run.Tenant)
	}

	plain, err := BuildTenants(ClusterConfig{
		Spec:       ClusterSpec{Spec: Spec{N: sites, Seed: seed}},
		DurationMs: duration, Churn: churn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 {
		t.Fatalf("built %d runs without a tenant spec, want 1", len(plain))
	}
	s := plain[0]

	if !reflect.DeepEqual(run.Session.Workload, s.Session.Workload) {
		t.Error("tenant 0 workload differs from the single-session build")
	}
	if !reflect.DeepEqual(run.Session.Sites.Cost, s.Session.Sites.Cost) {
		t.Error("tenant 0 cost matrix differs from the single-session build")
	}
	if !reflect.DeepEqual(run.Session.Forest, s.Session.Forest) {
		t.Error("tenant 0 forest differs from the single-session build")
	}
	if !reflect.DeepEqual(run.Trace, s.Trace) {
		t.Errorf("tenant 0 trace differs from the single-session plan: %d vs %d events",
			len(run.Trace), len(s.Trace))
	}
	if len(run.Config.Uplinks) != sites {
		t.Fatalf("%d uplinks for %d sites", len(run.Config.Uplinks), sites)
	}
	for i, up := range run.Config.Uplinks {
		if up == "" {
			t.Fatalf("site %d has no uplink name", i)
		}
	}
	// And the no-spec step is BuildCluster's session.
	direct, err := BuildCluster(ClusterSpec{Spec: Spec{N: sites, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Session.Forest, direct.Forest) || !reflect.DeepEqual(s.Session.Workload, direct.Workload) {
		t.Error("single-session run differs from BuildCluster")
	}
	// Without a spec the run books nothing: no controller, no uplinks.
	if s.Config.Admission != nil || s.Config.Uplinks != nil || s.AdmittedStart != 0 {
		t.Errorf("single-session run booked admission: %+v", s.Config)
	}
}

// totalSites sums the site counts of every tenant a run served.
func totalSites(res *ClusterResult) int {
	n := 0
	for _, tn := range res.Tenants {
		n += tn.Sites
	}
	return n
}

// TestRunClusterTenantsOverloadSmall drives three tenants over one fabric
// with a tightly capped uplink pool: the premium tenant must sail
// through untouched while the lower classes absorb the rejections. It
// is small enough to run under the race detector.
func TestRunClusterTenantsOverloadSmall(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{CamerasPerSite: 2, DisplaysPerSite: 1, Seed: 7}},
		Tenants: workload.MultiTenantSpec{Classes: []workload.TenantClass{
			{Count: 1, SLO: workload.SLOPremium, Sites: 6},
			{Count: 1, SLO: workload.SLOStandard, Sites: 6},
			{Count: 1, SLO: workload.SLOBestEffort, Sites: 6},
		}},
		Profile:        stream.Profile{Width: 32, Height: 24, FPS: 10, CompressionRatio: 8},
		DurationMs:     800,
		Churn:          workload.ChurnProfile{RatePerSec: 5, ViewChangeMix: 0.6},
		UplinkCapacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 || totalSites(res) != 18 {
		t.Fatalf("ran %d tenants over %d sites", len(res.Tenants), totalSites(res))
	}
	premium, rest := res.Tenants[0], res.Tenants[1:]
	if premium.SLO != workload.SLOPremium {
		t.Fatalf("tenant 0 SLO %v, want premium", premium.SLO)
	}
	if premium.Rejections != 0 || premium.RejectedStart != 0 {
		t.Errorf("premium absorbed rejections: %+v", premium)
	}
	if premium.Live == nil || premium.Live.TotalFrames == 0 {
		t.Fatalf("premium delivered no frames: %+v", premium.Live)
	}
	nonPremiumRejections := 0
	for _, tn := range rest {
		nonPremiumRejections += tn.Rejections
		if tn.Live == nil {
			t.Fatalf("tenant %s has no live result", tn.Name)
		}
	}
	if nonPremiumRejections == 0 {
		t.Error("capped uplinks produced no non-premium rejections — overload did not bite")
	}
}

// TestRunClusterTenantsUnlimited pins that an uncapped multi-tenant run
// admits everyone: the controller only accounts, nothing is denied.
func TestRunClusterTenantsUnlimited(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{CamerasPerSite: 2, DisplaysPerSite: 1, Seed: 11}},
		Tenants: workload.MultiTenantSpec{Classes: []workload.TenantClass{
			{Count: 2, SLO: workload.SLOBestEffort, Sites: 5},
		}},
		Profile:    stream.Profile{Width: 32, Height: 24, FPS: 10, CompressionRatio: 8},
		DurationMs: 600,
		Churn:      workload.ChurnProfile{RatePerSec: 3, ViewChangeMix: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range res.Tenants {
		if tn.Rejections != 0 || tn.RejectedStart != 0 {
			t.Errorf("unlimited pool rejected tenant %s: %+v", tn.Name, tn)
		}
		if tn.Admitted == 0 {
			t.Errorf("tenant %s holds no admitted streams", tn.Name)
		}
	}
}

// TestMultiTenantOverloadSLO is the acceptance pin: a 1,000-node
// virtual cluster serves 8 concurrent tenant sessions over one fabric;
// under induced uplink overload the premium tenant holds sim-parity
// disruption latency (within LiveSimToleranceMs) while the best-effort
// tenants absorb the rejections.
func TestMultiTenantOverloadSLO(t *testing.T) {
	if raceEnabled {
		t.Skip("1000-node cluster under the race detector: covered at 100 nodes by CI tenant-smoke")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	// 5 fps keeps the 1,000-site data plane inside the process budget,
	// as in the sharded failover acceptance test; the frame interval
	// enters live and sim disruption alike, so parity stays apples to
	// apples.
	res, err := RunCluster(ctx, ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			CamerasPerSite: 1, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 17,
		}},
		Tenants: workload.MultiTenantSpec{Classes: []workload.TenantClass{
			{Count: 1, SLO: workload.SLOPremium, Sites: 125},
			{Count: 1, SLO: workload.SLOStandard, Sites: 125},
			{Count: 6, SLO: workload.SLOBestEffort, Sites: 125},
		}},
		Profile:         stream.Profile{Width: 32, Height: 24, FPS: 5, CompressionRatio: 8},
		DurationMs:      2500,
		Churn:           workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.8},
		Shards:          2,
		FlushIntervalMs: 5,
		UplinkCapacity:  12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 8 || totalSites(res) != 1000 {
		t.Fatalf("ran %d tenants over %d sites, want 8 over 1000", len(res.Tenants), totalSites(res))
	}

	premium := res.Tenants[0]
	if premium.SLO != workload.SLOPremium {
		t.Fatalf("tenant 0 SLO %v, want premium", premium.SLO)
	}
	if premium.Rejections != 0 {
		t.Errorf("premium tenant absorbed %d rejections", premium.Rejections)
	}
	if premium.Live.DeliveredGained == 0 || premium.Sim.DeliveredGained == 0 {
		t.Fatalf("premium delivered gains: live %d, sim %d — trace too quiet to compare",
			premium.Live.DeliveredGained, premium.Sim.DeliveredGained)
	}
	if diff := math.Abs(premium.Live.MeanDisruptionMs - premium.Sim.MeanDisruptionMs); diff > LiveSimToleranceMs {
		t.Errorf("premium live mean disruption %.1fms vs sim %.1fms: |diff| %.1f > %.0f under overload",
			premium.Live.MeanDisruptionMs, premium.Sim.MeanDisruptionMs, diff, float64(LiveSimToleranceMs))
	}

	besteffortRejections := 0
	for _, tn := range res.Tenants {
		if tn.SLO == workload.SLOBestEffort {
			besteffortRejections += tn.Rejections
		}
	}
	if besteffortRejections == 0 {
		t.Error("overloaded uplinks produced no best-effort rejections")
	}
}
