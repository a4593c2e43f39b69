package session

// cluster.go is the one live runner. Build places a cluster's N sites
// round-robin on the 40 backbone PoPs (co-located sites a metro link
// apart) and RunCluster boots the whole membership+RP stack on one
// fabric: by default an in-memory transport.VirtualNetwork whose links
// carry the backbone's pairwise latency — one process hosts thousands
// of nodes, with no kernel sockets, ports or file descriptors — or, with
// ClusterConfig.Fabric set, loopback TCP, which runs the identical
// protocol code over the kernel's network and models no WAN latency.
//
// A scenario (scenario.go) supplies the session's dynamics: a churn
// trace replayed over the wire (runLive), plus a fault schedule
// (partitions, slow links, membership restarts) the chaos injector
// applies mid-run.
//
// The same runner serves K tenants over one fabric. BuildTenants
// expands ClusterConfig.Tenants into K independent cluster sessions
// (each with its own site placement, FOVs and forest, seeded per
// tenant), books every tenant's initial subscriptions against the
// shared per-PoP uplinks in SLO order, and plans each tenant's trace;
// RunCluster then boots all K membership+RP stacks concurrently on one
// fabric — tenant-scoped host names keep the planes disjoint —
// with one shared rp.Admission arbitrating uplink bandwidth for the
// whole run. A config without Tenants is one tenant described by Spec:
// tenant 0 keeps the configured seed, the plain host names and the
// shard keying, books no admission, and is the single-session run.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// ClusterSpec is Spec under the name the benchmark binds to (see
// bench/README.md, "Public functions the benchmark binds to").
type ClusterSpec struct {
	Spec
}

// BuildCluster is Build, kept for the benchmark's bindings.
func BuildCluster(cs ClusterSpec) (*Session, error) { return Build(cs.Spec) }

// tenantSeedStride separates tenant seed streams: tenant i builds with
// Seed + i*tenantSeedStride, so tenant 0 keeps the configured seed
// exactly and the streams never collide for realistic tenant counts.
const tenantSeedStride = 1_000_003

// ClusterConfig parameterizes one live cluster run.
type ClusterConfig struct {
	// Spec describes the cluster session, as Build takes it. With
	// Tenants set, Spec.N must be 0 and the rest of Spec (rig, caps,
	// latency bound, algorithm, seed) is the default every tenant class
	// starts from.
	Spec ClusterSpec
	// Tenants, when it has classes, serves K tenants over one fabric
	// (see workload.MultiTenantSpec); tenant i builds with seed
	// Spec.Seed + i*1,000,003. The zero value runs one tenant described
	// by Spec. A multi-tenant run takes only ScenarioSteadyChurn and no
	// ChaosSchedule.
	Tenants workload.MultiTenantSpec
	// UplinkCapacity is the shared non-premium admission capacity per
	// PoP uplink, in stream units, when Tenants is set; 0 means
	// unlimited (accounting only), negative is invalid. Premium tenants
	// bypass the pool.
	UplinkCapacity int
	// Profile is the per-camera encoding profile; the zero value means a
	// small live profile (64x48 @ 15 fps, ratio 10) suitable for large
	// clusters.
	Profile stream.Profile
	// DurationMs is the session length; 0 means 2000.
	DurationMs float64
	// DrainMs extends listening after the last published frame; 0 means
	// 400.
	DrainMs float64
	// Scenario names the dynamics to run (see Scenarios); "" means
	// ScenarioSteadyChurn.
	Scenario string
	// Churn is the base churn process scenarios draw from; tenant
	// classes may override its rate. It must be a valid profile
	// (RatePerSec > 0): every scenario measures disruption under
	// dynamics, so a rate of zero is an error rather than a silently
	// substituted default — the emitted records must never claim a
	// churn rate the run did not use.
	Churn workload.ChurnProfile
	// Fabric is the transport the cluster runs on. nil builds a virtual
	// WAN from each tenant's cost matrix. transport.TCPFabric runs every
	// connection over loopback TCP, which carries no modelled latency;
	// there fault schedules that need the virtual fabric (storms, loss
	// bursts, partitions, link degradation) are rejected.
	Fabric transport.Fabric
	// Shards partitions each tenant's membership control plane into
	// this many servers (see transport.TenantStreamShard); 0 or 1 runs a
	// single server.
	Shards int
	// FlushIntervalMs batches each membership server's route
	// distribution; 0 distributes inline per event.
	FlushIntervalMs float64
	// ChaosSchedule is the declarative fault schedule injected on the
	// session clock (chaos.ParseSchedule grammar, e.g.
	// "300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400"),
	// on top of the scenario's own faults. Symbolic targets are resolved
	// deterministically from the session seed. Required by
	// ScenarioChaos, allowed alongside any other scenario; "" adds
	// nothing.
	ChaosSchedule string
}

// withDefaults fills the zero values.
func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Profile == (stream.Profile{}) {
		c.Profile = stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}
	}
	if c.DurationMs == 0 {
		c.DurationMs = 2000
	}
	if c.DrainMs == 0 {
		c.DrainMs = 400
	}
	if c.Scenario == "" {
		c.Scenario = ScenarioSteadyChurn
	}
	return c
}

// validate rejects configurations the runner would otherwise have to
// ignore in part.
func (c ClusterConfig) validate() error {
	if err := c.Churn.Validate(); err != nil {
		return fmt.Errorf("session: cluster churn profile: %w", err)
	}
	if c.Scenario == ScenarioChaos && c.ChaosSchedule == "" {
		return fmt.Errorf("session: scenario %s requires a chaos schedule", ScenarioChaos)
	}
	if len(c.Tenants.Classes) == 0 {
		return nil
	}
	switch {
	case c.Scenario != ScenarioSteadyChurn:
		return fmt.Errorf("session: a multi-tenant run takes scenario %s only, not %s", ScenarioSteadyChurn, c.Scenario)
	case c.ChaosSchedule != "":
		return fmt.Errorf("session: a multi-tenant run takes no chaos schedule")
	case c.Spec.N != 0:
		return fmt.Errorf("session: a multi-tenant run sizes tenants by class; Spec.N must be 0, not %d", c.Spec.N)
	case c.UplinkCapacity < 0:
		return fmt.Errorf("session: uplink capacity %d < 0", c.UplinkCapacity)
	}
	return nil
}

// scenarioRNG is the rng a scenario plans with. It is decoupled from
// the session seed stream so a scenario change never reshuffles site
// placement or FOVs.
func scenarioRNG(seed int64, scenario string) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(len(scenario))))
}

// TenantRun is one tenant's prepared run: the assembled session, its
// planned trace, the live configuration it runs with, and the
// admission pre-pass outcome for its initial subscription set.
type TenantRun struct {
	// Tenant is the expanded tenant identity (index, name, SLO, shape);
	// the zero Tenant with Sites = Spec.N when ClusterConfig.Tenants is
	// unset.
	Tenant workload.Tenant
	// Session is the tenant's assembled session; after the admission
	// pre-pass its workload carries only the admitted subscriptions.
	Session *Session
	// Trace is the tenant's planned control-event trace.
	Trace []sim.Event
	// Config is the tenant's live configuration — seed, namespace, SLO,
	// the shared admission controller and per-site uplinks (nil without
	// Tenants), and the resolved chaos schedule.
	Config LiveConfig
	// AdmittedStart / RejectedStart split the tenant's initial
	// subscription demand by the pre-pass admission verdict (both 0
	// without Tenants).
	AdmittedStart, RejectedStart int
}

// wrap labels err with the tenant's name; a single-tenant run's errors
// pass through unchanged.
func (r *TenantRun) wrap(err error) error {
	if r.Tenant.Name == "" {
		return err
	}
	return fmt.Errorf("session: tenant %s: %w", r.Tenant.Name, err)
}

// BuildTenants is the cluster build step: it assembles one session per
// tenant (each with its own backbone placement, FOVs, workload and
// forest) and plans each tenant's trace and fault schedule through
// cfg.Scenario. With Tenants set it first books every tenant's initial
// subscriptions through one shared admission controller in SLO order —
// premium reservations first, then standard, then best-effort into
// whatever remains — and removes denied subscriptions from the
// tenant's workload before planning, so traces never reference
// capacity the tenant was refused. Runs come back in admission order
// (descending SLO class; tenant 0 is the highest class present).
func BuildTenants(cfg ClusterConfig) ([]*TenantRun, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc, err := ScenarioByName(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	tenants := []workload.Tenant{{Sites: cfg.Spec.N}}
	var adm *rp.Admission
	if len(cfg.Tenants.Classes) > 0 {
		if tenants, err = cfg.Tenants.Expand(); err != nil {
			return nil, err
		}
		capacity := cfg.UplinkCapacity
		if capacity == 0 {
			capacity = -1 // unlimited pool, accounting only
		}
		adm = rp.NewAdmission(capacity)
	}
	runs := make([]*TenantRun, len(tenants))
	for i, tn := range tenants {
		runs[i] = &TenantRun{Tenant: tn}
		if err := runs[i].build(cfg, sc, adm); err != nil {
			return nil, runs[i].wrap(err)
		}
	}
	return runs, nil
}

// build assembles, admits and plans one tenant.
func (r *TenantRun) build(cfg ClusterConfig, sc Scenario, adm *rp.Admission) error {
	tn := r.Tenant
	spec := cfg.Spec.Spec
	spec.N, spec.Seed = tn.Sites, cfg.Spec.Seed+int64(tn.Index)*tenantSeedStride
	if tn.CamerasPerSite > 0 {
		spec.CamerasPerSite = tn.CamerasPerSite
	}
	if tn.DisplaysPerSite > 0 {
		spec.DisplaysPerSite = tn.DisplaysPerSite
	}
	s, err := Build(spec)
	if err != nil {
		return err
	}
	r.Session = s
	r.Config = LiveConfig{
		Profile:         cfg.Profile,
		DurationMs:      cfg.DurationMs,
		DrainMs:         cfg.DrainMs,
		Algorithm:       spec.Algorithm,
		Seed:            spec.Seed,
		Shards:          cfg.Shards,
		FlushIntervalMs: cfg.FlushIntervalMs,
		Tenant:          tn.Index,
		SLO:             tn.SLO,
		Admission:       adm,
	}

	if adm != nil {
		// Admission pre-pass, in expansion (descending-SLO) order: each
		// site's subscriptions are charged to its PoP's uplink and
		// filtered down to the admitted subset, so the wire run
		// registers only what the controller booked. Runtime gains
		// retry through the same controller.
		r.Config.Uplinks = make([]string, tn.Sites)
		subs := make([][]stream.ID, tn.Sites)
		for i := range subs {
			r.Config.Uplinks[i] = s.Sites.Nodes[i].City.Name
			admitted, denied := adm.Admit(r.Config.Uplinks[i], tn.Index, i, tn.SLO, s.Workload.Subs[i])
			subs[i] = admitted
			r.AdmittedStart += len(admitted)
			r.RejectedStart += len(denied)
		}
		if r.RejectedStart > 0 {
			w, err := workload.New(s.Workload.Sites, subs)
			if err != nil {
				return fmt.Errorf("session: admitted workload: %w", err)
			}
			s.Workload = w
		}
	}

	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	tcfg := cfg
	if tn.ChurnRatePerSec > 0 {
		tcfg.Churn.RatePerSec = tn.ChurnRatePerSec
	}
	plan, err := sc.Plan(s, tcfg, scenarioRNG(seed, sc.Name))
	if err != nil {
		return fmt.Errorf("session: scenario %s: %w", sc.Name, err)
	}
	r.Trace = plan.Trace

	// Resolve the scenario's and the caller's faults as one schedule
	// before anything boots: parse errors, overlapping windows and
	// impossible targets fail fast, and the resolution is deterministic
	// in (schedule, seed, N, shards) so reruns inject identical faults.
	if text := strings.Trim(plan.Chaos+";"+cfg.ChaosSchedule, ";"); text != "" {
		parsed, err := chaos.ParseSchedule(text)
		if err != nil {
			return fmt.Errorf("session: chaos schedule: %w", err)
		}
		if r.Config.Chaos, err = parsed.Resolve(seed, s.Workload.N(), max(cfg.Shards, 1)); err != nil {
			return fmt.Errorf("session: chaos schedule: %w", err)
		}
	}
	return nil
}

// TenantResult is one tenant's completed run.
type TenantResult struct {
	// Name / SLO / Sites identify the tenant; Events is its trace size.
	// Name is "" and SLO the zero class when ClusterConfig.Tenants is
	// unset.
	Name   string
	SLO    workload.SLOClass
	Sites  int
	Events int
	// AdmittedStart / RejectedStart report the admission pre-pass
	// verdict on the tenant's initial demand.
	AdmittedStart, RejectedStart int
	// Admitted / Rejections / Evictions are the controller's lifetime
	// books for the tenant: successful stream admissions, admission
	// denials (pre-pass plus runtime), and bookings displaced by
	// higher classes. All 0 without Tenants.
	Admitted, Rejections, Evictions int
	// Live is the tenant's measured outcome; Sim the simulator's
	// prediction for the same trace over the same (admitted) forest.
	// The simulator models neither fabric faults nor cross-tenant
	// admission, so under partitions, slow links or uplink overload the
	// Live-vs-Sim divergence is the measurement, not an error.
	Live *LiveResult
	Sim  *sim.EventResult
}

// ClusterResult is a completed cluster run. Its top-level fields
// describe tenant 0: the whole run for a single tenant, the highest
// class present otherwise.
type ClusterResult struct {
	// Scenario is the dynamics that ran; Sites the cluster size.
	Scenario string
	Sites    int
	// Events is the number of control events the scenario's trace
	// applied over the wire.
	Events int
	// ChaosSchedule is the fully resolved fault schedule the run
	// injected — the scenario's faults joined with
	// ClusterConfig.ChaosSchedule — in the grammar's canonical rendering
	// ("" when none): the same schedule string and seed always
	// reproduce it byte for byte.
	ChaosSchedule string
	// Live is the measured outcome; Sim the event-driven simulator's
	// prediction for the same trace over the same forest.
	Live *LiveResult
	Sim  *sim.EventResult
	// Tenants holds one result per tenant, in BuildTenants order.
	Tenants []TenantResult
}

// DeliveredFraction is tenant 0's LiveResult.DeliveredFraction.
func (r *ClusterResult) DeliveredFraction() float64 {
	return r.Live.DeliveredFraction()
}

// RunCluster builds the cluster (BuildTenants), boots every tenant's
// membership+RP stack on one fabric — cfg.Fabric, or by default a
// virtual one whose links carry each tenant's backbone latency matrix —
// and drives each tenant's scenario concurrently: its churn trace is
// applied mid-session over the wire while its fault schedule, joined
// with the caller's, runs through the chaos injector. With Tenants set,
// one admission controller arbitrates the shared PoP uplinks for the
// whole run — premium reservations are never displaced, standard may evict
// best-effort mid-session, and every eviction is shed live from the
// victim's data plane. The first tenant to fail cancels the others.
// Each tenant's live measurement is paired with the simulator's
// prediction for the same trace.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterResult, error) {
	runs, err := BuildTenants(cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fabric := cfg.Fabric
	if fabric == nil {
		costs := make([][][]float64, len(runs))
		for i, run := range runs {
			costs[i] = run.Session.Sites.Cost
		}
		fabric = transport.NewVirtualNetwork(transport.VirtualConfig{
			Seed:  cfg.Spec.Seed,
			Links: transport.TenantSiteLinks(costs),
		})
	}
	lives, err := runTenants(ctx, runs, fabric)
	if err != nil {
		return nil, err
	}

	var stats map[int]rp.TenantAdmissionStats
	if adm := runs[0].Config.Admission; adm != nil {
		stats = adm.Stats()
	}
	res := &ClusterResult{Scenario: cfg.Scenario}
	for i, run := range runs {
		pred, err := run.Session.SimPrediction(run.Config, run.Trace)
		if err != nil {
			return nil, run.wrap(err)
		}
		st := stats[run.Tenant.Index]
		res.Tenants = append(res.Tenants, TenantResult{
			Name:          run.Tenant.Name,
			SLO:           run.Tenant.SLO,
			Sites:         run.Session.Workload.N(),
			Events:        len(run.Trace),
			AdmittedStart: run.AdmittedStart,
			RejectedStart: run.RejectedStart,
			Admitted:      st.TotalAdmissions,
			Rejections:    st.Rejections,
			Evictions:     st.Evictions,
			Live:          lives[i],
			Sim:           pred,
		})
	}
	t0 := res.Tenants[0]
	res.Sites, res.Events, res.Live, res.Sim = t0.Sites, t0.Events, t0.Live, t0.Sim
	if c := runs[0].Config.Chaos; len(c.Events) > 0 {
		res.ChaosSchedule = c.String()
	}
	return res, nil
}

// runTenants runs every tenant's live session concurrently over one
// fabric; the first error cancels the rest and is the one returned.
func runTenants(ctx context.Context, runs []*TenantRun, fabric transport.Fabric) ([]*LiveResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lives := make([]*LiveResult, len(runs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live, err := run.Session.runLive(ctx, run.Config, fabric, run.Trace)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = run.wrap(err)
				cancel()
			}
			lives[i] = live
		}()
	}
	wg.Wait()
	return lives, firstErr
}
