package session

// scenario.go is the cluster scenario library: each scenario is a named
// preset — a churn trace from the session's churn-trace machinery
// (ChurnTrace, the same generator the event-driven simulator replays)
// plus a fault schedule in the internal/chaos grammar. Scenarios are
// pure planners; the cluster driver (RunCluster) replays the trace over
// the wire and hands the schedule to the chaos injector.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// Shipped scenario names.
const (
	// ScenarioSteadyChurn is the baseline: the configured Poisson churn
	// process over a healthy fabric — the live image of tisim -churn.
	ScenarioSteadyChurn = "steady-churn"
	// ScenarioFlashCrowd compresses a burst of subscription churn into a
	// short window early in the session: many sites change what they
	// watch almost at once, hammering the membership control loop.
	ScenarioFlashCrowd = "flash-crowd"
	// ScenarioPartition severs every fabric link between two geographic
	// halves of the cluster mid-session, then heals it: frames queue
	// across the cut (TCP riding out a routing transient) while churn
	// keeps arriving.
	ScenarioPartition = "partition"
	// ScenarioCorrelatedChurn snaps view-change churn onto a few shared
	// burst instants: co-timed view changes across many sites, the way a
	// scene cut moves every viewer's focus at once.
	ScenarioCorrelatedChurn = "correlated-churn"
	// ScenarioSlowLinks degrades a tenth of the sites' links (5x
	// latency, added loss) for the middle half of the session.
	ScenarioSlowLinks = "slow-links"
	// ScenarioFailover runs flash-crowd churn and restarts one membership
	// shard in the middle of the burst: every RP loses the shard's
	// control connection and re-registers with the successor listening
	// at the same address — the chaos drill for the sharded control
	// plane.
	ScenarioFailover = "failover"
	// ScenarioChaos runs the configured churn while a declarative fault
	// schedule (ClusterConfig.ChaosSchedule, see internal/chaos) is
	// injected on the session clock: RP crashes and rejoins, membership
	// restarts, latency storms, loss bursts and partitions, composed
	// freely and resolved deterministically from the session seed.
	ScenarioChaos = "chaos"
)

// ScenarioPlan is a scenario resolved against one concrete session: the
// control-event trace to replay over the wire and the fault schedule to
// inject beside it.
type ScenarioPlan struct {
	Trace []sim.Event
	// Chaos is the scenario's fault schedule in chaos.ParseSchedule
	// grammar, with concrete targets ("" injects nothing). RunCluster
	// joins it with ClusterConfig.ChaosSchedule and injects the result
	// through chaos.Run.
	Chaos string
}

// Scenario is a named, reproducible cluster disruption pattern.
type Scenario struct {
	// Name is the identifier used by ScenarioByName and ticluster
	// -scenario; Summary a one-line description.
	Name    string
	Summary string

	plan func(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error)
}

// Plan resolves the scenario against a session. The rng drives trace
// generation and fault target selection; the session is left
// unmodified.
func (sc Scenario) Plan(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	return sc.plan(s, cfg, rng)
}

// Scenarios lists the shipped scenario library in a stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:    ScenarioSteadyChurn,
			Summary: "Poisson churn at the configured rate over a healthy fabric",
			plan:    planSteadyChurn,
		},
		{
			Name:    ScenarioFlashCrowd,
			Summary: "a burst of subscription churn compressed into a short early window",
			plan:    planFlashCrowd,
		},
		{
			Name:    ScenarioPartition,
			Summary: "the fabric is severed between two geographic halves mid-session, then healed",
			plan:    planPartition,
		},
		{
			Name:    ScenarioCorrelatedChurn,
			Summary: "view changes across many sites snap onto shared burst instants",
			plan:    planCorrelatedChurn,
		},
		{
			Name:    ScenarioSlowLinks,
			Summary: "a tenth of the sites' links degrade to 5x latency with loss for the middle of the session",
			plan:    planSlowLinks,
		},
		{
			Name:    ScenarioFailover,
			Summary: "one membership shard's server is killed mid-flash-crowd; RPs re-register with its successor at the same address",
			plan:    planFailover,
		},
		{
			Name:    ScenarioChaos,
			Summary: "steady churn while a declarative fault schedule (-chaos) injects crashes, restarts, storms and partitions",
			plan:    planSteadyChurn,
		},
	}
}

// ScenarioByName resolves a scenario by its name.
func ScenarioByName(name string) (Scenario, error) {
	var known []string
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
		known = append(known, sc.Name)
	}
	return Scenario{}, fmt.Errorf("session: unknown scenario %q (have %s)", name, strings.Join(known, ", "))
}

// planSteadyChurn is the baseline plan: the configured churn process,
// no faults.
func planSteadyChurn(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	trace, err := s.ChurnTrace(cfg.Churn, cfg.DurationMs, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	return ScenarioPlan{Trace: trace}, nil
}

// planFlashCrowd generates churn at five times the configured rate with
// a join-heavy mix, then compresses the whole trace into the window
// [0.2, 0.4) of the session. The compression is order-preserving, so the
// trace stays applicable (every event still finds the subscription state
// it was generated against).
func planFlashCrowd(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	profile := workload.ChurnProfile{
		RatePerSec:    cfg.Churn.RatePerSec * 5,
		ViewChangeMix: 0.2,
	}
	trace, err := s.ChurnTrace(profile, cfg.DurationMs, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	w0, w1 := 0.2*cfg.DurationMs, 0.4*cfg.DurationMs
	for i := range trace {
		trace[i].AtMs = w0 + trace[i].AtMs/cfg.DurationMs*(w1-w0)
	}
	return ScenarioPlan{Trace: trace}, nil
}

// planPartition keeps the configured churn running and severs every
// fabric link between the cluster's western and eastern halves (split at
// the median site longitude) for the window [0.3, 0.65) of the session.
// The membership control plane is out-of-band (server links are never
// severed), so routing updates keep flowing while frames stall across
// the cut — exactly the asymmetry wide-area incidents show.
func planPartition(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	plan, err := planSteadyChurn(s, cfg, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	plan.Chaos = chaos.Event{
		AtMs: 0.3 * cfg.DurationMs, Kind: chaos.PartitionHeal, DurationMs: 0.35 * cfg.DurationMs,
	}.String()
	return plan, nil
}

// splitByLongitudeTenant partitions a tenant's site host names (tenant
// 0 keeps the legacy names) at the median PoP longitude — the halves a
// chaos partition-heal severs. Sites exactly at the median go east, so
// both groups are non-empty whenever the cluster spans at least two
// longitudes; otherwise the partition is a no-op.
func splitByLongitudeTenant(s *Session, tenant int) (west, east []string) {
	lons := make([]float64, len(s.Sites.Nodes))
	for i, nd := range s.Sites.Nodes {
		lons[i] = nd.City.Coordinate.Lon
	}
	sorted := append([]float64(nil), lons...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	for i, lon := range lons {
		if lon < median {
			west = append(west, transport.TenantSiteHost(tenant, i))
		} else {
			east = append(east, transport.TenantSiteHost(tenant, i))
		}
	}
	return west, east
}

// planFailover reuses the flash-crowd trace shape (5x churn compressed
// into [0.2, 0.4) of the session) and schedules a membership restart at
// 0.3 of the session — the middle of the burst, so recovery happens
// under control-plane load. With a sharded plane the victim is shard 1
// (shard 0 keeps the legacy server name); a single-shard plane restarts
// its only server.
func planFailover(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	plan, err := planFlashCrowd(s, cfg, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	shard := 0
	if cfg.Shards > 1 {
		shard = 1
	}
	plan.Chaos = chaos.Event{AtMs: 0.3 * cfg.DurationMs, Kind: chaos.MembershipRestart, Shard: shard}.String()
	return plan, nil
}

// planCorrelatedChurn generates pure view-change churn and snaps each
// event's time forward onto the next of four shared burst instants, so
// many sites change view at the same moment. The snap is monotone on an
// already time-sorted trace, so per-site event order — and with it trace
// applicability — is preserved.
func planCorrelatedChurn(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	profile := workload.ChurnProfile{RatePerSec: cfg.Churn.RatePerSec, ViewChangeMix: 1}
	trace, err := s.ChurnTrace(profile, cfg.DurationMs, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	bursts := []float64{0.25, 0.45, 0.65, 0.85}
	for i := range trace {
		snapped := bursts[len(bursts)-1] * cfg.DurationMs
		for _, b := range bursts {
			if at := b * cfg.DurationMs; at >= trace[i].AtMs {
				snapped = at
				break
			}
		}
		trace[i].AtMs = snapped
	}
	return ScenarioPlan{Trace: trace}, nil
}

// planSlowLinks runs the configured churn while a random tenth of the
// sites (at least one) see all their links degraded — five times the
// latency and 2% added loss — for the window [0.25, 0.75) of the
// session, then restored: one link-degrade event per victim.
func planSlowLinks(s *Session, cfg ClusterConfig, rng *rand.Rand) (ScenarioPlan, error) {
	plan, err := planSteadyChurn(s, cfg, rng)
	if err != nil {
		return ScenarioPlan{}, err
	}
	n := s.Workload.N()
	victims := rng.Perm(n)[:(n+9)/10]
	sort.Ints(victims)
	var faults chaos.Schedule
	for _, i := range victims {
		faults.Events = append(faults.Events, chaos.Event{
			AtMs: 0.25 * cfg.DurationMs, Kind: chaos.LinkDegrade, Site: i,
			Multiplier: 5, Loss: 0.02, DurationMs: 0.5 * cfg.DurationMs,
		})
	}
	plan.Chaos = faults.String()
	return plan, nil
}
