package session

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tele3d/tele3d/internal/chaos"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/workload"
)

// scenarioSession builds a small cluster session scenarios can plan
// against.
func scenarioSession(t *testing.T) (*Session, ClusterConfig) {
	t.Helper()
	cfg := ClusterConfig{
		Spec: ClusterSpec{Spec: Spec{
			N: 12, CamerasPerSite: 2, DisplaysPerSite: 1,
			Algorithm: overlay.RJ{}, Seed: 17,
		}},
		Churn: workload.ChurnProfile{RatePerSec: 2, ViewChangeMix: 0.7},
	}.withDefaults()
	s, err := BuildCluster(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

// TestScenariosPlanAndReplay checks every shipped scenario produces a
// trace the event-driven simulator accepts (the applicability contract:
// each event finds the subscription state it was generated against) with
// every event inside the session window, and a fault schedule that
// parses, resolves, round-trips and ends inside the window too.
func TestScenariosPlanAndReplay(t *testing.T) {
	s, cfg := scenarioSession(t)
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if seen[sc.Name] {
				t.Fatalf("duplicate scenario name %q", sc.Name)
			}
			seen[sc.Name] = true
			if sc.Summary == "" {
				t.Error("scenario has no summary")
			}
			plan, err := sc.Plan(s, cfg, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Trace) == 0 {
				t.Fatal("scenario produced an empty trace — pick parameters that churn")
			}
			for i, e := range plan.Trace {
				if e.AtMs < 0 || e.AtMs >= cfg.DurationMs {
					t.Fatalf("event %d at %vms outside [0, %v)", i, e.AtMs, cfg.DurationMs)
				}
			}
			if !sort.SliceIsSorted(plan.Trace, func(i, j int) bool {
				return plan.Trace[i].AtMs < plan.Trace[j].AtMs
			}) {
				t.Error("trace times not sorted")
			}
			if plan.Chaos != "" {
				planFaults(t, s, cfg, plan)
			}
			// The simulator replays the trace against the same forest the
			// membership server will build: applicability check.
			pred, err := s.SimPrediction(LiveConfig{
				Profile: cfg.Profile, DurationMs: cfg.DurationMs,
				Algorithm: cfg.Spec.Algorithm, Seed: cfg.Spec.Seed,
			}, plan.Trace)
			if err != nil {
				t.Fatalf("trace not replayable: %v", err)
			}
			if len(pred.Events) != len(plan.Trace) {
				t.Fatalf("sim replayed %d of %d events", len(pred.Events), len(plan.Trace))
			}
		})
	}
}

// TestScenarioShapes pins each scenario's characteristic shape.
func TestScenarioShapes(t *testing.T) {
	s, cfg := scenarioSession(t)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(5)) }

	flash, err := mustScenario(t, ScenarioFlashCrowd).Plan(s, cfg, rng())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range flash.Trace {
		if e.AtMs < 0.2*cfg.DurationMs || e.AtMs >= 0.4*cfg.DurationMs {
			t.Fatalf("flash-crowd event %d at %vms outside the burst window", i, e.AtMs)
		}
	}

	corr, err := mustScenario(t, ScenarioCorrelatedChurn).Plan(s, cfg, rng())
	if err != nil {
		t.Fatal(err)
	}
	instants := map[float64]int{}
	for _, e := range corr.Trace {
		instants[e.AtMs]++
	}
	if len(instants) > 4 {
		t.Fatalf("correlated churn spread over %d instants, want <= 4 bursts", len(instants))
	}

	// The fault presets, at the default 2000 ms session: a partition over
	// [0.3, 0.65) of it, a restart of shard 1 (or the only shard) at 0.3,
	// and one link-degrade per slow-link victim over [0.25, 0.75).
	part, err := mustScenario(t, ScenarioPartition).Plan(s, cfg, rng())
	if err != nil {
		t.Fatal(err)
	}
	if want := "600:partition-heal:700"; part.Chaos != want {
		t.Fatalf("partition faults %q, want %q", part.Chaos, want)
	}
	for shards, want := range map[int]string{0: "600:membership-restart:0", 1: "600:membership-restart:0", 2: "600:membership-restart:1"} {
		fcfg := cfg
		fcfg.Shards = shards
		fo, err := mustScenario(t, ScenarioFailover).Plan(s, fcfg, rng())
		if err != nil {
			t.Fatal(err)
		}
		if fo.Chaos != want {
			t.Fatalf("failover faults on %d shard(s) %q, want %q", shards, fo.Chaos, want)
		}
	}

	slow, err := mustScenario(t, ScenarioSlowLinks).Plan(s, cfg, rng())
	if err != nil {
		t.Fatal(err)
	}
	faults := planFaults(t, s, cfg, slow)
	if len(faults.Events) != 2 {
		t.Fatalf("slow-links degrades %d sites, want a tenth of 12 rounded up: %q", len(faults.Events), slow.Chaos)
	}
	for i, e := range faults.Events {
		want := chaos.Event{AtMs: 500, Kind: chaos.LinkDegrade, Site: e.Site, Multiplier: 5, Loss: 0.02, DurationMs: 1000}
		if e != want {
			t.Fatalf("slow-links event %d = %+v, want %+v", i, e, want)
		}
		if i > 0 && e.Site <= faults.Events[i-1].Site {
			t.Fatalf("slow-links victims not distinct and sorted: %q", slow.Chaos)
		}
	}

	if _, err := ScenarioByName("no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// planFaults checks a plan's fault schedule the way RunCluster uses it:
// it parses, resolves against the session's shape, renders back to the
// plan's text byte for byte (the targets are already concrete), and
// every fault — windows included — ends inside the session.
func planFaults(t *testing.T, s *Session, cfg ClusterConfig, plan ScenarioPlan) chaos.Schedule {
	t.Helper()
	parsed, err := chaos.ParseSchedule(plan.Chaos)
	if err != nil {
		t.Fatalf("plan faults %q: %v", plan.Chaos, err)
	}
	resolved, err := parsed.Resolve(cfg.Spec.Seed, s.Workload.N(), 2)
	if err != nil {
		t.Fatalf("plan faults %q: %v", plan.Chaos, err)
	}
	if got := resolved.String(); got != plan.Chaos {
		t.Fatalf("plan faults resolve to %q, want the plan's own %q", got, plan.Chaos)
	}
	for _, e := range resolved.Events {
		if e.AtMs < 0 || e.AtMs+e.DurationMs >= cfg.DurationMs {
			t.Errorf("fault %s ends outside the %v ms session", e, cfg.DurationMs)
		}
	}
	return resolved
}

func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSplitByLongitude checks the partition split covers every site and
// both halves are non-empty on a spread-out cluster.
func TestSplitByLongitude(t *testing.T) {
	s, _ := scenarioSession(t)
	west, east := splitByLongitudeTenant(s, 0)
	if len(west)+len(east) != s.Workload.N() {
		t.Fatalf("split lost sites: %d + %d != %d", len(west), len(east), s.Workload.N())
	}
	if len(west) == 0 || len(east) == 0 {
		t.Fatalf("degenerate split: %d west, %d east", len(west), len(east))
	}
}
