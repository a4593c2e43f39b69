package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

const composed = "300:rp-crash:5;600:membership-restart:1;900:rp-rejoin:5;1200:latency-storm:5:400;1800:loss-burst:0.1:300;2200:partition-heal:400;2300:link-degrade:4:5:0.02:250"

// TestParseScheduleRoundTrip pins that String() output re-parses to the
// same schedule, byte for byte.
func TestParseScheduleRoundTrip(t *testing.T) {
	s, err := ParseSchedule(composed)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(s.Events))
	}
	if got, want := s.Events[6], (Event{AtMs: 2300, Kind: LinkDegrade, Site: 4, Multiplier: 5, Loss: 0.02, DurationMs: 250}); got != want {
		t.Fatalf("link-degrade parsed as %+v, want %+v", got, want)
	}
	if s.String() != composed {
		t.Fatalf("String() = %q, want the input %q", s.String(), composed)
	}
	text := s.String()
	s2, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", text, err)
	}
	if s2.String() != text {
		t.Fatalf("round trip changed the schedule:\n  %s\n  %s", text, s2.String())
	}
}

// TestParseScheduleSortsByTime pins the stable time sort.
func TestParseScheduleSortsByTime(t *testing.T) {
	s, err := ParseSchedule("900:rp-rejoin:3;300:rp-crash:3;600:latency-storm:2:100")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{RPCrash, LatencyStorm, RPRejoin}
	for i, e := range s.Events {
		if e.Kind != want[i] {
			t.Fatalf("event %d kind = %s, want %s", i, e.Kind, want[i])
		}
	}
}

// TestParseScheduleRejects enumerates the grammar's validation errors.
func TestParseScheduleRejects(t *testing.T) {
	cases := map[string]string{
		"":                          "empty schedule",
		"100:frobnicate:1":          "unknown kind",
		"-5:rp-crash:1":             "bad injection time",
		"100:rp-crash":              "takes 1 argument",
		"100:rp-crash:last":         "only valid for rp-rejoin",
		"100:rp-rejoin:2":           "no preceding rp-crash",
		"100:latency-storm:0:200":   "multiplier must be positive",
		"100:latency-storm:2:0":     "duration must be positive",
		"100:loss-burst:1.5:200":    "loss must be in [0, 1]",
		"100:partition-heal:-3":     "duration must be positive",
		"1:rp-crash:2;2:rp-crash:2": "crashed twice",
		"100:membership-restart:-1": "bad shard",
		"100:rp-crash:notanint":     "bad site",
		"100:latency-storm:2":       "takes 2 argument",
		"100:link-degrade:1:5:0.02": "takes 4 argument",
		"100:link-degrade:x:5:0:50": "bad site",
		"100:link-degrade:1:0:0:50": "multiplier must be positive",
		"100:link-degrade:1:5:2:50": "loss must be in [0, 1]",
		"100:link-degrade:1:5:0:0":  "duration must be positive",
		// Overlapping windows on one piece of fabric state: the first
		// clear would end both.
		"100:latency-storm:5:1000;200:loss-burst:0.1:100":        "200:loss-burst:0.1:100 overlaps 100:latency-storm:5:1000",
		"100:latency-storm:5:300;200:latency-storm:2:300":        "overlaps 100:latency-storm:5:300",
		"100:partition-heal:500;400:partition-heal:100":          "400:partition-heal:100 overlaps 100:partition-heal:500",
		"100:link-degrade:3:5:0:200;250:link-degrade:3:2:0.1:50": "250:link-degrade:3:2:0.1:50 overlaps 100:link-degrade:3:5:0:200",
	}
	for text, wantErr := range cases {
		_, err := ParseSchedule(text)
		if err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error containing %q", text, wantErr)
			continue
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("ParseSchedule(%q) error = %q, want containing %q", text, err, wantErr)
		}
	}
}

// TestParseScheduleAcceptsAdjacentWindows pins the overlap rule's
// edges: a window may start exactly when the previous one on the same
// state ends, and windows on different state may overlap freely.
func TestParseScheduleAcceptsAdjacentWindows(t *testing.T) {
	for _, text := range []string{
		"100:latency-storm:5:100;200:loss-burst:0.1:100",
		"100:partition-heal:50;150:partition-heal:50",
		"100:latency-storm:5:500;200:partition-heal:500;300:link-degrade:1:5:0.02:500;300:link-degrade:2:5:0.02:500",
	} {
		if _, err := ParseSchedule(text); err != nil {
			t.Errorf("ParseSchedule(%q): %v", text, err)
		}
	}
}

// TestResolveDeterministic is the reproducibility contract: resolving
// the same schedule with the same seed and cluster shape twice yields
// byte-identical rendered schedules, and a different seed moves the
// random targets.
func TestResolveDeterministic(t *testing.T) {
	s, err := ParseSchedule("100:rp-crash:rand;400:rp-rejoin:last;500:rp-crash:rand;900:rp-rejoin:last;600:membership-restart:7")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Resolve(42, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Resolve(42, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Fatalf("same seed resolved differently:\n  %s\n  %s", r1.String(), r2.String())
	}
	if strings.Contains(r1.String(), "rand") || strings.Contains(r1.String(), "last") {
		t.Fatalf("resolved schedule still has symbolic targets: %s", r1.String())
	}
	// Shard folded into range.
	for _, e := range r1.Events {
		if e.Kind == MembershipRestart && e.Shard != 3 {
			t.Fatalf("shard 7 with 4 shards resolved to %d, want 3", e.Shard)
		}
	}
	r3, err := s.Resolve(43, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r3.String() == r1.String() {
		t.Fatalf("different seeds resolved to the same targets: %s", r1.String())
	}
	// The original schedule is not mutated.
	if s.Events[0].Site != TargetRandom {
		t.Fatal("Resolve mutated its receiver")
	}
}

// TestResolveBindsLastToMostRecentCrash pins the last-target pairing.
func TestResolveBindsLastToMostRecentCrash(t *testing.T) {
	s, err := ParseSchedule("100:rp-crash:3;200:rp-crash:8;300:rp-rejoin:last;400:rp-rejoin:last")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve(1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events[2].Site != 8 || r.Events[3].Site != 3 {
		t.Fatalf("last bound to %d then %d, want 8 then 3", r.Events[2].Site, r.Events[3].Site)
	}
}

// fakeCluster records every injector call with a timestamp.
type fakeCluster struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeCluster) record(s string) {
	f.mu.Lock()
	f.calls = append(f.calls, s)
	f.mu.Unlock()
}
func (f *fakeCluster) CrashRP(site int) error { f.record("crash"); return nil }
func (f *fakeCluster) RejoinRP(ctx context.Context, site int) error {
	f.record("rejoin")
	time.Sleep(20 * time.Millisecond) // the blocking resync the runner times
	return nil
}
func (f *fakeCluster) RestartMembership(ctx context.Context, shard int) error {
	f.record("restart")
	return nil
}
func (f *fakeCluster) SetStorm(latencyMul, extraLoss float64) { f.record("storm-on") }
func (f *fakeCluster) ClearStorm()                            { f.record("storm-off") }
func (f *fakeCluster) Partition()                             { f.record("partition") }
func (f *fakeCluster) Heal()                                  { f.record("heal") }
func (f *fakeCluster) DegradeLinks(site int, latencyMul, extraLoss float64) {
	f.record(fmt.Sprintf("degrade-%d-x%g+%g", site, latencyMul, extraLoss))
}
func (f *fakeCluster) RestoreLinks(site int) { f.record(fmt.Sprintf("restore-%d", site)) }

// TestRunExecutesInOrder drives a short schedule against a fake cluster
// and checks op order, windowed clears, and recovery accounting. The
// second storm starts exactly when the first ends: the stable op sort
// runs the clear first, so the new storm is not clobbered.
func TestRunExecutesInOrder(t *testing.T) {
	s, err := ParseSchedule("10:rp-crash:0;30:latency-storm:4:40;50:rp-rejoin:0;70:loss-burst:0.1:20;120:partition-heal:30;130:link-degrade:2:5:0.02:10")
	if err != nil {
		t.Fatal(err)
	}
	var fc fakeCluster
	outcomes := Run(context.Background(), time.Now(), s, &fc)
	want := []string{"crash", "storm-on", "rejoin", "storm-off", "storm-on", "storm-off",
		"partition", "degrade-2-x5+0.02", "restore-2", "heal"}
	if len(fc.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", fc.calls, want)
	}
	for i := range want {
		if fc.calls[i] != want[i] {
			t.Fatalf("call %d = %s, want %s (all: %v)", i, fc.calls[i], want[i], fc.calls)
		}
	}
	if len(outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Err != "" {
			t.Fatalf("outcome %s: unexpected error %s", o.Event.Kind, o.Err)
		}
	}
	if outcomes[1].RecoveryMs != 40 {
		t.Fatalf("storm window recovery = %v, want its 40ms duration", outcomes[1].RecoveryMs)
	}
	if outcomes[2].RecoveryMs < 15 {
		t.Fatalf("rejoin recovery = %vms, want >= the 20ms blocking resync", outcomes[2].RecoveryMs)
	}
	if outcomes[3].RecoveryMs != 20 {
		t.Fatalf("loss-burst window recovery = %v, want 20", outcomes[3].RecoveryMs)
	}
	if outcomes[4].RecoveryMs != 30 {
		t.Fatalf("partition window recovery = %v, want 30", outcomes[4].RecoveryMs)
	}
	if outcomes[5].RecoveryMs != 10 {
		t.Fatalf("link-degrade window recovery = %v, want 10", outcomes[5].RecoveryMs)
	}
	if MaxRecoveryMs(outcomes) != 40 {
		t.Fatalf("MaxRecoveryMs = %v, want 40", MaxRecoveryMs(outcomes))
	}
}

// TestRunCancelledRecordsRemainder pins that cancelling mid-schedule
// marks the unexecuted ops instead of hanging.
func TestRunCancelledRecordsRemainder(t *testing.T) {
	s, err := ParseSchedule("1:rp-crash:0;60000:rp-rejoin:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var fc fakeCluster
	start := time.Now()
	outcomes := Run(ctx, start, s, &fc)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if outcomes[0].Err != "" {
		t.Fatalf("first op should have run: %v", outcomes[0].Err)
	}
	if !strings.Contains(outcomes[1].Err, "cancelled") {
		t.Fatalf("unexecuted op err = %q, want cancelled", outcomes[1].Err)
	}
}
