package chaos

// run.go executes a resolved schedule against a live cluster. The
// injector is a single goroutine walking a time-sorted op list, so
// faults land in deterministic order; windowed events (storms, bursts,
// partitions, link degradations) expand into an apply op at AtMs and a
// clear op at AtMs+DurationMs. Each op's outcome records how long the
// cluster took to absorb it — the per-fault recovery accounting the
// record schema surfaces.

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Cluster is the seam between the injector and the session layer: each
// method applies one fault (or its recovery) to the live cluster and
// returns once the cluster has absorbed it. Crash/heal-style methods
// are expected to be fast; RejoinRP and RestartMembership block until
// the rejoined node holds routes / every RP has failed over, so the
// op's wall-clock duration is the fault's recovery time.
type Cluster interface {
	// CrashRP tears down the RP at site ungracefully.
	CrashRP(site int) error
	// RejoinRP boots a fresh RP for a crashed site and blocks until it
	// has resynced through the normal registration path.
	RejoinRP(ctx context.Context, site int) error
	// RestartMembership kills the shard's live server, boots a successor
	// at its address, and blocks until the successor has taken over
	// (every RP re-registered).
	RestartMembership(ctx context.Context, shard int) error
	// SetStorm degrades every fabric link (latency multiplier + added
	// loss); ClearStorm restores them.
	SetStorm(latencyMul, extraLoss float64)
	// ClearStorm removes the fabric-wide degradation.
	ClearStorm()
	// Partition splits the cluster (median longitude); Heal restores it.
	Partition()
	// Heal reconnects the partitioned cluster.
	Heal()
	// DegradeLinks scales the site's links to every other site from
	// their static profiles (latency multiplier + added loss);
	// RestoreLinks returns them to the static profiles.
	DegradeLinks(site int, latencyMul, extraLoss float64)
	// RestoreLinks removes the site's link degradation.
	RestoreLinks(site int)
}

// Outcome records one executed fault: the event, when it fired relative
// to the session clock, how long the cluster took to absorb it, and any
// injection error.
type Outcome struct {
	// Event is the resolved event that fired.
	Event Event
	// FiredAtMs is when the op actually ran, on the session clock.
	FiredAtMs float64
	// RecoveryMs is how long the cluster took to absorb the fault: the
	// blocking duration of rejoin/restart ops, the window length for
	// windowed faults, ~0 for crashes (the damage is the
	// point; recovery is accounted to the paired rejoin).
	RecoveryMs float64
	// Err is the injection error, if any ("" means none).
	Err string
}

// op is one timed action derived from an event.
type op struct {
	atMs  float64
	event Event // the originating event (recorded on the outcome)
	clear bool  // true for the closing edge of a windowed event
	seq   int   // input order, for a stable sort
}

// Run executes the resolved schedule against the cluster, with t0 as
// the session clock's origin. It blocks until every op has run (or the
// context is cancelled; remaining ops are then recorded as cancelled)
// and returns one Outcome per event — windowed events report their
// window as RecoveryMs once the clear edge has run.
func Run(ctx context.Context, t0 time.Time, s Schedule, c Cluster) []Outcome {
	ops := make([]op, 0, 2*len(s.Events))
	for i, e := range s.Events {
		ops = append(ops, op{atMs: e.AtMs, event: e, seq: i})
		if e.windowed() {
			ops = append(ops, op{atMs: e.AtMs + e.DurationMs, event: e, clear: true, seq: i})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].atMs < ops[j].atMs })

	outcomes := make([]Outcome, len(s.Events))
	for i, e := range s.Events {
		outcomes[i] = Outcome{Event: e}
	}
	for _, o := range ops {
		due := t0.Add(time.Duration(o.atMs * float64(time.Millisecond)))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				outcomes[o.seq].Err = "cancelled: " + ctx.Err().Error()
				continue
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			outcomes[o.seq].Err = "cancelled: " + ctx.Err().Error()
			continue
		}
		start := time.Now()
		err := apply(ctx, c, o)
		out := &outcomes[o.seq]
		if o.clear {
			// The window is the fault's recovery span.
			out.RecoveryMs = o.atMs - o.event.AtMs
		} else {
			out.FiredAtMs = float64(start.Sub(t0)) / float64(time.Millisecond)
			switch o.event.Kind {
			case RPRejoin, MembershipRestart:
				out.RecoveryMs = float64(time.Since(start)) / float64(time.Millisecond)
			}
		}
		if err != nil {
			out.Err = err.Error()
		}
	}
	return outcomes
}

// apply dispatches one op to the cluster.
func apply(ctx context.Context, c Cluster, o op) error {
	e := o.event
	switch e.Kind {
	case RPCrash:
		return c.CrashRP(e.Site)
	case RPRejoin:
		return c.RejoinRP(ctx, e.Site)
	case MembershipRestart:
		return c.RestartMembership(ctx, e.Shard)
	case LatencyStorm:
		if o.clear {
			c.ClearStorm()
		} else {
			c.SetStorm(e.Multiplier, 0)
		}
	case LossBurst:
		if o.clear {
			c.ClearStorm()
		} else {
			c.SetStorm(1, e.Loss)
		}
	case PartitionHeal:
		if o.clear {
			c.Heal()
		} else {
			c.Partition()
		}
	case LinkDegrade:
		if o.clear {
			c.RestoreLinks(e.Site)
		} else {
			c.DegradeLinks(e.Site, e.Multiplier, e.Loss)
		}
	default:
		return fmt.Errorf("chaos: unknown kind %q", e.Kind)
	}
	return nil
}

// MaxRecoveryMs returns the worst per-fault recovery across outcomes.
func MaxRecoveryMs(outcomes []Outcome) float64 {
	worst := 0.0
	for _, o := range outcomes {
		if o.RecoveryMs > worst {
			worst = o.RecoveryMs
		}
	}
	return worst
}
