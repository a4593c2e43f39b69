// Package chaos is the seeded, deterministic fault-injection subsystem:
// it parses declarative chaos schedules — timestamped sequences of RP
// crash/rejoin, membership shard restart, fabric-wide latency storm,
// loss burst, partition/heal and per-site link degradation events —
// resolves any randomized targets from a seed, and drives the resolved
// schedule against a live cluster through the Cluster interface
// (implemented by the session layer over the transport.VirtualNetwork
// seams, rp.Node's crash hook and each membership server's context).
// It is the only fault injector a live run has: the session layer's
// named scenarios are presets that emit schedule text.
//
// # Schedule grammar
//
// A schedule is a semicolon-joined list of events, each a colon-joined
// field list beginning with the injection time in session milliseconds:
//
//	<atMs>:rp-crash:<site|rand>        crash the RP at a site
//	<atMs>:rp-rejoin:<site|last>       rejoin a previously crashed RP
//	<atMs>:membership-restart:<shard>  kill the shard's server and boot a
//	                                   successor at its address; RPs
//	                                   re-register there
//	<atMs>:latency-storm:<mult>:<durMs>   multiply every link's latency
//	<atMs>:loss-burst:<loss>:<durMs>      add loss to every link
//	<atMs>:partition-heal:<durMs>         split the cluster, heal after dur
//	<atMs>:link-degrade:<site>:<mult>:<loss>:<durMs>
//	                                   multiply the latency of the site's
//	                                   links to every other site and add
//	                                   loss, restore after dur
//
// Example: "300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400".
//
// Windows that drive the same fabric state may not overlap: latency
// storms and loss bursts share the fabric-wide storm, partitions share
// the cut, and link-degrade windows of one site share its links. A
// window may start exactly when the previous one ends.
//
// Randomized targets (rand/last) are pinned by Resolve, which is a pure
// function of the schedule, the seed and the cluster shape — the same
// inputs always produce the byte-identical resolved schedule, which is
// what makes chaos runs reproducible.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind names one chaos event type.
type Kind string

// The chaos event kinds the schedule grammar accepts.
const (
	// RPCrash tears one site's RP down ungracefully (rp.Node.Crash).
	RPCrash Kind = "rp-crash"
	// RPRejoin boots a fresh RP for a crashed site; it resyncs through
	// the normal registration path.
	RPRejoin Kind = "rp-rejoin"
	// MembershipRestart kills one membership shard's live server (its
	// Serve context is cancelled) and boots a successor listening at the
	// same address; every RP re-registers there.
	MembershipRestart Kind = "membership-restart"
	// LatencyStorm multiplies every fabric link's latency for a window.
	LatencyStorm Kind = "latency-storm"
	// LossBurst adds loss probability to every fabric link for a window.
	LossBurst Kind = "loss-burst"
	// PartitionHeal severs the cluster at its median longitude for a
	// window, then heals it.
	PartitionHeal Kind = "partition-heal"
	// LinkDegrade scales one site's links to every other site (latency
	// multiplier, added loss) for a window, then restores them.
	LinkDegrade Kind = "link-degrade"
)

// Targets a site argument can take before resolution.
const (
	// TargetRandom marks a site to be drawn from the seed at Resolve.
	TargetRandom = -1
	// TargetLast marks a rejoin aimed at the most recently crashed site.
	TargetLast = -2
)

// Event is one timed fault in a schedule. Which fields are meaningful
// depends on Kind; String renders exactly the fields the grammar takes.
type Event struct {
	// AtMs is the injection time on the session clock.
	AtMs float64
	// Kind is the fault type.
	Kind Kind
	// Site targets rp-crash/rp-rejoin (TargetRandom/TargetLast before
	// resolution) and link-degrade.
	Site int
	// Shard targets membership-restart.
	Shard int
	// Multiplier is the latency factor of latency-storm (fabric-wide)
	// and link-degrade (one site's links).
	Multiplier float64
	// Loss is the added per-chunk loss probability of loss-burst and
	// link-degrade.
	Loss float64
	// DurationMs bounds the windowed kinds: latency-storm, loss-burst,
	// partition-heal and link-degrade.
	DurationMs float64
}

// String renders the event in schedule grammar.
func (e Event) String() string {
	at := trimFloat(e.AtMs)
	switch e.Kind {
	case RPCrash, RPRejoin:
		site := strconv.Itoa(e.Site)
		if e.Site == TargetRandom {
			site = "rand"
		} else if e.Site == TargetLast {
			site = "last"
		}
		return fmt.Sprintf("%s:%s:%s", at, e.Kind, site)
	case MembershipRestart:
		return fmt.Sprintf("%s:%s:%d", at, e.Kind, e.Shard)
	case LatencyStorm:
		return fmt.Sprintf("%s:%s:%s:%s", at, e.Kind, trimFloat(e.Multiplier), trimFloat(e.DurationMs))
	case LossBurst:
		return fmt.Sprintf("%s:%s:%s:%s", at, e.Kind, trimFloat(e.Loss), trimFloat(e.DurationMs))
	case PartitionHeal:
		return fmt.Sprintf("%s:%s:%s", at, e.Kind, trimFloat(e.DurationMs))
	case LinkDegrade:
		return fmt.Sprintf("%s:%s:%d:%s:%s:%s", at, e.Kind, e.Site,
			trimFloat(e.Multiplier), trimFloat(e.Loss), trimFloat(e.DurationMs))
	}
	return fmt.Sprintf("%s:%s", at, e.Kind)
}

// trimFloat formats a float without a trailing ".0" so rendered
// schedules round-trip through ParseSchedule byte-identically.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// Schedule is an ordered list of chaos events.
type Schedule struct {
	// Events in injection order (sorted by AtMs, stable on input order).
	Events []Event
}

// String renders the schedule in the grammar ParseSchedule accepts;
// Parse(s.String()) reproduces s exactly.
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// ParseSchedule parses the schedule grammar (see the package comment).
// Events are sorted by injection time (stable, so equal-time events keep
// their written order) and validated: times must be non-negative,
// durations positive, loss within [0, 1], every rp-rejoin must be
// preceded by an rp-crash it can pair with, and windows driving the same
// fabric state must not overlap.
func ParseSchedule(text string) (Schedule, error) {
	var s Schedule
	text = strings.TrimSpace(text)
	if text == "" {
		return s, fmt.Errorf("chaos: empty schedule")
	}
	for _, raw := range strings.Split(text, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		e, err := parseEvent(raw)
		if err != nil {
			return Schedule{}, err
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return s, fmt.Errorf("chaos: empty schedule")
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].AtMs < s.Events[j].AtMs })
	if err := s.validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// parseEvent parses one "<atMs>:<kind>[:<args>]" clause.
func parseEvent(raw string) (Event, error) {
	fields := strings.Split(raw, ":")
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("chaos: event %q: want <atMs>:<kind>[:<args>]", raw)
	}
	at, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || at < 0 {
		return Event{}, fmt.Errorf("chaos: event %q: bad injection time %q", raw, fields[0])
	}
	e := Event{AtMs: at, Kind: Kind(fields[1])}
	args := fields[2:]
	argN := func(i int, name string) (float64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("chaos: event %q: missing %s", raw, name)
		}
		f, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			return 0, fmt.Errorf("chaos: event %q: bad %s %q", raw, name, args[i])
		}
		return f, nil
	}
	multiplier := func(i int) (float64, error) {
		m, err := argN(i, "multiplier")
		if err == nil && m <= 0 {
			err = fmt.Errorf("chaos: event %q: multiplier must be positive", raw)
		}
		return m, err
	}
	loss := func(i int) (float64, error) {
		l, err := argN(i, "loss")
		if err == nil && (l < 0 || l > 1) {
			err = fmt.Errorf("chaos: event %q: loss must be in [0, 1]", raw)
		}
		return l, err
	}
	site := func() (int, error) {
		s, err := strconv.Atoi(args[0])
		if err != nil || s < 0 {
			return 0, fmt.Errorf("chaos: event %q: bad site %q", raw, args[0])
		}
		return s, nil
	}
	wantArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("chaos: event %q: %s takes %d argument(s), got %d", raw, e.Kind, n, len(args))
		}
		return nil
	}
	switch e.Kind {
	case RPCrash, RPRejoin:
		if err := wantArgs(1); err != nil {
			return Event{}, err
		}
		switch args[0] {
		case "rand":
			e.Site = TargetRandom
		case "last":
			if e.Kind != RPRejoin {
				return Event{}, fmt.Errorf("chaos: event %q: target last is only valid for rp-rejoin", raw)
			}
			e.Site = TargetLast
		default:
			if e.Site, err = site(); err != nil {
				return Event{}, err
			}
		}
	case MembershipRestart:
		if err := wantArgs(1); err != nil {
			return Event{}, err
		}
		shard, err := strconv.Atoi(args[0])
		if err != nil || shard < 0 {
			return Event{}, fmt.Errorf("chaos: event %q: bad shard %q", raw, args[0])
		}
		e.Shard = shard
	case LatencyStorm:
		if err := wantArgs(2); err != nil {
			return Event{}, err
		}
		if e.Multiplier, err = multiplier(0); err != nil {
			return Event{}, err
		}
		if e.DurationMs, err = argN(1, "duration"); err != nil {
			return Event{}, err
		}
	case LossBurst:
		if err := wantArgs(2); err != nil {
			return Event{}, err
		}
		if e.Loss, err = loss(0); err != nil {
			return Event{}, err
		}
		if e.DurationMs, err = argN(1, "duration"); err != nil {
			return Event{}, err
		}
	case PartitionHeal:
		if err := wantArgs(1); err != nil {
			return Event{}, err
		}
		if e.DurationMs, err = argN(0, "duration"); err != nil {
			return Event{}, err
		}
	case LinkDegrade:
		if err := wantArgs(4); err != nil {
			return Event{}, err
		}
		if e.Site, err = site(); err != nil {
			return Event{}, err
		}
		if e.Multiplier, err = multiplier(1); err != nil {
			return Event{}, err
		}
		if e.Loss, err = loss(2); err != nil {
			return Event{}, err
		}
		if e.DurationMs, err = argN(3, "duration"); err != nil {
			return Event{}, err
		}
	default:
		return Event{}, fmt.Errorf("chaos: event %q: unknown kind %q", raw, fields[1])
	}
	if e.windowed() && e.DurationMs <= 0 {
		return Event{}, fmt.Errorf("chaos: event %q: duration must be positive", raw)
	}
	return e, nil
}

// windowed reports whether the event holds a fault open for DurationMs
// (applied at AtMs, cleared at AtMs+DurationMs).
func (e Event) windowed() bool {
	switch e.Kind {
	case LatencyStorm, LossBurst, PartitionHeal, LinkDegrade:
		return true
	}
	return false
}

// resource names the fabric state a windowed event drives; windows on
// one resource must not overlap, since clearing either would clear
// both.
func (e Event) resource() string {
	switch e.Kind {
	case LatencyStorm, LossBurst:
		return "the fabric-wide storm"
	case PartitionHeal:
		return "the partition cut"
	}
	return fmt.Sprintf("site %d's links", e.Site)
}

// validate checks cross-event constraints on a time-sorted schedule.
func (s Schedule) validate() error {
	crashed := make(map[int]bool)
	sawCrash := false
	// open holds, per resource, the latest window on it; the events are
	// sorted by start and earlier windows were disjoint, so it also ends
	// last.
	open := make(map[string]Event)
	for _, e := range s.Events {
		if e.windowed() {
			r := e.resource()
			if prev, ok := open[r]; ok && e.AtMs < prev.AtMs+prev.DurationMs {
				return fmt.Errorf("chaos: %s overlaps %s: both drive %s", e, prev, r)
			}
			open[r] = e
		}
		switch e.Kind {
		case RPCrash:
			if e.Site >= 0 {
				if crashed[e.Site] {
					return fmt.Errorf("chaos: site %d crashed twice without a rejoin", e.Site)
				}
				crashed[e.Site] = true
			}
			sawCrash = true
		case RPRejoin:
			if !sawCrash {
				return fmt.Errorf("chaos: rp-rejoin at %gms has no preceding rp-crash", e.AtMs)
			}
			if e.Site >= 0 {
				delete(crashed, e.Site)
			}
		}
	}
	return nil
}

// Resolve pins every randomized target to a concrete one: rand sites
// are drawn (without replacement among outstanding crashes) from the
// seed via the same xorshift generator the fabric uses, last rejoins
// bind to the most recent unresolved crash, and shard indices are
// folded into range. Resolution is a pure function of (schedule, seed,
// sites, shards): the same inputs yield a byte-identical String().
// Resolve does not mutate the receiver.
func (s Schedule) Resolve(seed int64, sites, shards int) (Schedule, error) {
	if sites <= 0 {
		return Schedule{}, fmt.Errorf("chaos: resolve needs a positive site count")
	}
	if shards <= 0 {
		shards = 1
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand64(uint64(seed)*2 + 1)
	out := Schedule{Events: make([]Event, len(s.Events))}
	copy(out.Events, s.Events)
	crashedStack := []int{} // unresolved crashes, most recent last
	isCrashed := make(map[int]bool)
	for i := range out.Events {
		e := &out.Events[i]
		switch e.Kind {
		case RPCrash:
			if e.Site == TargetRandom {
				// Draw a not-currently-crashed site deterministically.
				for {
					site := int(rng.next() % uint64(sites))
					if !isCrashed[site] {
						e.Site = site
						break
					}
				}
			}
			if e.Site >= sites {
				return Schedule{}, fmt.Errorf("chaos: rp-crash site %d out of range (%d sites)", e.Site, sites)
			}
			isCrashed[e.Site] = true
			crashedStack = append(crashedStack, e.Site)
		case RPRejoin:
			if e.Site == TargetLast || e.Site == TargetRandom {
				if len(crashedStack) == 0 {
					return Schedule{}, fmt.Errorf("chaos: rp-rejoin at %gms has no crashed site to bind to", e.AtMs)
				}
				e.Site = crashedStack[len(crashedStack)-1]
			}
			if e.Site >= sites {
				return Schedule{}, fmt.Errorf("chaos: rp-rejoin site %d out of range (%d sites)", e.Site, sites)
			}
			if !isCrashed[e.Site] {
				return Schedule{}, fmt.Errorf("chaos: rp-rejoin site %d is not crashed at %gms", e.Site, e.AtMs)
			}
			delete(isCrashed, e.Site)
			for j := len(crashedStack) - 1; j >= 0; j-- {
				if crashedStack[j] == e.Site {
					crashedStack = append(crashedStack[:j], crashedStack[j+1:]...)
					break
				}
			}
		case MembershipRestart:
			e.Shard %= shards
		}
	}
	return out, nil
}

// rand64 is a tiny xorshift64* generator for target resolution; chaos
// must not pull in math/rand state that other layers share.
type rand64 uint64

// next advances the generator and returns the next draw.
func (r *rand64) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rand64(x)
	return x * 0x2545F4914F6CDD1D
}
