package session

// churn.go derives event traces for the event-driven simulator from live
// view dynamics: a workload.ChurnProfile schedules when churn happens and
// of what kind, and the session resolves each slot against its FOV state —
// a view change rotates one display's field of view and diffs the site's
// aggregate contributing streams into gained/lost sets, a join adds one
// fresh subscription, a leave withdraws one. The generator tracks the
// subscription state exactly as the forest's request set evolves under
// the emitted events, so every emitted operation is applicable when the
// simulator replays the trace.

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tele3d/tele3d/internal/fov"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// ChurnTrace generates a time-stamped event trace for the session: slots
// drawn from the profile's Poisson schedule, each bound to concrete
// streams. View-change slots rotate a random display's FOV by up to ±90°
// and emit the site-level subscription diff; join slots subscribe a site
// to one random unsubscribed remote stream; leave slots withdraw one
// random live subscription. Slots that resolve to no subscription change
// (a rotation whose contributing set is unchanged, a join with nothing
// left to subscribe, a leave on an empty session) are dropped. The trace
// is deterministic in the rng state and leaves the session unmodified.
func (s *Session) ChurnTrace(profile workload.ChurnProfile, durationMs float64, rng *rand.Rand) ([]sim.Event, error) {
	if rng == nil {
		return nil, fmt.Errorf("session: nil rng")
	}
	slots, err := profile.Schedule(durationMs, rng)
	if err != nil {
		return nil, err
	}
	n := s.Workload.N()

	// Working copies: display FOVs, per-display contributing streams, the
	// per-site extras added by join churn, and the per-site subscription
	// state mirroring the forest's request set under the emitted trace.
	fovs := make([][]fov.FOV, n)
	perDisplay := make([][][]stream.ID, n)
	for i := range fovs {
		fovs[i] = append([]fov.FOV(nil), s.FOVs[i]...)
		perDisplay[i] = make([][]stream.ID, len(fovs[i]))
		for d, f := range fovs[i] {
			ids, err := s.Cyberspace.Streams(f)
			if err != nil {
				return nil, err
			}
			perDisplay[i][d] = ids
		}
	}
	subs := make([]map[stream.ID]bool, n)
	extras := make([]map[stream.ID]bool, n)
	for i := range subs {
		subs[i] = make(map[stream.ID]bool, len(s.Workload.Subs[i]))
		for _, id := range s.Workload.Subs[i] {
			subs[i][id] = true
		}
		extras[i] = make(map[stream.ID]bool)
	}

	var events []sim.Event
	for _, slot := range slots {
		switch slot.Kind {
		case workload.ChurnViewChange:
			site := rng.Intn(n)
			if len(fovs[site]) == 0 {
				continue
			}
			d := rng.Intn(len(fovs[site]))
			f := fovs[site][d]
			f.Azimuth = fov.NormalizeAngle(f.Azimuth + (rng.Float64()-0.5)*math.Pi)
			ids, err := s.Cyberspace.Streams(f)
			if err != nil {
				return nil, err
			}
			fovs[site][d] = f
			perDisplay[site][d] = ids
			// The site's new aggregate demand: all displays plus the
			// extras join churn added independently of any display.
			need := make(map[stream.ID]bool)
			for _, dis := range perDisplay[site] {
				for _, id := range dis {
					need[id] = true
				}
			}
			for id := range extras[site] {
				need[id] = true
			}
			var gained, lost []stream.ID
			for id := range need {
				if !subs[site][id] {
					gained = append(gained, id)
				}
			}
			for id := range subs[site] {
				if !need[id] {
					lost = append(lost, id)
				}
			}
			if len(gained) == 0 && len(lost) == 0 {
				continue
			}
			stream.SortIDs(gained)
			stream.SortIDs(lost)
			for _, id := range gained {
				subs[site][id] = true
			}
			for _, id := range lost {
				delete(subs[site], id)
				delete(extras[site], id)
			}
			events = append(events, sim.Event{
				AtMs: slot.AtMs, Kind: sim.EventViewChange, Node: site,
				Gained: gained, Lost: lost,
			})

		case workload.ChurnJoin:
			site := rng.Intn(n)
			var candidates []stream.ID
			for j, ws := range s.Workload.Sites {
				if j == site {
					continue
				}
				for q := 0; q < ws.NumStreams; q++ {
					id := stream.ID{Site: j, Index: q}
					if !subs[site][id] {
						candidates = append(candidates, id)
					}
				}
			}
			if len(candidates) == 0 {
				continue
			}
			id := candidates[rng.Intn(len(candidates))]
			subs[site][id] = true
			extras[site][id] = true
			events = append(events, sim.Event{
				AtMs: slot.AtMs, Kind: sim.EventSubscribe, Node: site,
				Gained: []stream.ID{id},
			})

		case workload.ChurnLeave:
			type pair struct {
				site int
				id   stream.ID
			}
			var live []pair
			for i := 0; i < n; i++ {
				ids := make([]stream.ID, 0, len(subs[i]))
				for id := range subs[i] {
					ids = append(ids, id)
				}
				stream.SortIDs(ids)
				for _, id := range ids {
					live = append(live, pair{site: i, id: id})
				}
			}
			if len(live) == 0 {
				continue
			}
			pick := live[rng.Intn(len(live))]
			delete(subs[pick.site], pick.id)
			delete(extras[pick.site], pick.id)
			events = append(events, sim.Event{
				AtMs: slot.AtMs, Kind: sim.EventUnsubscribe, Node: pick.site,
				Lost: []stream.ID{pick.id},
			})
		}
	}
	return events, nil
}
