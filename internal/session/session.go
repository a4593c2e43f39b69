// Package session assembles complete multi-site 3DTI sessions: Build,
// the one builder, places sites on the backbone (co-locating them
// round-robin once N exceeds its PoP count), builds their camera rigs and
// cyber-space, derives subscription workloads from per-display fields of
// view (§3.2), and constructs the dissemination overlay — the full
// pipeline of Figure 3. RunCluster, the one live runner, boots such
// sessions on the networked plane, over loopback TCP or a virtual WAN.
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/tele3d/tele3d/internal/fov"
	"github.com/tele3d/tele3d/internal/geo"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/topology"
	"github.com/tele3d/tele3d/internal/workload"
)

// sharedBackbone caches the default backbone graph and its all-pairs cost
// matrix. The graph is immutable after construction and every session uses
// the same default latency model, so building it once per process removes
// the dominant fixed cost of Build from churn experiments that assemble
// hundreds of sessions.
var sharedBackbone struct {
	once sync.Once
	g    *topology.Graph
	cost [][]float64
	err  error
}

// defaultBackbone returns the process-wide default backbone and its
// all-pairs shortest-path matrix.
func defaultBackbone() (*topology.Graph, [][]float64, error) {
	sharedBackbone.once.Do(func() {
		sharedBackbone.g, sharedBackbone.err = topology.Backbone(geo.DefaultLatencyModel())
		if sharedBackbone.err != nil {
			return
		}
		sharedBackbone.cost, sharedBackbone.err = sharedBackbone.g.CostMatrix()
	})
	return sharedBackbone.g, sharedBackbone.cost, sharedBackbone.err
}

// MaxRenderStreams is the per-display real-time rendering budget: the
// paper measures ~10 ms/stream, so a 15 fps display renders at most 6
// streams.
const MaxRenderStreams = 6

// Spec describes a session to assemble.
type Spec struct {
	// N is the number of sites (>= 2).
	N int
	// CamerasPerSite is the rig size at every site; 0 means 8 (a typical
	// TEEVE deployment uses around ten 3D cameras).
	CamerasPerSite int
	// DisplaysPerSite is the number of displays (each with its own FOV);
	// 0 means 2.
	DisplaysPerSite int
	// InCap and OutCap are per-site bandwidth limits in streams; 0 means
	// 20 (the paper's uniform setting).
	InCap, OutCap int
	// BcostMultiplier scales the median pairwise cost into the latency
	// bound; 0 means 3.0.
	BcostMultiplier float64
	// Algorithm constructs the overlay; nil means overlay.RJ{}.
	Algorithm overlay.Algorithm
	// Seed drives site selection, FOV placement and construction.
	Seed int64
}

// Session is an assembled multi-site 3DTI session.
type Session struct {
	Sites      *topology.SiteSet
	Cyberspace *fov.Cyberspace
	// FOVs[i] holds the fields of view of site i's displays.
	FOVs [][]fov.FOV
	// Workload is the aggregated subscription workload.
	Workload *workload.Workload
	// Problem and Forest are the overlay construction input and output.
	Problem *overlay.Problem
	Forest  *overlay.Forest
}

// withDefaults fills the spec's zero values with the paper's settings.
func (spec Spec) withDefaults() (Spec, error) {
	if spec.N < 2 {
		return spec, fmt.Errorf("session: N=%d < 2", spec.N)
	}
	if spec.CamerasPerSite == 0 {
		spec.CamerasPerSite = 8
	}
	if spec.DisplaysPerSite == 0 {
		spec.DisplaysPerSite = 2
	}
	if spec.InCap == 0 {
		spec.InCap = 20
	}
	if spec.OutCap == 0 {
		spec.OutCap = 20
	}
	if spec.BcostMultiplier == 0 {
		spec.BcostMultiplier = 3.0
	}
	if spec.Algorithm == nil {
		spec.Algorithm = overlay.RJ{}
	}
	return spec, nil
}

// Build assembles the session: N >= 2 sites on random backbone PoPs
// (co-located round-robin once N exceeds the PoP count), rigs,
// cyber-space, per-display FOVs pointed at other participants,
// aggregated subscriptions, and the constructed forest.
func Build(spec Spec) (*Session, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	backbone, allCost, err := defaultBackbone()
	if err != nil {
		return nil, err
	}
	sites := &topology.SiteSet{}
	if err := backbone.SelectSitesInto(sites, allCost, spec.N, rng); err != nil {
		return nil, err
	}

	cams := make([]int, spec.N)
	for i := range cams {
		cams[i] = spec.CamerasPerSite
	}
	cs, err := fov.NewCyberspace(cams)
	if err != nil {
		return nil, err
	}

	s := &Session{Sites: sites, Cyberspace: cs, FOVs: make([][]fov.FOV, spec.N)}

	wsites := make([]workload.Site, spec.N)
	subs := make([][]stream.ID, spec.N)
	for i := 0; i < spec.N; i++ {
		wsites[i] = workload.Site{In: spec.InCap, Out: spec.OutCap, NumStreams: spec.CamerasPerSite}
		var perDisplay [][]stream.ID
		for d := 0; d < spec.DisplaysPerSite; d++ {
			// Each display looks toward a random other participant with
			// a wide aperture — "a large fraction of the other
			// participants from a wide field of view".
			target := rng.Intn(spec.N - 1)
			if target >= i {
				target++
			}
			az, err := cs.SiteAngle(target)
			if err != nil {
				return nil, err
			}
			f := fov.FOV{
				Observer: i,
				Azimuth:  az + (rng.Float64()-0.5)*0.3,
				Aperture: fov.TwoPi * 0.6,
				Budget:   MaxRenderStreams,
			}
			ids, err := cs.Streams(f)
			if err != nil {
				return nil, err
			}
			s.FOVs[i] = append(s.FOVs[i], f)
			perDisplay = append(perDisplay, ids)
		}
		subs[i] = fov.Aggregate(i, perDisplay...).Streams
	}
	w, err := workload.New(wsites, subs)
	if err != nil {
		return nil, err
	}
	s.Workload = w

	p, err := overlay.FromWorkload(w, sites.Cost, sites.MedianCost()*spec.BcostMultiplier)
	if err != nil {
		return nil, err
	}
	s.Problem = p
	forest, err := spec.Algorithm.Construct(p, rng)
	if err != nil {
		return nil, err
	}
	if err := forest.Validate(); err != nil {
		return nil, fmt.Errorf("session: constructed forest invalid: %w", err)
	}
	s.Forest = forest
	return s, nil
}

// Resubscribe recomputes site i's subscriptions for new display FOVs and
// rebuilds the overlay (static reconstruction, as the paper's model
// prescribes). It returns the streams gained and lost by site i.
func (s *Session) Resubscribe(site int, fovs []fov.FOV, alg overlay.Algorithm, seed int64) (gained, lost []stream.ID, err error) {
	if site < 0 || site >= s.Workload.N() {
		return nil, nil, fmt.Errorf("session: site %d out of range", site)
	}
	if alg == nil {
		alg = overlay.RJ{}
	}
	var perDisplay [][]stream.ID
	for _, f := range fovs {
		if f.Observer != site {
			return nil, nil, errors.New("session: FOV observer mismatch")
		}
		ids, err := s.Cyberspace.Streams(f)
		if err != nil {
			return nil, nil, err
		}
		perDisplay = append(perDisplay, ids)
	}
	newSubs := fov.Aggregate(site, perDisplay...).Streams

	old := make(map[stream.ID]bool, len(s.Workload.Subs[site]))
	for _, id := range s.Workload.Subs[site] {
		old[id] = true
	}
	niu := make(map[stream.ID]bool, len(newSubs))
	for _, id := range newSubs {
		niu[id] = true
		if !old[id] {
			gained = append(gained, id)
		}
	}
	for id := range old {
		if !niu[id] {
			lost = append(lost, id)
		}
	}

	subs := make([][]stream.ID, s.Workload.N())
	copy(subs, s.Workload.Subs)
	subs[site] = newSubs
	w, err := workload.New(s.Workload.Sites, subs)
	if err != nil {
		return nil, nil, err
	}
	p, err := overlay.FromWorkload(w, s.Problem.Cost, s.Problem.Bcost)
	if err != nil {
		return nil, nil, err
	}
	forest, err := alg.Construct(p, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	s.FOVs[site] = fovs
	s.Workload = w
	s.Problem = p
	s.Forest = forest
	return gained, lost, nil
}
