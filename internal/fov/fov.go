// Package fov implements the field-of-view subscription framework the
// publish-subscribe model requires (§3.2): it lets a participant express a
// preferred FOV in the shared cyber-space and converts that FOV into the
// concrete subset of contributing streams — the ViewCast-style layer the
// paper cites as its companion subscription framework.
//
// Geometry model. The cyber-space arranges the N participating sites
// around a virtual circle. Each site's camera rig places its Q cameras
// uniformly on a local circle around the captured participant (the paper's
// Figure 4 shows eight such cameras). A FOV is a viewing azimuth plus an
// aperture: the participant sees the sites falling inside the angular
// window, and for each visible site the cameras whose optical axes best
// face the viewing ray contribute most — exactly the "cameras 1, 2, 7, 8"
// selection of Figure 4.
package fov

import (
	"fmt"
	"math"
	"slices"

	"github.com/tele3d/tele3d/internal/stream"
)

// TwoPi is used for angle normalization.
const TwoPi = 2 * math.Pi

// NormalizeAngle maps an angle in radians into [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	return a
}

// AngularDistance returns the absolute angular separation of two angles,
// in [0, π].
func AngularDistance(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = TwoPi - d
	}
	return d
}

// SiteLayout describes the camera rig of one site in the cyber-space.
type SiteLayout struct {
	Site       int
	NumCameras int
}

// CameraAngle returns the azimuth of camera q's optical axis on the site's
// local circle, uniformly spaced starting at 0.
func (s SiteLayout) CameraAngle(q int) (float64, error) {
	if q < 0 || q >= s.NumCameras {
		return 0, fmt.Errorf("fov: site %d has no camera %d", s.Site, q)
	}
	return TwoPi * float64(q) / float64(s.NumCameras), nil
}

// Cyberspace is the shared virtual room: all sites placed uniformly on a
// circle, each with its camera layout.
type Cyberspace struct {
	layouts []SiteLayout
	// camAlign[site][q] caches Cos(AngularDistance(camera axis, viewing
	// ray)) — a pure function of the room geometry, so it is computed once
	// instead of on every Contributing call.
	camAlign [][]float64
}

// NewCyberspace builds a cyber-space for the given per-site camera counts.
// cameras[i] is the rig size of site i.
func NewCyberspace(cameras []int) (*Cyberspace, error) {
	if len(cameras) < 2 {
		return nil, fmt.Errorf("fov: cyber-space needs >=2 sites, got %d", len(cameras))
	}
	cs := &Cyberspace{}
	for i, q := range cameras {
		if q <= 0 {
			return nil, fmt.Errorf("fov: site %d has %d cameras", i, q)
		}
		cs.layouts = append(cs.layouts, SiteLayout{Site: i, NumCameras: q})
	}
	cs.camAlign = make([][]float64, len(cs.layouts))
	for i, lay := range cs.layouts {
		siteAz, err := cs.SiteAngle(i)
		if err != nil {
			return nil, err
		}
		facing := NormalizeAngle(siteAz + math.Pi)
		cs.camAlign[i] = make([]float64, lay.NumCameras)
		for q := 0; q < lay.NumCameras; q++ {
			camAz, err := lay.CameraAngle(q)
			if err != nil {
				return nil, err
			}
			cs.camAlign[i][q] = math.Cos(AngularDistance(camAz, facing))
		}
	}
	return cs, nil
}

// NumSites returns the number of sites in the cyber-space.
func (c *Cyberspace) NumSites() int { return len(c.layouts) }

// SiteAngle returns the azimuth at which a site appears in the cyber-space
// as seen from the room's centre.
func (c *Cyberspace) SiteAngle(site int) (float64, error) {
	if site < 0 || site >= len(c.layouts) {
		return 0, fmt.Errorf("fov: no site %d", site)
	}
	return TwoPi * float64(site) / float64(len(c.layouts)), nil
}

// FOV is a participant's preferred field of view: stand at your own site,
// look into the room at Azimuth with the given Aperture, and render at
// most Budget streams (the display's real-time rendering bound — the paper
// measures ~10 ms/stream, so a 15 fps display renders at most ~6).
type FOV struct {
	Observer int     // observing site (its own streams are never selected)
	Azimuth  float64 // viewing direction, radians
	Aperture float64 // angular width of the window, radians, (0, 2π]
	Budget   int     // maximum number of streams to subscribe to
}

// Validate checks the FOV parameters.
func (f FOV) Validate() error {
	switch {
	case f.Budget <= 0:
		return fmt.Errorf("fov: budget %d <= 0", f.Budget)
	case f.Aperture <= 0 || f.Aperture > TwoPi:
		return fmt.Errorf("fov: aperture %v out of (0, 2π]", f.Aperture)
	}
	return nil
}

// Contribution is a stream with its relevance score for some FOV.
type Contribution struct {
	Stream stream.ID
	Score  float64 // in (0, 1]; higher is more contributing
}

// Contributing converts a FOV into its ranked contributing streams: the
// concrete subscription set (§3.2 functionality (2)). Results are sorted
// by descending score (ties broken by stream ID) and truncated to the FOV
// budget. Only streams from sites other than the observer are returned.
func (c *Cyberspace) Contributing(f FOV) ([]Contribution, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Observer < 0 || f.Observer >= len(c.layouts) {
		return nil, fmt.Errorf("fov: observer site %d out of range", f.Observer)
	}
	var out []Contribution
	for _, lay := range c.layouts {
		if lay.Site == f.Observer {
			continue
		}
		siteAz, err := c.SiteAngle(lay.Site)
		if err != nil {
			return nil, err
		}
		// Angular centrality of the site inside the window: 1 at the
		// centre of the FOV, 0 at (and beyond) the window edge.
		sep := AngularDistance(siteAz, f.Azimuth)
		half := f.Aperture / 2
		if sep >= half {
			continue
		}
		siteWeight := 1 - sep/half
		// The cameras facing back along the viewing ray see the front of
		// the subject; their alignment is precomputed in camAlign.
		for q := 0; q < lay.NumCameras; q++ {
			align := c.camAlign[lay.Site][q]
			if align <= 1e-9 {
				continue // camera edge-on or seeing the back of the subject
			}
			out = append(out, Contribution{
				Stream: stream.ID{Site: lay.Site, Index: q},
				Score:  siteWeight * align,
			})
		}
	}
	// Order by score descending, stream ascending. Candidates are
	// generated in ascending stream order, so the append index doubles as
	// the stream tie-break; scores are positive finite floats, so their
	// inverted IEEE bits sort descending under integer comparison. The
	// resulting order is exactly the historical comparator's, without the
	// reflect-based sort in what is the view-change hot path.
	type scoreKey struct {
		k   uint64
		idx int32
	}
	keys := make([]scoreKey, len(out))
	for i := range out {
		keys[i] = scoreKey{k: ^math.Float64bits(out[i].Score), idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b scoreKey) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		}
		return 0
	})
	sorted := make([]Contribution, len(out))
	for i, sk := range keys {
		sorted[i] = out[sk.idx]
	}
	out = sorted
	if len(out) > f.Budget {
		out = out[:f.Budget]
	}
	return out, nil
}

// Streams is a convenience wrapper around Contributing that drops scores.
func (c *Cyberspace) Streams(f FOV) ([]stream.ID, error) {
	cons, err := c.Contributing(f)
	if err != nil {
		return nil, err
	}
	ids := make([]stream.ID, len(cons))
	for i, con := range cons {
		ids[i] = con.Stream
	}
	return ids, nil
}

// Subscription is the per-site aggregate the local RP sends to the
// membership server: the union of contributing streams over all local
// displays (§3.2). Duplicate subscriptions from multiple displays at the
// same site collapse, since the RP fans streams out locally.
type Subscription struct {
	Site    int
	Streams []stream.ID // sorted, deduplicated, none originating at Site
}

// Aggregate merges the contributing stream sets of all displays at one
// site into its RP subscription. For the realistic domain (nonnegative
// 32-bit sites and indexes) each ID packs into one uint64 whose numeric
// order is exactly ID order, so the union is one integer sort plus an
// adjacent-duplicate skip; other inputs take the map-and-comparator path.
func Aggregate(site int, perDisplay ...[]stream.ID) Subscription {
	packable := true
	total := 0
	for _, d := range perDisplay {
		total += len(d)
		for _, id := range d {
			if id.Site < 0 || int64(id.Site) > math.MaxInt32 || id.Index < 0 || int64(id.Index) > math.MaxInt32 {
				packable = false
			}
		}
	}
	if !packable {
		seen := make(map[stream.ID]bool)
		var ids []stream.ID
		for _, d := range perDisplay {
			for _, id := range d {
				if id.Site == site || seen[id] {
					continue
				}
				seen[id] = true
				ids = append(ids, id)
			}
		}
		stream.SortIDs(ids)
		return Subscription{Site: site, Streams: ids}
	}
	keys := make([]uint64, 0, total)
	for _, d := range perDisplay {
		for _, id := range d {
			if id.Site == site {
				continue
			}
			keys = append(keys, uint64(uint32(id.Site))<<32|uint64(uint32(id.Index)))
		}
	}
	slices.Sort(keys)
	var ids []stream.ID
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		ids = append(ids, stream.ID{Site: int(k >> 32), Index: int(uint32(k))})
	}
	return Subscription{Site: site, Streams: ids}
}
