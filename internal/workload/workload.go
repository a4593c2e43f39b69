// Package workload generates the node-capacity distributions and
// subscription workloads of the paper's evaluation (§5.1):
//
//   - uniform capacities O=I=20±ε (ε ~ U[0,5]) with 20 streams per site,
//     or heterogeneous capacities 30/20/10 at 50%/25%/25% with U[10,30]
//     streams per site;
//   - Zipf-distributed stream popularity (front cameras — low camera
//     indices — are subscribed by most sites) or random (uniform)
//     popularity;
//   - 200 independent samples per experimental point.
//
// Capacities are expressed in stream units, exactly as in the paper.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/tele3d/tele3d/internal/stream"
)

// Site holds one site's resources.
type Site struct {
	In         int // inbound bandwidth limit I_i, in streams
	Out        int // outbound bandwidth limit O_i, in streams
	NumStreams int // streams the site originates (its camera count)
}

// CapacityKind selects the node resource distribution of §5.1.
type CapacityKind int

const (
	// CapacityUniform: O_i = I_i = 20±ε with ε ~ U[0,5]; 20 streams/site.
	CapacityUniform CapacityKind = iota + 1
	// CapacityHeterogeneous: 50% of sites have capacity 30, 25% have 20,
	// 25% have 10; streams/site ~ U[10,30].
	CapacityHeterogeneous
)

// String implements fmt.Stringer.
func (k CapacityKind) String() string {
	switch k {
	case CapacityUniform:
		return "uniform"
	case CapacityHeterogeneous:
		return "heterogeneous"
	default:
		return fmt.Sprintf("CapacityKind(%d)", int(k))
	}
}

// PopularityKind selects the subscription workload distribution of §5.1.
type PopularityKind int

const (
	// PopularityZipf: stream popularity follows a Zipf-like law over the
	// camera index — front cameras are wanted by most sites.
	PopularityZipf PopularityKind = iota + 1
	// PopularityRandom: all streams are equally likely to be subscribed.
	PopularityRandom
	// PopularityZipfSites: Zipf-like skew across both participants and
	// cameras — some sites (e.g. the lead performer in a collaborative
	// dance) draw far more subscriptions than others, and within a site
	// the front cameras dominate. Produces the wide u_{i→j} spread the
	// criticality optimization of CO-RJ (Fig. 11) exploits.
	PopularityZipfSites
)

// String implements fmt.Stringer.
func (k PopularityKind) String() string {
	switch k {
	case PopularityZipf:
		return "zipf"
	case PopularityRandom:
		return "random"
	case PopularityZipfSites:
		return "zipf-sites"
	default:
		return fmt.Sprintf("PopularityKind(%d)", int(k))
	}
}

// Mode selects the subscription sampling scheme.
type Mode int

const (
	// ModeCoverage (default) matches the paper's setup sentence "the
	// number of streams each site has to send is 20": every stream is
	// subscribed by at least one other site (a coverage pass assigns
	// each stream one uniform-random subscriber), then each site fills
	// its subscription set up to SubscribeFraction of the remote streams
	// by popularity-weighted sampling. Coverage makes m_i equal the
	// site's stream count, so sources whose capacity sits below their
	// send obligation become the contended resource — the regime all the
	// paper's figures live in.
	ModeCoverage Mode = iota
	// ModeFraction skips the coverage pass: each site independently
	// samples SubscribeFraction of the remote streams. Streams can end
	// up with no subscriber (m_i < NumStreams).
	ModeFraction
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCoverage:
		return "coverage"
	case ModeFraction:
		return "fraction"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes workload generation.
type Config struct {
	N          int            // number of sites (paper: 3..10, up to 20 in Fig. 10)
	Capacity   CapacityKind   // node resource distribution
	Popularity PopularityKind // subscription distribution
	Mode       Mode           // subscription sampling scheme

	// ZipfExponent is the s parameter of the Zipf law; 0 means 1.0.
	ZipfExponent float64

	// SubscribeFraction is the fraction of all remote streams each site
	// subscribes to. The participant "typically wants to see a large
	// portion of other participants", so the per-site request count grows
	// with the session — this is what drives the rising rejection curves
	// of Fig. 8. 0 means the calibrated default of 0.15.
	SubscribeFraction float64

	// CoverageRate is the probability, under ModeCoverage, that a given
	// stream is force-assigned a subscriber in the coverage pass. 1.0
	// makes every site send its full stream set ("the number of streams
	// each site has to send is 20"); lower rates leave some streams
	// demand-driven only. 0 means the calibrated default of 0.8.
	CoverageRate float64

	// StreamsPerSite overrides every site's camera count (uniform: 20;
	// heterogeneous: U[10,30]). 0 keeps the capacity kind's default. The
	// override is applied after the kind's random draws, so the capacity
	// assignment itself is undisturbed — but the subscription passes
	// consume RNG draws per stream, so a different stream count still
	// changes every draw after site generation.
	StreamsPerSite int

	// Bandwidth overrides every site's in/out budget in stream units
	// (uniform: 20−ε; heterogeneous: 30/20/10). 0 keeps the kind's
	// default. Applied after the kind's random draws and consuming none
	// itself, so the rest of the sample is unchanged.
	Bandwidth int
}

func (c Config) withDefaults() Config {
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 1.0
	}
	if c.SubscribeFraction == 0 {
		c.SubscribeFraction = 0.15
	}
	if c.CoverageRate == 0 {
		c.CoverageRate = 0.8
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.N < 2:
		return fmt.Errorf("workload: N=%d < 2", c.N)
	case c.Capacity != CapacityUniform && c.Capacity != CapacityHeterogeneous:
		return fmt.Errorf("workload: unknown capacity kind %d", c.Capacity)
	case c.Popularity != PopularityZipf && c.Popularity != PopularityRandom && c.Popularity != PopularityZipfSites:
		return fmt.Errorf("workload: unknown popularity kind %d", c.Popularity)
	case c.ZipfExponent < 0:
		return fmt.Errorf("workload: negative zipf exponent %v", c.ZipfExponent)
	case c.SubscribeFraction < 0 || c.SubscribeFraction > 1:
		return fmt.Errorf("workload: subscribe fraction %v out of [0,1]", c.SubscribeFraction)
	case c.CoverageRate < 0 || c.CoverageRate > 1:
		return fmt.Errorf("workload: coverage rate %v out of [0,1]", c.CoverageRate)
	case c.StreamsPerSite < 0:
		return fmt.Errorf("workload: negative streams per site %d", c.StreamsPerSite)
	case c.Bandwidth < 0:
		return fmt.Errorf("workload: negative bandwidth %d", c.Bandwidth)
	}
	return nil
}

// Workload is one sample: the sites with their capacities plus the global
// subscription sets (which site subscribes to which streams).
type Workload struct {
	Sites []Site
	// Subs[i] lists the remote streams site i subscribes to, sorted by
	// stream ID, no duplicates, none originating at site i.
	Subs [][]stream.ID
}

// New validates and constructs a workload from explicit parts. Used when
// subscriptions come from the FOV framework rather than a generator.
func New(sites []Site, subs [][]stream.ID) (*Workload, error) {
	if len(sites) != len(subs) {
		return nil, fmt.Errorf("workload: %d sites but %d subscription sets", len(sites), len(subs))
	}
	w := &Workload{Sites: sites, Subs: subs}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Validate checks internal consistency: subscription targets must exist,
// must not be local, and must not repeat.
func (w *Workload) Validate() error {
	n := len(w.Sites)
	if n < 2 {
		return fmt.Errorf("workload: %d sites < 2", n)
	}
	for i, s := range w.Sites {
		if s.In < 0 || s.Out < 0 || s.NumStreams < 0 {
			return fmt.Errorf("workload: site %d has negative resources %+v", i, s)
		}
	}
	for i, subs := range w.Subs {
		sorted := true
		for k, id := range subs {
			if id.Site == i {
				return fmt.Errorf("workload: site %d subscribes to its own stream %v", i, id)
			}
			if id.Site < 0 || id.Site >= n {
				return fmt.Errorf("workload: site %d subscribes to stream %v of nonexistent site", i, id)
			}
			if id.Index < 0 || id.Index >= w.Sites[id.Site].NumStreams {
				return fmt.Errorf("workload: site %d subscribes to nonexistent stream %v", i, id)
			}
			if k > 0 && !subs[k-1].Less(id) {
				if subs[k-1] == id {
					return fmt.Errorf("workload: site %d subscribes to %v twice", i, id)
				}
				sorted = false
			}
		}
		if sorted {
			continue
		}
		// Unsorted subscription sets (hand-built workloads) fall back to
		// a map for the duplicate check; generated sets are sorted and
		// are fully covered by the adjacent comparison above.
		seen := make(map[stream.ID]bool, len(subs))
		for _, id := range subs {
			if seen[id] {
				return fmt.Errorf("workload: site %d subscribes to %v twice", i, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// N returns the number of sites.
func (w *Workload) N() int { return len(w.Sites) }

// TotalRequests returns the total number of subscription requests.
func (w *Workload) TotalRequests() int {
	var t int
	for _, s := range w.Subs {
		t += len(s)
	}
	return t
}

// RequestMatrix returns u where u[i][j] is the number of streams
// originating from site j that site i subscribes to (the paper's u_{i→j}).
func (w *Workload) RequestMatrix() [][]int {
	n := len(w.Sites)
	u := make([][]int, n)
	for i := range u {
		u[i] = make([]int, n)
	}
	for i, subs := range w.Subs {
		for _, id := range subs {
			u[i][id.Site]++
		}
	}
	return u
}

// SubscribedStreams returns the distinct streams subscribed by at least
// one site, sorted by ID. Each such stream is one multicast group of the
// forest.
func (w *Workload) SubscribedStreams() []stream.ID {
	seen := make(map[stream.ID]bool)
	var out []stream.ID
	for _, subs := range w.Subs {
		for _, id := range subs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	stream.SortIDs(out)
	return out
}

// Generate draws one workload sample.
func Generate(cfg Config, rng *rand.Rand) (*Workload, error) {
	if rng == nil {
		return nil, errors.New("workload: nil rng")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	sites := generateSites(cfg, rng)
	w := &Workload{Sites: sites, Subs: make([][]stream.ID, cfg.N)}

	// Site popularity ranks for PopularityZipfSites: a random permutation
	// of the sites, hottest first.
	siteRank := rng.Perm(cfg.N)

	// chosen is a dense per-site bitmap over the flattened stream space
	// (offsets[j] is where site j's streams start): the selection state
	// of sample generation is pure bookkeeping — it consumes no random
	// draws — so the flat representation replaces the historical per-site
	// maps without moving a single rng call.
	offsets := make([]int, cfg.N+1)
	for j, s := range sites {
		offsets[j+1] = offsets[j] + s.NumStreams
	}
	totalStreams := offsets[cfg.N]
	chosenFlat := make([]bool, cfg.N*totalStreams)
	chosen := func(i int) []bool { return chosenFlat[i*totalStreams : (i+1)*totalStreams] }
	counts := make([]int, cfg.N)

	if cfg.Mode == ModeCoverage {
		// Coverage pass: every stream gets exactly one uniform-random
		// subscriber, so each site's full stream set must be sent
		// ("the number of streams each site has to send is 20").
		for j, s := range sites {
			for q := 0; q < s.NumStreams; q++ {
				if cfg.CoverageRate < 1 && rng.Float64() >= cfg.CoverageRate {
					continue
				}
				i := rng.Intn(cfg.N - 1)
				if i >= j {
					i++
				}
				if row := chosen(i); !row[offsets[j]+q] {
					row[offsets[j]+q] = true
					counts[i]++
				}
			}
		}
	}

	// Fill pass: weighted sampling without replacement via exponential
	// keys (key = U^(1/w); the k largest keys are the sample) until each
	// site holds SubscribeFraction of the remote streams.
	//
	// The weight of stream s_j^q depends only on (j, q), not on the
	// subscribing node, so the exponents 1/w are precomputed once per
	// stream — the identical float expressions in the identical order, so
	// every key is bit-for-bit what the per-node recomputation produced —
	// leaving one rng-dependent Pow per draw in the loop.
	invW := make([]float64, totalStreams)
	for j, s := range sites {
		for q := 0; q < s.NumStreams; q++ {
			wgt := 1.0
			switch cfg.Popularity {
			case PopularityZipf:
				wgt = 1 / math.Pow(float64(q+1), cfg.ZipfExponent)
			case PopularityZipfSites:
				wgt = 1 / math.Pow(float64(siteRank[j]+1), cfg.ZipfExponent)
				wgt *= 1 / math.Pow(float64(q+1), 0.5)
			}
			invW[offsets[j]+q] = 1 / wgt
		}
	}
	type keyed struct {
		id  stream.ID
		key float64
	}
	remote := make([]keyed, 0, totalStreams)
	for i := 0; i < cfg.N; i++ {
		row := chosen(i)
		remote = remote[:0]
		var totalRemote int
		for j, s := range sites {
			if j == i {
				continue
			}
			for q := 0; q < s.NumStreams; q++ {
				totalRemote++
				if row[offsets[j]+q] {
					continue // already forced by coverage
				}
				u := rng.Float64()
				for u == 0 {
					u = rng.Float64()
				}
				remote = append(remote, keyed{id: stream.ID{Site: j, Index: q}, key: math.Pow(u, invW[offsets[j]+q])})
			}
		}
		k := int(math.Round(cfg.SubscribeFraction*float64(totalRemote))) - counts[i]
		if k > len(remote) {
			k = len(remote)
		}
		if k > 0 {
			sort.Slice(remote, func(a, b int) bool { return remote[a].key > remote[b].key })
			for idx := 0; idx < k; idx++ {
				id := remote[idx].id
				row[offsets[id.Site]+id.Index] = true
				counts[i]++
			}
		}
		// Collect in flat order, which is ascending (Site, Index) — the
		// exact order the historical sort produced.
		subs := make([]stream.ID, 0, counts[i])
		for j := 0; j < cfg.N; j++ {
			for q := offsets[j]; q < offsets[j+1]; q++ {
				if row[q] {
					subs = append(subs, stream.ID{Site: j, Index: q - offsets[j]})
				}
			}
		}
		w.Subs[i] = subs
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid sample: %w", err)
	}
	return w, nil
}

func generateSites(cfg Config, rng *rand.Rand) []Site {
	sites := make([]Site, cfg.N)
	switch cfg.Capacity {
	case CapacityUniform:
		for i := range sites {
			// O = I = 20±ε, ε ~ U[0,5], read as capacity dipping below
			// the 20-stream send obligation (20−ε). Under the 20+ε
			// reading every source constraint is slack, all algorithms
			// collapse onto identical rejection curves, and none of the
			// Figure 8 separations can exist; the minus reading is the
			// one consistent with the paper's reported results.
			c := 20 - rng.Intn(6)
			sites[i] = Site{In: c, Out: c, NumStreams: 20}
		}
	case CapacityHeterogeneous:
		// Deterministic 50/25/25 split, shuffled: with small N a purely
		// random assignment frequently yields no large node at all, which
		// the paper's fixed percentages rule out.
		caps := make([]int, cfg.N)
		for i := range caps {
			switch {
			case i < (cfg.N+1)/2:
				caps[i] = 30
			case i < (cfg.N+1)/2+(cfg.N-(cfg.N+1)/2+1)/2:
				caps[i] = 20
			default:
				caps[i] = 10
			}
		}
		rng.Shuffle(len(caps), func(a, b int) { caps[a], caps[b] = caps[b], caps[a] })
		for i := range sites {
			sites[i] = Site{In: caps[i], Out: caps[i], NumStreams: 10 + rng.Intn(21)}
		}
	}
	for i := range sites {
		if cfg.StreamsPerSite > 0 {
			sites[i].NumStreams = cfg.StreamsPerSite
		}
		if cfg.Bandwidth > 0 {
			sites[i].In = cfg.Bandwidth
			sites[i].Out = cfg.Bandwidth
		}
	}
	return sites
}
