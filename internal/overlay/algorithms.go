package overlay

// algorithms.go implements the forest construction strategies of §4.3:
// the tree-based orderings (LTF, STF, MCTF), the randomized algorithm RJ,
// and the granularity spectrum Gran-LTF that connects them. All strategies
// share the basic node join algorithm; they differ only in the order in
// which subscription requests are processed.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Algorithm constructs a forest for a problem. Implementations must be
// deterministic for a fixed rng state.
type Algorithm interface {
	// Name returns the paper's name for the algorithm (e.g. "LTF").
	Name() string
	// Construct builds the forest. The rng drives the randomized
	// request ordering inside whatever batches the algorithm defines.
	Construct(p *Problem, rng *rand.Rand) (*Forest, error)
}

// groupOrder ranks multicast groups for the tree-based algorithms.
type groupOrder int

const (
	orderLargestFirst groupOrder = iota
	orderSmallestFirst
	orderMinCapacityFirst
)

// sortGroups orders groups by the given criterion. Ties are broken by the
// pre-shuffled slice order: group sizes cluster heavily (most multicast
// groups are small), and a deterministic tie-break such as stream ID would
// place all of one site's trees consecutively, hot-spotting that source.
// Callers shuffle the groups with their seeded rng before sorting, which
// keeps runs reproducible per seed while randomizing ties as the paper's
// randomized processing does.
//
// The sort itself packs (criterion rank, input position) into one uint64
// per group and sorts the integers: the position suffix reproduces the
// stable tie-break while the sort runs without the reflect-based swapper.
// Inputs outside the packable range take the comparator fallback.
func sortGroups(ws *Workspace, p *Problem, groups []Group, order groupOrder) {
	if len(groups) < 2 {
		return
	}
	var fc []int
	if order == orderMinCapacityFirst {
		// Forwarding capacity O_i - m_i (§4.3.2): the out-degree left
		// for relaying after each local subscribed stream is sent out
		// once. Each group is one distinct requested stream, so m_i is
		// the number of groups sourced at i.
		if ws != nil {
			ws.fc = append(ws.fc[:0], p.Out...)
			fc = ws.fc
		} else {
			fc = append([]int(nil), p.Out...)
		}
		for _, g := range groups {
			fc[g.Source()]--
		}
	}
	// rank maps a group to the signed value the criterion sorts ascending.
	rank := func(g Group) int64 {
		switch order {
		case orderLargestFirst:
			return -int64(g.Size())
		case orderSmallestFirst:
			return int64(g.Size())
		default:
			// Aggregate forwarding capacity of the tree: sum over the
			// nodes of the multicast group G(s) (§4.3.2). G(s) is the set
			// of requesting RPs (§4.1), so the source is not included.
			total := int64(0)
			for _, m := range g.Members {
				total += int64(fc[m])
			}
			return total
		}
	}
	const posBits = 24
	const rankBias = int64(1) << 38
	var keys []uint64
	var scratch []Group
	if ws != nil {
		keys, scratch = ws.keys[:0], ws.gsort[:0]
	}
	packable := len(groups) <= 1<<posBits
	if packable {
		for i, g := range groups {
			v := rank(g)
			if v <= -rankBias || v >= rankBias {
				packable = false
				break
			}
			keys = append(keys, uint64(v+rankBias)<<posBits|uint64(i))
		}
	}
	if !packable {
		sort.SliceStable(groups, func(i, j int) bool { return rank(groups[i]) < rank(groups[j]) })
		return
	}
	slices.Sort(keys)
	scratch = append(scratch, groups...)
	for i, k := range keys {
		groups[i] = scratch[k&(1<<posBits-1)]
	}
	if ws != nil {
		ws.keys, ws.gsort = keys[:0], scratch[:0]
	}
}

// constructOrdered is the shared engine behind the tree-based orderings:
// shuffle the groups (randomized tie-breaking), sort by the criterion,
// then construct batch by batch. See constructBatchedWS (workspace.go)
// for the batching semantics.
func constructOrdered(ws *Workspace, p *Problem, rng *rand.Rand, order groupOrder, granularity int) (*Forest, error) {
	if rng == nil {
		return nil, errors.New("overlay: nil rng")
	}
	groups := ws.groupsFor(p)
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	sortGroups(ws, p, groups, order)
	return constructBatchedWS(ws, p, rng, groups, granularity)
}

// LTF is the Largest Tree First algorithm: construct trees one by one from
// the largest multicast group to the smallest, so that any trees starved
// of capacity at the end are the small ones.
type LTF struct{}

// Name implements Algorithm.
func (LTF) Name() string { return "LTF" }

// Construct implements Algorithm.
func (a LTF) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (LTF) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	return constructOrdered(ws, p, rng, orderLargestFirst, 1)
}

// STF is the Smallest Tree First algorithm, LTF reversed; the paper
// includes it as the control for the LTF hypothesis.
type STF struct{}

// Name implements Algorithm.
func (STF) Name() string { return "STF" }

// Construct implements Algorithm.
func (a STF) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (STF) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	return constructOrdered(ws, p, rng, orderSmallestFirst, 1)
}

// MCTF is the Minimum Capacity Tree First algorithm: construct first the
// trees whose multicast groups have the least aggregate forwarding
// capacity (the hardest trees), while resources remain.
type MCTF struct{}

// Name implements Algorithm.
func (MCTF) Name() string { return "MCTF" }

// Construct implements Algorithm.
func (a MCTF) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (MCTF) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	return constructOrdered(ws, p, rng, orderMinCapacityFirst, 1)
}

// RJ is the Random Join algorithm (§4.3.3): randomize all requests for the
// whole forest with no prioritization of any tree. The paper finds this
// simple strategy generally beats the tree-based orderings because it load
// balances request processing across trees.
type RJ struct{}

// Name implements Algorithm.
func (RJ) Name() string { return "RJ" }

// Construct implements Algorithm.
func (a RJ) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (RJ) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	groups := ws.groupsFor(p)
	// A single batch containing every tree: granularity F.
	g := len(groups)
	if g == 0 {
		g = 1
	}
	return constructBatchedWS(ws, p, rng, groups, g)
}

// GranLTF is the granularity-spectrum algorithm of §5.3: sort groups
// largest-first as LTF does, then construct G trees at a time, randomizing
// requests within each batch. GranLTF{G: 1} behaves like LTF;
// GranLTF{G: F} is RJ (with LTF's tie-breaking order across batches).
type GranLTF struct {
	// G is the granularity: the number of trees constructed at once.
	G int
}

// Name implements Algorithm.
func (a GranLTF) Name() string { return fmt.Sprintf("Gran-LTF(%d)", a.G) }

// Construct implements Algorithm.
func (a GranLTF) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (a GranLTF) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	return constructOrdered(ws, p, rng, orderLargestFirst, a.G)
}

// AllToAll is the conventional unicast baseline the paper abandons (§1):
// every subscribed stream is sent directly from its source to each
// requester, with no relaying. It ignores load balancing and forwarding —
// each request costs one source out-degree slot — and is included to
// quantify the benefit of the multicast forest.
type AllToAll struct{}

// Name implements Algorithm.
func (AllToAll) Name() string { return "AllToAll" }

// Construct implements Algorithm.
func (a AllToAll) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (AllToAll) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	if rng == nil {
		return nil, errors.New("overlay: nil rng")
	}
	f, err := ws.newForest(p)
	if err != nil {
		return nil, err
	}
	// Unicast has no reservation mechanism: every delivery is a direct
	// source link, so clear m̂ and account only raw degrees.
	for i := range f.mhat {
		f.mhat[i] = 0
	}
	reqs := ws.requestsFor(p)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for _, r := range reqs {
		src := r.Stream.Site
		t := f.tree(r.Stream)
		switch {
		case f.din[r.Node] >= p.In[r.Node]:
			f.markRejected(r)
		case f.dout[src] >= p.Out[src]:
			f.markRejected(r)
		case p.Cost[src][r.Node] >= p.Bcost:
			f.markRejected(r)
		default:
			// Direct bookkeeping: attach() would also consume the
			// reservation counters, which unicast does not use.
			f.attachEdge(t, src, r.Node, p.Cost[src][r.Node])
			f.dout[src]++
			f.din[r.Node]++
			f.slot(r.Stream).disseminated = true
			f.markAccepted(r)
		}
	}
	return f, nil
}

// Algorithms returns the paper's four principal algorithms in the order
// they appear in Figure 8.
func Algorithms() []Algorithm {
	return []Algorithm{STF{}, LTF{}, MCTF{}, RJ{}}
}

// ParseAlgorithm resolves a command-line algorithm name, case-insensitively:
// stf, ltf, mctf, rj, co-rj (or corj), alltoall (or all-to-all), and the
// granular LTF with its granularity inline, "gran-ltf:<g>" with g >= 1.
// Every plain algorithm's Name parses back to it.
func ParseAlgorithm(name string) (Algorithm, error) {
	lower := strings.ToLower(name)
	if g, ok := strings.CutPrefix(lower, "gran-ltf:"); ok {
		v, err := strconv.Atoi(g)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("overlay: bad granularity in %q", name)
		}
		return GranLTF{G: v}, nil
	}
	switch lower {
	case "stf":
		return STF{}, nil
	case "ltf":
		return LTF{}, nil
	case "mctf":
		return MCTF{}, nil
	case "rj":
		return RJ{}, nil
	case "co-rj", "corj":
		return CORJ{}, nil
	case "alltoall", "all-to-all":
		return AllToAll{}, nil
	}
	return nil, fmt.Errorf("overlay: unknown algorithm %q (want stf, ltf, mctf, rj, co-rj, alltoall or gran-ltf:<g>)", name)
}
