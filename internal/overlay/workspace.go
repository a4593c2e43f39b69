package overlay

// workspace.go is the allocation-reuse layer for repeated constructions:
// Monte-Carlo experiment engines build hundreds of forests per data point,
// and without reuse every sample pays for fresh trees, group tables,
// request copies and an N×N rejection matrix. A Workspace owns all of
// that state and a ConstructWith call recycles it; the algorithms'
// public Construct methods are ConstructWith with a nil workspace.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/tele3d/tele3d/internal/stream"
)

// Workspace holds reusable storage for repeated forest constructions.
// The forest returned by ConstructWith is owned by the workspace and is
// valid until the next ConstructWith call with the same workspace; copy
// anything that must outlive it. The zero value is ready to use.
type Workspace struct {
	forest  Forest
	groups  []Group
	members []int // shared backing array for group member slices
	batch   []Request
	reqs    []Request
	u       [][]int  // CO-RJ request matrix
	keys    []uint64 // packed sort keys (splitGroups, sortGroups)
	gsort   []Group  // group permutation scratch (sortGroups)
}

// forestFor resets the workspace's forest for the problem.
func (ws *Workspace) forestFor(p *Problem) (*Forest, error) {
	if err := ws.forest.Reset(p); err != nil {
		return nil, err
	}
	return &ws.forest, nil
}

// newForest returns a forest for the problem: the workspace's recycled
// forest when ws is non-nil, a fresh one otherwise.
func (ws *Workspace) newForest(p *Problem) (*Forest, error) {
	if ws == nil {
		return NewForest(p)
	}
	return ws.forestFor(p)
}

// groupsFor returns the problem's multicast groups, reusing the
// workspace's group, member and key storage when ws is non-nil. The
// result is identical to Problem.Groups.
func (ws *Workspace) groupsFor(p *Problem) []Group {
	if ws == nil {
		return p.Groups()
	}
	ws.groups, ws.members, ws.keys = splitGroups(p.Requests, ws.groups[:0], ws.members[:0], ws.keys[:0])
	return ws.groups
}

// requestsFor returns a mutable copy of the problem's requests, reusing
// the workspace's buffer when ws is non-nil.
func (ws *Workspace) requestsFor(p *Problem) []Request {
	if ws == nil {
		return append([]Request(nil), p.Requests...)
	}
	ws.reqs = append(ws.reqs[:0], p.Requests...)
	return ws.reqs
}

// requestMatrixFor returns the problem's u matrix, reusing the
// workspace's buffer when ws is non-nil.
func (ws *Workspace) requestMatrixFor(p *Problem) [][]int {
	if ws == nil {
		return p.RequestMatrix()
	}
	n := p.N()
	if cap(ws.u) >= n {
		ws.u = ws.u[:n]
	} else {
		ws.u = make([][]int, n)
	}
	for i := range ws.u {
		ws.u[i] = resizeInts(ws.u[i], n)
	}
	for _, r := range p.Requests {
		ws.u[r.Node][r.Stream.Site]++
	}
	return ws.u
}

// reusable is implemented by algorithms that can construct into a
// workspace. All package algorithms implement it.
type reusable interface {
	constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error)
}

// ConstructWith runs the algorithm over the problem, recycling the
// workspace's storage. With a nil workspace it is exactly
// alg.Construct(p, rng); with a workspace, the returned forest is owned
// by the workspace and valid until the next ConstructWith call.
func ConstructWith(ws *Workspace, alg Algorithm, p *Problem, rng *rand.Rand) (*Forest, error) {
	if ws == nil {
		return alg.Construct(p, rng)
	}
	r, ok := alg.(reusable)
	if !ok {
		return alg.Construct(p, rng)
	}
	return r.constructWith(ws, p, rng)
}

// constructBatchedWS is constructBatched with optional storage reuse: it
// materializes the full randomized join schedule, then executes it. Joins
// consume no randomness, so hoisting every batch shuffle ahead of every
// join leaves the rng stream — and therefore the constructed forest —
// exactly as the historical shuffle-join interleaving produced.
func constructBatchedWS(ws *Workspace, p *Problem, rng *rand.Rand, groups []Group, granularity int) (*Forest, error) {
	if rng == nil {
		return nil, errors.New("overlay: nil rng")
	}
	if granularity < 1 {
		return nil, fmt.Errorf("overlay: granularity %d < 1", granularity)
	}
	f, err := ws.newForest(p)
	if err != nil {
		return nil, err
	}
	var buf []Request
	if ws != nil {
		buf = ws.batch[:0]
	}
	sched := scheduleInto(buf, rng, groups, granularity)
	if ws != nil {
		ws.batch = sched
	}
	for _, r := range sched {
		f.Join(r)
	}
	return f, nil
}

// scheduleInto appends the batched construction's randomized join order to
// dst: the requests of each granularity-sized run of groups, shuffled
// within the run. This is the exact request sequence constructBatchedWS
// executes.
func scheduleInto(dst []Request, rng *rand.Rand, groups []Group, granularity int) []Request {
	for start := 0; start < len(groups); start += granularity {
		end := start + granularity
		if end > len(groups) {
			end = len(groups)
		}
		bstart := len(dst)
		for _, g := range groups[start:end] {
			for _, m := range g.Members {
				dst = append(dst, Request{Node: m, Stream: g.Stream})
			}
		}
		b := dst[bstart:]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return dst
}

// Packed request-key layout for splitGroups: (site, index, node) packed
// into one uint64 so the grouping sort runs over plain integers instead
// of a reflect-based comparator. The widths cover every realistic domain
// (index is already capped at maxStreamIndex); requests outside them fall
// back to the comparator path.
const (
	packNodeBits = 20
	packIdxBits  = 17
	packSiteBits = 20
)

// splitGroups partitions the requests into multicast groups, appending to
// the provided buffers: groups collects the Group headers, members is the
// shared backing array their Members slices point into, keys is the
// reusable packed-key scratch. The result is identical to the historical
// comparator-based grouping — streams ascending, members ascending — but
// sorts packed integers, which is several times cheaper. Requests are
// unique, so the sort order is total and any sort implementation yields
// the same result. The input slice is never mutated.
func splitGroups(reqs []Request, groups []Group, members []int, keys []uint64) ([]Group, []int, []uint64) {
	packable := true
	for _, r := range reqs {
		if uint(r.Stream.Site) >= 1<<packSiteBits || uint(r.Stream.Index) >= 1<<packIdxBits || uint(r.Node) >= 1<<packNodeBits {
			packable = false
			break
		}
	}
	if !packable {
		groups, members = splitGroupsSlow(reqs, groups, members)
		return groups, members, keys
	}
	for _, r := range reqs {
		keys = append(keys, uint64(r.Stream.Site)<<(packIdxBits+packNodeBits)|
			uint64(r.Stream.Index)<<packNodeBits|uint64(r.Node))
	}
	slices.Sort(keys)
	for i := 0; i < len(keys); {
		j := i
		sk := keys[i] >> packNodeBits
		start := len(members)
		for ; j < len(keys) && keys[j]>>packNodeBits == sk; j++ {
			members = append(members, int(keys[j]&(1<<packNodeBits-1)))
		}
		id := stream.ID{Site: int(sk >> packIdxBits), Index: int(sk & (1<<packIdxBits - 1))}
		groups = append(groups, Group{Stream: id, Members: members[start:len(members):len(members)]})
		i = j
	}
	return groups, members, keys
}

// splitGroupsSlow is the comparator fallback for requests whose fields do
// not fit the packed-key layout; it copies the input before sorting.
func splitGroupsSlow(reqs []Request, groups []Group, members []int) ([]Group, []int) {
	scratch := append([]Request(nil), reqs...)
	sort.Slice(scratch, func(i, j int) bool {
		if scratch[i].Stream != scratch[j].Stream {
			return scratch[i].Stream.Less(scratch[j].Stream)
		}
		return scratch[i].Node < scratch[j].Node
	})
	for i := 0; i < len(scratch); {
		j := i
		start := len(members)
		for ; j < len(scratch) && scratch[j].Stream == scratch[i].Stream; j++ {
			members = append(members, scratch[j].Node)
		}
		groups = append(groups, Group{Stream: scratch[i].Stream, Members: members[start:len(members):len(members)]})
		i = j
	}
	return groups, members
}
