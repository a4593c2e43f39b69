package overlay

// corj.go implements CO-RJ (§4.4): Random Join optimized with semantic
// stream correlation. Streams from one site are highly correlated (the
// cameras film the same scene from different angles), so losing one of
// many streams from a site merely degrades that scene, while losing the
// only stream from a site loses the scene entirely. CO-RJ quantifies this
// with the criticality Q_{i→j} = 1/u_{i→j} and, when a request is rejected
// by saturation, evicts a less critical "victim" leaf edge and reuses its
// parent link for the more critical stream.

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"github.com/tele3d/tele3d/internal/stream"
)

// CORJ is the correlation-optimized Random Join algorithm.
type CORJ struct{}

// Name implements Algorithm.
func (CORJ) Name() string { return "CO-RJ" }

// Construct implements Algorithm.
func (a CORJ) Construct(p *Problem, rng *rand.Rand) (*Forest, error) {
	return a.constructWith(nil, p, rng)
}

func (CORJ) constructWith(ws *Workspace, p *Problem, rng *rand.Rand) (*Forest, error) {
	if rng == nil {
		return nil, errors.New("overlay: nil rng")
	}
	f, err := ws.newForest(p)
	if err != nil {
		return nil, err
	}
	u := ws.requestMatrixFor(p)
	reqs := ws.requestsFor(p)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for _, r := range reqs {
		switch f.Join(r) {
		case RejectedSaturated:
			f.trySwap(r, u)
		case RejectedInbound:
			f.trySwapInbound(r, u)
		}
	}
	return f, nil
}

// Criticality returns Q_{i→j} = 1/u_{i→j} (Equation 2), the cost for node
// i of losing one stream originating at site j. Zero u (no subscription)
// yields +Inf: losing a stream you never asked for is a non-event, but the
// value is never consulted in that case; Inf keeps comparisons safe.
func Criticality(u [][]int, i, j int) float64 {
	if u[i][j] == 0 {
		return math.Inf(1)
	}
	return 1 / float64(u[i][j])
}

// trySwap attempts the CO-RJ victim swap for a rejected request r_i(s_j^p).
// It scans the streams node i currently receives for a victim s_k^q
// satisfying the four conditions of §4.4:
//
//	(1) Q_{i→k} < Q_{i→j} — the victim is less critical to lose;
//	(2) node i is a leaf in the victim's tree T_k, so unlinking it harms
//	    no other node;
//	(3) i's parent in T_k has already joined T_j (it holds stream s_j^p);
//	(4) connecting i under that parent in T_j satisfies the latency bound.
//
// Among all eligible victims the least critical one is evicted. On success
// the request is re-recorded as accepted and the victim as rejected.
func (f *Forest) trySwap(r Request, u [][]int) bool {
	i := r.Node
	j := r.Stream.Site
	targetTree := f.tree(r.Stream)
	if targetTree.Contains(i) {
		return false
	}
	qTarget := Criticality(u, i, j)
	f.ensureNodeTrees()

	var victim stream.ID
	var victimParent int
	found := false
	bestQ := qTarget
	// The per-node tree index lists exactly the trees containing i, in
	// the same ascending stream order the historical full-forest scan
	// visited them in, so the "least critical victim" tie-breaks are
	// unchanged while the scan skips every irrelevant tree.
	for _, t := range f.nodeTrees[i] {
		k := t.Source
		if k == j || t.Stream == r.Stream {
			continue
		}
		q := Criticality(u, i, k)
		if q >= bestQ { // condition (1), keeping the least critical victim
			continue
		}
		if !t.IsLeaf(i) { // condition (2)
			continue
		}
		parent, ok := t.Parent(i)
		if !ok || !targetTree.Contains(parent) { // condition (3)
			continue
		}
		pCost, _ := targetTree.CostFromSource(parent)
		if pCost+f.problem.Cost[parent][i] >= f.problem.Bcost { // condition (4)
			continue
		}
		victim, victimParent, found, bestQ = t.Stream, parent, true, q
	}
	if !found {
		return false
	}

	// Evict the victim: remove the leaf edge parent→i from T_victim.
	// Degrees stay balanced because the same physical link is re-pointed
	// at the new stream.
	vt := f.tree(victim)
	f.detachLeaf(vt, i)
	f.dout[victimParent]--
	f.din[i]--
	victimReq := Request{Node: i, Stream: victim}
	f.unaccept(victimReq)
	f.markRejected(victimReq)

	// Satisfy the rejected request on the freed link.
	f.unreject(r)
	f.attach(r, targetTree, victimParent)
	return true
}

// trySwapInbound handles the inbound-saturation variant of the CO-RJ
// victim swap. When r_i(s_j^p) is rejected because din(i) = I_i, the
// resource to free is node i's own inbound slot: evicting any less
// critical leaf edge of i releases one slot, after which the target join
// proceeds through the ordinary parent search (the freed slot belongs to
// i, so no parent-coincidence condition applies). The victim is restored
// unchanged if no eligible parent exists in the target tree.
func (f *Forest) trySwapInbound(r Request, u [][]int) bool {
	i := r.Node
	j := r.Stream.Site
	targetTree := f.tree(r.Stream)
	if targetTree.Contains(i) {
		return false
	}
	qTarget := Criticality(u, i, j)
	f.ensureNodeTrees()

	// Collect all victim candidates satisfying conditions (1) and (2),
	// least critical first.
	type candidate struct {
		stream stream.ID
		q      float64
	}
	var cands []candidate
	for _, t := range f.nodeTrees[i] {
		k := t.Source
		if k == j || t.Stream == r.Stream {
			continue
		}
		q := Criticality(u, i, k)
		if q >= qTarget { // condition (1): strictly less critical
			continue
		}
		if !t.IsLeaf(i) { // condition (2): unlinking harms nobody else
			continue
		}
		cands = append(cands, candidate{stream: t.Stream, q: q})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].q != cands[b].q {
			return cands[a].q < cands[b].q
		}
		return cands[a].stream.Less(cands[b].stream)
	})

	// Try victims in ascending criticality: freeing the victim edge
	// releases one inbound slot at i and one outbound slot at the old
	// parent; the join succeeds if any target-tree holder (the old parent
	// included, per the paper's condition (3)) can now serve i.
	for _, c := range cands {
		vt := f.tree(c.stream)
		victimParent, _ := vt.Parent(i)
		victimEdgeCost := f.problem.Cost[victimParent][i]
		f.detachLeaf(vt, i)
		f.dout[victimParent]--
		f.din[i]--

		parent, ok := f.findParent(i, targetTree)
		if !ok {
			// Roll back: restore the victim edge exactly as it was.
			f.attachEdge(vt, victimParent, i, victimEdgeCost)
			f.dout[victimParent]++
			f.din[i]++
			continue
		}
		victimReq := Request{Node: i, Stream: c.stream}
		f.unaccept(victimReq)
		f.markRejected(victimReq)
		f.unreject(r)
		f.attach(r, targetTree, parent)
		return true
	}
	return false
}
