package overlay

import (
	"fmt"
	"sort"

	"github.com/tele3d/tele3d/internal/stream"
)

// Tree is one multicast tree T_s: the dissemination structure for a single
// stream, rooted at the stream's source RP.
//
// State is kept in dense flat arrays indexed by node ID (see doc.go,
// "Flat-array invariants"): parent pointers, accumulated costs and ordered
// child lists are O(1) lookups with no hashing, and the membership list is
// maintained incrementally in ascending node order so iteration needs no
// sorting and no allocation. The arrays grow on demand to the highest node
// ID ever touched; in steady state every mutation is allocation-free.
type Tree struct {
	Stream stream.ID
	Source int

	// skey packs (Site, Index) into one comparable word so the
	// incremental index insertions order trees without interface calls;
	// it is equivalent to Stream.Less for the package's non-negative
	// site/index domain.
	skey uint64

	parent   []int32   // member -> parent; -1 for the source and non-members
	in       []bool    // membership bitmap
	cost     []float64 // accumulated latency from the source
	children [][]int32 // node -> ordered children (join order)
	members  []int32   // members in ascending node order
}

// streamKey packs a stream ID into a single ordered comparison key.
func streamKey(id stream.ID) uint64 {
	return uint64(uint32(id.Site))<<32 | uint64(uint32(id.Index))
}

func newTree(id stream.ID) *Tree {
	return newTreeN(id, id.Site+1)
}

// newTreeN pre-sizes the tree's flat arrays for nodes [0, n); the arrays
// still grow on demand if a larger node ID appears.
func newTreeN(id stream.ID, n int) *Tree {
	t := &Tree{Stream: id, Source: id.Site, skey: streamKey(id)}
	t.ensure(n - 1)
	t.addMember(t.Source, -1, 0)
	return t
}

// ensure grows the flat arrays to cover node; no-op once covered.
func (t *Tree) ensure(node int) {
	if node < len(t.in) {
		return
	}
	n := node + 1
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	copy(parent, t.parent)
	in := make([]bool, n)
	copy(in, t.in)
	cost := make([]float64, n)
	copy(cost, t.cost)
	children := make([][]int32, n)
	copy(children, t.children)
	t.parent, t.in, t.cost, t.children = parent, in, cost, children
}

// addMember inserts node into the membership list (ascending order) and
// records its parent and cost. parent < 0 marks the source.
func (t *Tree) addMember(node, parent int, cost float64) {
	t.ensure(node)
	t.parent[node] = int32(parent)
	t.in[node] = true
	t.cost[node] = cost
	i := sort.Search(len(t.members), func(i int) bool { return t.members[i] >= int32(node) })
	t.members = append(t.members, 0)
	copy(t.members[i+1:], t.members[i:])
	t.members[i] = int32(node)
}

// dropMember removes node from the membership list and clears its slots.
func (t *Tree) dropMember(node int) {
	t.parent[node] = -1
	t.in[node] = false
	t.cost[node] = 0
	i := sort.Search(len(t.members), func(i int) bool { return t.members[i] >= int32(node) })
	copy(t.members[i:], t.members[i+1:])
	t.members = t.members[:len(t.members)-1]
}

// Contains reports whether the node receives (or sources) the stream.
func (t *Tree) Contains(node int) bool {
	return node >= 0 && node < len(t.in) && t.in[node]
}

// Size returns the number of nodes in the tree including the source.
func (t *Tree) Size() int { return len(t.members) }

// Parent returns the parent of the node; ok is false for the source or
// nodes outside the tree.
func (t *Tree) Parent(node int) (int, bool) {
	if !t.Contains(node) || t.parent[node] < 0 {
		return 0, false
	}
	return int(t.parent[node]), true
}

// Children returns a copy of the node's children, in join order.
func (t *Tree) Children(node int) []int {
	var ch []int32
	if node >= 0 && node < len(t.children) {
		ch = t.children[node]
	}
	out := make([]int, len(ch))
	for i, c := range ch {
		out[i] = int(c)
	}
	return out
}

// ChildrenRef returns the node's children in join order as the tree's
// internal slice, without copying. Callers must treat the slice as
// read-only and must not hold it across tree mutations; it exists for
// hot paths (the event simulator's forwarding loop) where the Children
// copy would dominate.
func (t *Tree) ChildrenRef(node int) []int32 {
	return t.childrenOf(node)
}

// childrenOf returns the node's children in join order without copying;
// callers must not mutate the slice or the tree while holding it.
func (t *Tree) childrenOf(node int) []int32 {
	if node < 0 || node >= len(t.children) {
		return nil
	}
	return t.children[node]
}

// ForEachNode calls fn for every tree member in ascending node order —
// the same order Nodes() returns — without copying or sorting. fn must
// not mutate the tree.
func (t *Tree) ForEachNode(fn func(node int)) {
	for _, m := range t.members {
		fn(int(m))
	}
}

// CostFromSource returns the accumulated latency from the source to the
// node; ok is false if the node is not in the tree.
func (t *Tree) CostFromSource(node int) (float64, bool) {
	if !t.Contains(node) {
		return 0, false
	}
	return t.cost[node], true
}

// IsLeaf reports whether the node is in the tree and has no children.
func (t *Tree) IsLeaf(node int) bool {
	return t.Contains(node) && len(t.children[node]) == 0
}

// Nodes returns all nodes in the tree, sorted.
func (t *Tree) Nodes() []int {
	out := make([]int, len(t.members))
	for i, m := range t.members {
		out[i] = int(m)
	}
	return out
}

// Edges returns all parent→child edges, sorted by (parent, child).
func (t *Tree) Edges() [][2]int {
	var out [][2]int
	for _, m := range t.members {
		if p := t.parent[m]; p >= 0 {
			out = append(out, [2]int{int(p), int(m)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (t *Tree) addEdge(parent, child int, edgeCost float64) {
	t.ensure(parent)
	t.addMember(child, parent, t.cost[parent]+edgeCost)
	t.children[parent] = append(t.children[parent], int32(child))
}

func (t *Tree) removeLeaf(child int) {
	if !t.Contains(child) || t.parent[child] < 0 || len(t.children[child]) > 0 {
		return
	}
	p := int(t.parent[child])
	siblings := t.children[p]
	for i, c := range siblings {
		if int(c) == child {
			copy(siblings[i:], siblings[i+1:])
			t.children[p] = siblings[:len(siblings)-1]
			break
		}
	}
	t.dropMember(child)
}

// reset returns the tree to the fresh single-source state for the stream,
// keeping its allocated arrays for reuse.
func (t *Tree) reset(id stream.ID) {
	for _, m := range t.members {
		t.parent[m] = -1
		t.in[m] = false
		t.cost[m] = 0
		t.children[m] = t.children[m][:0]
	}
	t.members = t.members[:0]
	t.Stream = id
	t.Source = id.Site
	t.skey = streamKey(id)
	t.ensure(t.Source)
	t.addMember(t.Source, -1, 0)
}

// maxStreamIndex bounds stream indexes the forest accepts. The dense
// per-stream slot table sizes a site's row to the highest index seen, so
// unlike the historical map-backed state an unbounded index would turn
// into an unbounded allocation (and a negative one into an out-of-range
// panic); real sites have tens of cameras, so the cap is generous.
const maxStreamIndex = 1 << 16

// streamSlot is the dense per-stream state of the forest: the stream's
// tree (nil before the first join attempt and after tree reclamation),
// whether the stream has ever left its source, and the number of live
// requests for it. Slots replace the stream-keyed maps the forest used to
// carry, so the per-join lookups are two array indexings instead of a
// hash.
type streamSlot struct {
	tree         *Tree
	disseminated bool
	reqs         int
}

// Forest is the overlay under construction (and the finished artifact): a
// set of multicast trees sharing the per-node degree budgets.
type Forest struct {
	problem *Problem

	// slots[site][index] is the per-stream state, grown on demand to the
	// highest stream index seen.
	slots    [][]streamSlot
	numTrees int
	// treeList caches the trees in ascending stream order. During static
	// construction new trees are appended and treeSorted tracks whether
	// the append order happens to be sorted; every ordered reader calls
	// ensureTreeList first, so a construction that creates F trees pays
	// one O(F log F) sort instead of F sorted inserts (each an O(F)
	// pointer-slice shift through the write barrier).
	treeList   []*Tree
	treeSorted bool
	// nodeTrees[i] lists the trees containing node i, in ascending stream
	// order — the CO-RJ victim scans touch only these instead of every
	// tree in the forest. The index is built lazily (idxBuilt): static
	// construction never consults it, so the per-attach sorted inserts
	// are skipped entirely until the first reader materializes it, after
	// which every mutation maintains it incrementally as before.
	nodeTrees [][]*Tree
	idxBuilt  bool
	// treePool recycles Tree structures freed by Reset.
	treePool []*Tree

	din  []int // actual inbound degree per node
	dout []int // actual outbound degree per node
	mhat []int // m̂_i: pending reservations per node

	// reqSet indexes problem.Requests for O(1) duplicate detection under
	// per-event churn (Subscribe used to scan the whole request slice).
	// It is built lazily on the first dynamic operation — the static
	// construction algorithms never consult it — and is insensitive to
	// request reordering, so the construction shuffles never invalidate
	// it.
	reqSet map[Request]struct{}

	// accepted/rejected are unordered backing stores; accSeq/rejSeq carry
	// the processing-order sequence number of each entry and accPos/rejPos
	// map a request to its backing index, so unaccept/unreject are O(1)
	// swap-removes while the public accessors reconstruct processing
	// order from the sequence numbers. The position maps are built lazily
	// (posBuilt): only unaccept/unreject consult them, so a forest that is
	// never swapped or churned skips the per-request map fills.
	accepted []Request
	accSeq   []uint64
	accPos   map[Request]int
	rejected []Request
	rejSeq   []uint64
	rejPos   map[Request]int
	posBuilt bool
	seq      uint64

	// rej[i][j] counts rejected requests from node i for site j streams
	// (the paper's û_{i→j}).
	rej [][]int

	// scratch buffers reused by dynamic operations (detachSubtree) and
	// the per-Reset problem validation (valKeys).
	scratchOrphans []int
	valKeys        []uint64
}

// NewForest prepares an empty forest for the problem: degree counters at
// zero and every reservation slot (m̂) in place.
func NewForest(p *Problem) (*Forest, error) {
	f := &Forest{}
	if err := f.Reset(p); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset re-initializes the forest for a (possibly different) problem,
// reusing every allocation from the previous construction: flat arrays,
// index maps, tree structures and the rejection matrix. It is the
// workspace path behind repeated Monte-Carlo constructions; NewForest is
// Reset on a zero Forest.
func (f *Forest) Reset(p *Problem) error {
	keys, err := p.validateScratch(f.valKeys)
	f.valKeys = keys
	if err != nil {
		return err
	}
	n := p.N()
	f.problem = p
	if f.accPos == nil {
		f.accPos = make(map[Request]int, len(p.Requests))
		f.rejPos = make(map[Request]int)
	} else {
		clear(f.accPos)
		clear(f.rejPos)
	}
	f.reqSet = nil // rebuilt lazily by the first dynamic operation
	f.posBuilt = false
	f.idxBuilt = false
	for _, t := range f.treeList {
		f.treePool = append(f.treePool, t)
	}
	f.treeList = f.treeList[:0]
	f.treeSorted = true
	f.numTrees = 0
	// Reset the per-stream slots we previously touched, then grow the
	// site dimension to the new problem.
	for site := range f.slots {
		row := f.slots[site]
		for i := range row {
			row[i] = streamSlot{}
		}
	}
	if cap(f.slots) >= n {
		f.slots = f.slots[:n]
	} else {
		f.slots = make([][]streamSlot, n)
	}
	f.din = resizeInts(f.din, n)
	f.dout = resizeInts(f.dout, n)
	f.mhat = resizeInts(f.mhat, n)
	f.accepted = f.accepted[:0]
	f.accSeq = f.accSeq[:0]
	f.rejected = f.rejected[:0]
	f.rejSeq = f.rejSeq[:0]
	f.seq = 0
	if cap(f.nodeTrees) >= n {
		f.nodeTrees = f.nodeTrees[:n]
		for i := range f.nodeTrees {
			f.nodeTrees[i] = f.nodeTrees[i][:0]
		}
	} else {
		f.nodeTrees = make([][]*Tree, n)
	}
	if cap(f.rej) >= n {
		f.rej = f.rej[:n]
	} else {
		f.rej = make([][]int, n)
	}
	for i := range f.rej {
		f.rej[i] = resizeInts(f.rej[i], n)
	}
	// Seed the reservation counters m̂ (the paper's m_i: streams a site
	// must send at least once) and the per-stream request counts in one
	// pass.
	for _, r := range p.Requests {
		s := f.slot(r.Stream)
		if s.reqs == 0 {
			f.mhat[r.Stream.Site]++
		}
		s.reqs++
	}
	return nil
}

// slot returns the per-stream state for id, growing the slot table on
// demand. The returned pointer is invalidated by the next grow for the
// same site; callers must not retain it across mutations.
func (f *Forest) slot(id stream.ID) *streamSlot {
	row := f.slots[id.Site]
	if id.Index >= len(row) {
		grown := make([]streamSlot, id.Index+1)
		copy(grown, row)
		f.slots[id.Site] = grown
		row = grown
	}
	return &row[id.Index]
}

// slotIfPresent returns the slot for id without growing, or nil.
func (f *Forest) slotIfPresent(id stream.ID) *streamSlot {
	if id.Site < 0 || id.Site >= len(f.slots) {
		return nil
	}
	row := f.slots[id.Site]
	if id.Index < 0 || id.Index >= len(row) {
		return nil
	}
	return &row[id.Index]
}

// isDisseminated reports whether the stream has ever left its source.
func (f *Forest) isDisseminated(id stream.ID) bool {
	s := f.slotIfPresent(id)
	return s != nil && s.disseminated
}

// resizeInts returns a zeroed int slice of length n, reusing buf's storage
// when it is large enough.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Problem returns the instance the forest was built for.
func (f *Forest) Problem() *Problem { return f.problem }

// Tree returns the multicast tree for the stream, or nil if the stream has
// no tree (no accepted request yet).
func (f *Forest) Tree(id stream.ID) *Tree {
	if s := f.slotIfPresent(id); s != nil {
		return s.tree
	}
	return nil
}

// Trees returns all trees, sorted by stream ID.
func (f *Forest) Trees() []*Tree {
	f.ensureTreeList()
	out := make([]*Tree, len(f.treeList))
	copy(out, f.treeList)
	return out
}

// ForEachTree calls fn for every tree in ascending stream order without
// copying. fn must not create or delete trees.
func (f *Forest) ForEachTree(fn func(*Tree)) {
	f.ensureTreeList()
	for _, t := range f.treeList {
		fn(t)
	}
}

// NumTrees returns the number of live trees without copying.
func (f *Forest) NumTrees() int { return f.numTrees }

// OutDegree returns dout(RP_i).
func (f *Forest) OutDegree(node int) int { return f.dout[node] }

// NumAccepted returns the number of accepted requests without copying.
func (f *Forest) NumAccepted() int { return len(f.accepted) }

// NumRejected returns the number of rejected requests without copying.
func (f *Forest) NumRejected() int { return len(f.rejected) }

// Accepted returns the accepted requests in processing order.
func (f *Forest) Accepted() []Request { return orderBySeq(f.accepted, f.accSeq) }

// Rejected returns the rejected requests in processing order.
func (f *Forest) Rejected() []Request { return orderBySeq(f.rejected, f.rejSeq) }

// IsRejected reports whether request r is in the rejected set: the
// forest could not satisfy it. An O(1) lookup, for readers that patch
// per-request state instead of scanning Rejected.
func (f *Forest) IsRejected(r Request) bool {
	f.ensurePos()
	_, ok := f.rejPos[r]
	return ok
}

// orderBySeq copies reqs sorted by their per-entry sequence numbers —
// reconstructing processing order from the swap-removable backing store.
func orderBySeq(reqs []Request, seqs []uint64) []Request {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return seqs[idx[a]] < seqs[idx[b]] })
	out := make([]Request, len(reqs))
	for i, j := range idx {
		out[i] = reqs[j]
	}
	return out
}

// RejectionMatrix returns û (copy).
func (f *Forest) RejectionMatrix() [][]int {
	out := make([][]int, len(f.rej))
	for i := range f.rej {
		out[i] = make([]int, len(f.rej[i]))
		copy(out[i], f.rej[i])
	}
	return out
}

// tree returns the tree for the stream, creating it (with just the source)
// on first use and registering it in the incremental indexes.
func (f *Forest) tree(id stream.ID) *Tree {
	s := f.slot(id)
	t := s.tree
	if t == nil {
		if k := len(f.treePool); k > 0 {
			t = f.treePool[k-1]
			f.treePool = f.treePool[:k-1]
			t.reset(id)
			t.ensure(f.problem.N() - 1)
		} else {
			t = newTreeN(id, f.problem.N())
		}
		s.tree = t
		f.numTrees++
		if n := len(f.treeList); f.treeSorted && n > 0 && f.treeList[n-1].skey > t.skey {
			f.treeSorted = false
		}
		f.treeList = append(f.treeList, t)
		if f.idxBuilt {
			insertTreeSorted(&f.nodeTrees[t.Source], t)
		}
	}
	return t
}

// dropTree removes an empty tree from the slot table and both incremental
// indexes, recycling its storage.
func (f *Forest) dropTree(t *Tree) {
	f.slot(t.Stream).tree = nil
	f.numTrees--
	f.ensureTreeList()
	removeTreeSorted(&f.treeList, t)
	if f.idxBuilt {
		removeTreeSorted(&f.nodeTrees[t.Source], t)
	}
	f.treePool = append(f.treePool, t)
}

// attachEdge commits the edge parent→child in tree t and indexes the new
// membership; degree accounting stays with the callers.
func (f *Forest) attachEdge(t *Tree, parent, child int, edgeCost float64) {
	t.addEdge(parent, child, edgeCost)
	if f.idxBuilt {
		insertTreeSorted(&f.nodeTrees[child], t)
	}
}

// detachLeaf removes the leaf's edge from tree t and de-indexes the
// membership; degree accounting stays with the callers.
func (f *Forest) detachLeaf(t *Tree, child int) {
	if !t.IsLeaf(child) {
		return
	}
	t.removeLeaf(child)
	if f.idxBuilt && !t.Contains(child) {
		removeTreeSorted(&f.nodeTrees[child], t)
	}
}

// ensureTreeList restores the tree list's ascending stream order if
// appends have left it unsorted. Rather than sorting, it rebuilds the
// list from the slot table: iterating sites then indexes visits streams
// in exactly ascending order, so one linear scan re-derives the sorted
// list without comparator calls or pointer shuffling.
func (f *Forest) ensureTreeList() {
	if f.treeSorted {
		return
	}
	f.treeList = f.treeList[:0]
	for site := range f.slots {
		row := f.slots[site]
		for i := range row {
			if t := row[i].tree; t != nil {
				f.treeList = append(f.treeList, t)
			}
		}
	}
	f.treeSorted = true
}

// ensureNodeTrees materializes the per-node tree index. Trees are visited
// in ascending stream order, so each node's list comes out in exactly the
// order the incremental inserts historically maintained.
func (f *Forest) ensureNodeTrees() {
	if f.idxBuilt {
		return
	}
	f.ensureTreeList()
	for i := range f.nodeTrees {
		f.nodeTrees[i] = f.nodeTrees[i][:0]
	}
	for _, t := range f.treeList {
		for _, m := range t.members {
			f.nodeTrees[m] = append(f.nodeTrees[m], t)
		}
	}
	f.idxBuilt = true
}

// ensurePos materializes the accepted/rejected position maps from the
// backing stores; after the build every mark/unmark maintains them.
func (f *Forest) ensurePos() {
	if f.posBuilt {
		return
	}
	for i, r := range f.accepted {
		f.accPos[r] = i
	}
	for i, r := range f.rejected {
		f.rejPos[r] = i
	}
	f.posBuilt = true
}

// searchTree returns the insertion index for key in the stream-ordered
// slice: a hand-rolled binary search over the packed keys, free of the
// sort.Search closure and Stream.Less interface overhead on the join hot
// path.
func searchTree(l []*Tree, key uint64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].skey < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertTreeSorted inserts t into the stream-ordered slice.
func insertTreeSorted(list *[]*Tree, t *Tree) {
	l := *list
	i := searchTree(l, t.skey)
	l = append(l, nil)
	copy(l[i+1:], l[i:])
	l[i] = t
	*list = l
}

// removeTreeSorted removes t from the stream-ordered slice.
func removeTreeSorted(list *[]*Tree, t *Tree) {
	l := *list
	i := searchTree(l, t.skey)
	if i < len(l) && l[i] == t {
		copy(l[i:], l[i+1:])
		l[len(l)-1] = nil
		*list = l[:len(l)-1]
	}
}

func (f *Forest) markAccepted(r Request) {
	if f.posBuilt {
		f.accPos[r] = len(f.accepted)
	}
	f.accepted = append(f.accepted, r)
	f.accSeq = append(f.accSeq, f.seq)
	f.seq++
}

func (f *Forest) markRejected(r Request) {
	if f.posBuilt {
		f.rejPos[r] = len(f.rejected)
	}
	f.rejected = append(f.rejected, r)
	f.rejSeq = append(f.rejSeq, f.seq)
	f.seq++
	f.rej[r.Node][r.Stream.Site]++
}

// unreject moves a previously rejected request back to pending state; used
// by CO-RJ when a saturated request is satisfied via a victim swap.
func (f *Forest) unreject(r Request) {
	f.ensurePos()
	i, ok := f.rejPos[r]
	if !ok {
		return
	}
	last := len(f.rejected) - 1
	moved := f.rejected[last]
	f.rejected[i] = moved
	f.rejSeq[i] = f.rejSeq[last]
	f.rejected = f.rejected[:last]
	f.rejSeq = f.rejSeq[:last]
	delete(f.rejPos, r)
	if moved != r {
		f.rejPos[moved] = i
	}
	f.rej[r.Node][r.Stream.Site]--
}

// unaccept removes a request from the accepted list; used by CO-RJ when an
// accepted request becomes the swap victim.
func (f *Forest) unaccept(r Request) {
	f.ensurePos()
	i, ok := f.accPos[r]
	if !ok {
		return
	}
	last := len(f.accepted) - 1
	moved := f.accepted[last]
	f.accepted[i] = moved
	f.accSeq[i] = f.accSeq[last]
	f.accepted = f.accepted[:last]
	f.accSeq = f.accSeq[:last]
	delete(f.accPos, r)
	if moved != r {
		f.accPos[moved] = i
	}
}

// String summarizes the forest.
func (f *Forest) String() string {
	return fmt.Sprintf("forest{trees=%d accepted=%d rejected=%d}",
		f.numTrees, len(f.accepted), len(f.rejected))
}
