package overlay

// alloc_test.go pins the flat-array core's steady-state allocation
// behavior: once a forest's arrays, index maps and tree pool have grown
// to their working size, Join and Subscribe/Unsubscribe cycles must not
// allocate at all. It also proves the membership-iteration contract the
// determinism of every golden file rests on: the incrementally-sorted
// member list visits nodes in exactly the order the historical
// sort.Ints(Nodes()) produced.

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// steadyForest builds a constructed forest with spare capacity plus an
// accepted request whose node is a leaf of its tree, the setup both
// steady-state tests cycle on.
func steadyForest(t *testing.T) (*Forest, Request) {
	t.Helper()
	p := simpleProblem(t, 5, 6, 3, 20, 20, 50)
	f, err := RJ{}.Construct(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Accepted() {
		if tr := f.Tree(r.Stream); tr != nil && tr.IsLeaf(r.Node) {
			return f, r
		}
	}
	t.Fatal("no accepted leaf request found")
	return nil, Request{}
}

// TestJoinSteadyStateZeroAllocs detaches and re-joins one accepted leaf
// request, driving the full Join path — slot lookup, findParent scan,
// attach, index maintenance, accepted bookkeeping — and requires zero
// allocations per cycle.
func TestJoinSteadyStateZeroAllocs(t *testing.T) {
	f, r := steadyForest(t)
	cycle := func() {
		tr := f.Tree(r.Stream)
		parent, ok := tr.Parent(r.Node)
		if !ok {
			t.Fatal("request node lost its parent")
		}
		f.detachLeaf(tr, r.Node)
		f.dout[parent]--
		f.din[r.Node]--
		f.unaccept(r)
		if res := f.Join(r); res != Joined {
			t.Fatalf("Join = %v, want Joined", res)
		}
	}
	for i := 0; i < 64; i++ { // reach steady-state capacity
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Forest.Join steady state allocates %.1f times per op, want 0", allocs)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeSteadyStateZeroAllocs cycles a full dynamic
// Unsubscribe/Subscribe pair — request-slice bookkeeping, the lazy
// request index, reservation accounting, tree pruning and re-join — and
// requires zero allocations per cycle.
func TestSubscribeSteadyStateZeroAllocs(t *testing.T) {
	f, r := steadyForest(t)
	cycle := func() {
		if err := f.Unsubscribe(r); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Subscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // materialize the request index, grow capacities
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Unsubscribe+Subscribe steady state allocates %.1f times per op, want 0", allocs)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchApplySteadyStateZeroAllocs cycles a full churn window through
// ApplyBatch — position-index rebuild, tombstoning, the dynamic
// subscribe path, and the final compaction — and requires zero
// allocations per window once the batch's scratch has grown.
func TestBatchApplySteadyStateZeroAllocs(t *testing.T) {
	f, r := steadyForest(t)
	var b Batch
	cycle := func() {
		b.Reset()
		b.Unsubscribe(r)
		b.Subscribe(r)
		outs := f.ApplyBatch(&b)
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatal(outs[i].Err)
			}
		}
	}
	for i := 0; i < 64; i++ { // grow the batch scratch and position index
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("ApplyBatch steady state allocates %.1f times per window, want 0", allocs)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructWithSteadyStateZeroAllocs pins the construction hot path
// the experiment engines run: repeated ConstructWith calls on the same
// problem over one recycled Workspace must not allocate once the
// workspace has reached working size. MCTF is left out: its
// capacity-ordered group sort still allocates per construction.
func TestConstructWithSteadyStateZeroAllocs(t *testing.T) {
	p := simpleProblem(t, 6, 5, 3, 20, 20, 50)
	for _, alg := range []Algorithm{RJ{}, LTF{}, STF{}, CORJ{}, GranLTF{G: 2}} {
		var ws Workspace
		rng := rand.New(rand.NewSource(99))
		cycle := func() {
			rng.Seed(99)
			if _, err := ConstructWith(&ws, alg, p, rng); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // grow the workspace to working size
			cycle()
		}
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%s: ConstructWith steady state allocates %.1f times per run, want 0", alg.Name(), allocs)
		}
	}
}

// TestMembershipIterationMatchesSortedNodes rebuilds each tree's member
// set from the tree structure itself (child links walked from the
// source), sorts it, and requires ForEachNode and Nodes() to visit
// exactly that sequence — the iteration-order contract that keeps every
// golden file byte-identical to the historical sort.Ints(Nodes())
// implementation. Forests are randomized: random construction algorithm
// and seed, followed by random churn.
func TestMembershipIterationMatchesSortedNodes(t *testing.T) {
	algs := []Algorithm{RJ{}, LTF{}, STF{}, MCTF{}, CORJ{}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		p := simpleProblem(t, n, 4, 1+rng.Intn(3), 4+rng.Intn(10), 4+rng.Intn(10), 80)
		f, err := algs[rng.Intn(len(algs))].Construct(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Random churn so grown/pruned/re-pooled trees are covered too.
		for op := 0; op < 30; op++ {
			reqs := f.Problem().Requests
			if len(reqs) == 0 {
				break
			}
			r := reqs[rng.Intn(len(reqs))]
			if rng.Intn(2) == 0 {
				if err := f.Unsubscribe(r); err != nil {
					t.Fatal(err)
				}
			} else {
				repl := Request{Node: r.Node, Stream: stream.ID{Site: r.Stream.Site, Index: rng.Intn(6)}}
				if repl.Stream.Site == repl.Node {
					continue
				}
				_, _ = f.Subscribe(repl) // duplicates are fine to bounce
			}
		}
		for _, tr := range f.Trees() {
			// Ground truth: collect members by walking child links from
			// the source, then sort ascending.
			want := []int{tr.Source}
			for qi := 0; qi < len(want); qi++ {
				want = append(want, tr.Children(want[qi])...)
			}
			sort.Ints(want)
			var got []int
			tr.ForEachNode(func(v int) { got = append(got, v) })
			if len(got) != len(want) {
				t.Fatalf("seed %d tree %s: ForEachNode visited %d nodes, want %d", seed, tr.Stream, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d tree %s: iteration order %v, want sorted %v", seed, tr.Stream, got, want)
				}
			}
			nodes := tr.Nodes()
			for i := range want {
				if nodes[i] != want[i] {
					t.Fatalf("seed %d tree %s: Nodes() = %v, want %v", seed, tr.Stream, nodes, want)
				}
			}
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
