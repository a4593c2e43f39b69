package overlay

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

func TestTreeBasics(t *testing.T) {
	id := stream.ID{Site: 2, Index: 1}
	tr := newTree(id)
	if tr.Source != 2 || !tr.Contains(2) || tr.Size() != 1 {
		t.Fatalf("fresh tree: source=%d size=%d", tr.Source, tr.Size())
	}
	if _, ok := tr.Parent(2); ok {
		t.Error("source has a parent")
	}
	if c, ok := tr.CostFromSource(2); !ok || c != 0 {
		t.Errorf("source cost = %v, %v", c, ok)
	}
	if !tr.IsLeaf(2) {
		t.Error("lonely source should be a leaf")
	}

	tr.addEdge(2, 0, 5)
	tr.addEdge(0, 1, 3)
	if tr.Size() != 3 {
		t.Errorf("size = %d", tr.Size())
	}
	if c, _ := tr.CostFromSource(1); c != 8 {
		t.Errorf("cost(1) = %v, want 8", c)
	}
	if tr.IsLeaf(0) || !tr.IsLeaf(1) {
		t.Error("leaf classification wrong")
	}
	if got := tr.Nodes(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Nodes() = %v", got)
	}
	edges := tr.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 1} || edges[1] != [2]int{2, 0} {
		t.Errorf("Edges() = %v", edges)
	}
	// Children returns a copy.
	ch := tr.Children(2)
	ch[0] = 99
	if tr.Children(2)[0] == 99 {
		t.Error("Children exposes internal slice")
	}
}

func TestTreeRemoveLeaf(t *testing.T) {
	tr := newTree(stream.ID{Site: 0})
	tr.addEdge(0, 1, 2)
	tr.addEdge(1, 2, 2)
	// Removing an internal node must be refused.
	tr.removeLeaf(1)
	if !tr.Contains(1) {
		t.Fatal("internal node removed")
	}
	tr.removeLeaf(2)
	if tr.Contains(2) {
		t.Fatal("leaf not removed")
	}
	if !tr.IsLeaf(1) {
		t.Error("parent did not become a leaf")
	}
	tr.removeLeaf(2) // idempotent on absent nodes
	if tr.Size() != 2 {
		t.Errorf("size = %d", tr.Size())
	}
}

func TestForestAccessorsCopySemantics(t *testing.T) {
	p := simpleProblem(t, 3, 5, 2, 20, 20, 50)
	f, err := RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	acc := f.Accepted()
	if len(acc) == 0 {
		t.Fatal("nothing accepted")
	}
	acc[0] = Request{Node: 99}
	if f.Accepted()[0].Node == 99 {
		t.Error("Accepted exposes internal slice")
	}
	rej := f.RejectionMatrix()
	rej[0][1] = 42
	if f.RejectionMatrix()[0][1] == 42 {
		t.Error("RejectionMatrix exposes internal state")
	}
	if !strings.Contains(f.String(), "forest{") {
		t.Errorf("String() = %q", f.String())
	}
}

func TestForestTreesSorted(t *testing.T) {
	p := simpleProblem(t, 3, 5, 2, 20, 20, 50)
	f, err := RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	trees := f.Trees()
	for i := 1; i < len(trees); i++ {
		if !trees[i-1].Stream.Less(trees[i].Stream) {
			t.Fatalf("trees not sorted at %d", i)
		}
	}
	if f.Tree(stream.ID{Site: 0, Index: 99}) != nil {
		t.Error("nonexistent tree returned")
	}
}

func TestNewForestRejectsInvalidProblem(t *testing.T) {
	if _, err := NewForest(&Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
}

// requireForestsIdentical compares every piece of forest state that
// construction produces — tree creation order, per-tree topology and
// costs, degree and reservation counters, acceptance/rejection order and
// sequence numbers, and the rejection matrix. Two forests passing this
// check are bit-identical for every consumer in the repo.
func requireForestsIdentical(t *testing.T, want, got *Forest) {
	t.Helper()
	want.ensureTreeList()
	got.ensureTreeList()
	if len(want.treeList) != len(got.treeList) {
		t.Fatalf("tree count: want %d, got %d", len(want.treeList), len(got.treeList))
	}
	for i := range want.treeList {
		wt, gt := want.treeList[i], got.treeList[i]
		if wt.Stream != gt.Stream || wt.Source != gt.Source {
			t.Fatalf("tree %d: want %v@%d, got %v@%d", i, wt.Stream, wt.Source, gt.Stream, gt.Source)
		}
		if len(wt.members) != len(gt.members) {
			t.Fatalf("tree %v: member count %d vs %d", wt.Stream, len(wt.members), len(gt.members))
		}
		for mi, m := range wt.members {
			if gt.members[mi] != m {
				t.Fatalf("tree %v: member[%d] %d vs %d", wt.Stream, mi, m, gt.members[mi])
			}
			if wt.parent[m] != gt.parent[m] {
				t.Fatalf("tree %v node %d: parent %d vs %d", wt.Stream, m, wt.parent[m], gt.parent[m])
			}
			if wt.cost[m] != gt.cost[m] {
				t.Fatalf("tree %v node %d: cost %v vs %v", wt.Stream, m, wt.cost[m], gt.cost[m])
			}
			wc, gc := wt.childrenOf(int(m)), gt.childrenOf(int(m))
			if len(wc) != len(gc) {
				t.Fatalf("tree %v node %d: child count %d vs %d", wt.Stream, m, len(wc), len(gc))
			}
			for ci := range wc {
				if wc[ci] != gc[ci] {
					t.Fatalf("tree %v node %d: child[%d] %d vs %d", wt.Stream, m, ci, wc[ci], gc[ci])
				}
			}
		}
	}
	n := want.problem.N()
	for v := 0; v < n; v++ {
		if want.din[v] != got.din[v] || want.dout[v] != got.dout[v] || want.mhat[v] != got.mhat[v] {
			t.Fatalf("node %d counters: want (din=%d dout=%d mhat=%d), got (din=%d dout=%d mhat=%d)",
				v, want.din[v], want.dout[v], want.mhat[v], got.din[v], got.dout[v], got.mhat[v])
		}
		for j := 0; j < n; j++ {
			if want.rej[v][j] != got.rej[v][j] {
				t.Fatalf("rejection matrix [%d][%d]: %d vs %d", v, j, want.rej[v][j], got.rej[v][j])
			}
		}
	}
	if len(want.accepted) != len(got.accepted) || len(want.rejected) != len(got.rejected) {
		t.Fatalf("outcome counts: want %d/%d, got %d/%d",
			len(want.accepted), len(want.rejected), len(got.accepted), len(got.rejected))
	}
	for i := range want.accepted {
		if want.accepted[i] != got.accepted[i] || want.accSeq[i] != got.accSeq[i] {
			t.Fatalf("accepted[%d]: want %v seq %d, got %v seq %d",
				i, want.accepted[i], want.accSeq[i], got.accepted[i], got.accSeq[i])
		}
	}
	for i := range want.rejected {
		if want.rejected[i] != got.rejected[i] || want.rejSeq[i] != got.rejSeq[i] {
			t.Fatalf("rejected[%d]: want %v seq %d, got %v seq %d",
				i, want.rejected[i], want.rejSeq[i], got.rejected[i], got.rejSeq[i])
		}
	}
	if want.seq != got.seq {
		t.Fatalf("outcome sequence counter: %d vs %d", want.seq, got.seq)
	}
	for site := range want.slots {
		if len(want.slots[site]) != len(got.slots[site]) {
			t.Fatalf("site %d: slot row %d vs %d", site, len(want.slots[site]), len(got.slots[site]))
		}
		for idx := range want.slots[site] {
			ws, gs := &want.slots[site][idx], &got.slots[site][idx]
			if ws.reqs != gs.reqs || ws.disseminated != gs.disseminated {
				t.Fatalf("slot s%d^%d: want (reqs=%d diss=%v), got (reqs=%d diss=%v)",
					site, idx, ws.reqs, ws.disseminated, gs.reqs, gs.disseminated)
			}
		}
	}
}

// TestParallelConstructMatchesSerial is the determinism guarantee that
// the experiment engine's worker pool relies on: for every algorithm and
// every worker count, goroutines constructing concurrently over one shared
// Problem, each with its own recycled Workspace, produce forests
// bit-identical to serial construction with the same seed. Run under
// -race this also checks that construction writes no state shared between
// workspaces.
func TestParallelConstructMatchesSerial(t *testing.T) {
	algs := []Algorithm{STF{}, LTF{}, MCTF{}, RJ{}, GranLTF{G: 5}, CORJ{}, AllToAll{}}
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	problems := []*Problem{
		randomProblem(t, 8, workload.CapacityUniform, workload.PopularityRandom, 11),
		randomProblem(t, 12, workload.CapacityHeterogeneous, workload.PopularityZipf, 23),
	}
	// A problem with few, large multicast groups, so each tree spans most
	// of the node set.
	problems = append(problems, coverageProblem(t, 10, workload.CapacityUniform, workload.PopularityRandom, 31))

	for pi, p := range problems {
		for _, alg := range algs {
			var serialWS Workspace
			serial, err := ConstructWith(&serialWS, alg, p, rand.New(rand.NewSource(99)))
			if err != nil {
				t.Fatalf("problem %d %s serial: %v", pi, alg.Name(), err)
			}
			if err := serial.Validate(); err != nil {
				t.Fatalf("problem %d %s serial validate: %v", pi, alg.Name(), err)
			}
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("p%d/%s/w%d", pi, alg.Name(), workers), func(t *testing.T) {
					// Two rounds per worker: the second runs over recycled
					// scratch, covering the reuse paths. A workspace-owned
					// forest is valid until its next construction, so each
					// round is compared before the next one starts.
					wss := make([]Workspace, workers)
					got := make([]*Forest, workers)
					errs := make([]error, workers)
					for round := 0; round < 2; round++ {
						var wg sync.WaitGroup
						for w := 0; w < workers; w++ {
							wg.Add(1)
							go func(w int) {
								defer wg.Done()
								got[w], errs[w] = ConstructWith(&wss[w], alg, p, rand.New(rand.NewSource(99)))
							}(w)
						}
						wg.Wait()
						for w := 0; w < workers; w++ {
							if errs[w] != nil {
								t.Fatalf("round %d worker %d: %v", round, w, errs[w])
							}
							if err := got[w].Validate(); err != nil {
								t.Fatalf("round %d worker %d validate: %v", round, w, err)
							}
							requireForestsIdentical(t, serial, got[w])
						}
					}
				})
			}
		}
	}
}
