package overlay

import (
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// figure6Problem reconstructs the state of the paper's Figure 6: node F
// joins an existing tree {S, A, B, C, D, E} rooted at S under cost bound
// 10. Per-node (O, dout, m̂):
//
//	S: 20,7,7 → rfc 6      A: 15,5,3 → rfc 7    B: 12,4,4 → rfc 4
//	C: 10,4,1 → rfc 5      D: 22,8,0 → rfc 14   E:  8,4,4 → rfc 0
//
// Path costs from S: A=4, D=14 (> bound), and A→F edge = 5, so F's cost
// through A is 9 < 10. D has the largest rfc but violates the bound; E has
// no capacity; A is the correct parent.
const (
	figS = iota
	figA
	figB
	figC
	figD
	figE
	figF
)

func figure6Forest(t *testing.T) (*Forest, *Tree) {
	t.Helper()
	n := 7
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 100 // default: too expensive
			}
		}
	}
	// Tree edges (as in the figure): S→A=4, S→B=8, B→C=3, C→D=3, B→E=3.
	set := func(a, b int, c float64) { cost[a][b] = c; cost[b][a] = c }
	set(figS, figA, 4)
	set(figS, figB, 8)
	set(figB, figC, 3)
	set(figC, figD, 3)
	set(figB, figE, 3)
	// Candidate edges from tree nodes to the joining node F.
	set(figA, figF, 5)  // through A: 4+5 = 9 < 10  ✓
	set(figD, figF, 3)  // through D: 8+3+3+3 = 17... bound applies to D's own cost already
	set(figS, figF, 50) // direct from S: too expensive
	set(figB, figF, 50)
	set(figC, figF, 50)
	set(figE, figF, 2) // cheap, but E has rfc 0

	p := &Problem{
		In:    []int{20, 20, 20, 20, 20, 20, 20},
		Out:   []int{20, 15, 12, 10, 22, 8, 10},
		Cost:  cost,
		Bcost: 10,
	}
	sID := stream.ID{Site: figS, Index: 0}
	p.Requests = []Request{{Node: figF, Stream: sID}}
	// The other tree members are pre-existing state, not requests under
	// test; install them directly.
	f, err := NewForest(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := f.tree(sID)
	addEdge := func(parent, child int) {
		f.attachEdge(tr, parent, child, cost[parent][child])
		f.dout[parent]++
		f.din[child]++
	}
	addEdge(figS, figA)
	addEdge(figS, figB)
	addEdge(figB, figC)
	addEdge(figC, figD)
	addEdge(figB, figE)
	f.slot(sID).disseminated = true

	// Load the remaining dout and m̂ state from the figure's labels.
	// (dout so far: S=2, B=2, C=1.)
	f.dout[figS] = 7
	f.dout[figA] = 5
	f.dout[figB] = 4
	f.dout[figC] = 4
	f.dout[figD] = 8
	f.dout[figE] = 4
	f.mhat = []int{7, 3, 4, 1, 0, 4, 0}
	return f, tr
}

func TestFigure6JoinPicksA(t *testing.T) {
	f, tr := figure6Forest(t)
	sID := tr.Stream

	// Sanity: rfc values as the figure states.
	wantRFC := map[int]int{figS: 6, figA: 7, figB: 4, figC: 5, figD: 14, figE: 0}
	for node, want := range wantRFC {
		if got := f.effectiveRFC(node, tr); got != want {
			t.Errorf("rfc(%d) = %d, want %d", node, got, want)
		}
	}

	res := f.Join(Request{Node: figF, Stream: sID})
	if res != Joined {
		t.Fatalf("Join = %v, want Joined", res)
	}
	parent, ok := tr.Parent(figF)
	if !ok || parent != figA {
		t.Fatalf("F's parent = %d (ok=%v), want A=%d", parent, ok, figA)
	}
	c, _ := tr.CostFromSource(figF)
	if c != 9 {
		t.Errorf("F's cost from source = %v, want 9", c)
	}
}

func TestJoinRejectsWhenInboundSaturated(t *testing.T) {
	f, tr := figure6Forest(t)
	f.din[figF] = f.problem.In[figF] // saturate F's inbound
	res := f.Join(Request{Node: figF, Stream: tr.Stream})
	if res != RejectedInbound {
		t.Fatalf("Join = %v, want RejectedInbound", res)
	}
	if len(f.Rejected()) != 1 {
		t.Errorf("rejected list = %v", f.Rejected())
	}
	if f.RejectionMatrix()[figF][figS] != 1 {
		t.Error("rejection matrix not updated")
	}
}

func TestJoinRejectsWhenTreeSaturated(t *testing.T) {
	f, tr := figure6Forest(t)
	// Take away A's capacity: every other candidate is already excluded
	// (cost or rfc), so the tree saturates.
	f.dout[figA] = f.problem.Out[figA]
	res := f.Join(Request{Node: figF, Stream: tr.Stream})
	if res != RejectedSaturated {
		t.Fatalf("Join = %v, want RejectedSaturated", res)
	}
}

func TestJoinAlreadyMember(t *testing.T) {
	f, tr := figure6Forest(t)
	res := f.Join(Request{Node: figA, Stream: tr.Stream})
	if res != AlreadyMember {
		t.Fatalf("Join = %v, want AlreadyMember", res)
	}
	if len(f.Accepted())+len(f.Rejected()) != 0 {
		t.Error("AlreadyMember mutated accounting")
	}
}

func TestFirstJoinConsumesSourceReservation(t *testing.T) {
	// Two nodes; node 1 subscribes to node 0's stream. The source must
	// serve it from its reserved slot and m̂ must drop to 0.
	sID := stream.ID{Site: 0, Index: 0}
	p := &Problem{
		In:    []int{5, 5},
		Out:   []int{1, 5}, // source has exactly one slot: the reservation
		Cost:  costMatrix(2, 3),
		Bcost: 10,
		Requests: []Request{
			{Node: 1, Stream: sID},
		},
	}
	f, err := NewForest(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.mhat[0] != 1 {
		t.Fatalf("m̂[0] = %d, want 1", f.mhat[0])
	}
	if res := f.Join(p.Requests[0]); res != Joined {
		t.Fatalf("Join = %v, want Joined (reserved slot)", res)
	}
	if f.mhat[0] != 0 {
		t.Errorf("m̂[0] = %d after dissemination, want 0", f.mhat[0])
	}
	if f.OutDegree(0) != 1 || f.din[1] != 1 {
		t.Errorf("degrees: dout(0)=%d din(1)=%d", f.OutDegree(0), f.din[1])
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func TestReservationBlocksForeignStreams(t *testing.T) {
	// Node 0 must send its own stream (reservation) and is asked to relay
	// a foreign one. With O=1 the reservation makes it ineligible as a
	// relay parent even though dout=0.
	s0 := stream.ID{Site: 0, Index: 0}
	s1 := stream.ID{Site: 1, Index: 0}
	cost := costMatrix(3, 4)
	cost[1][2], cost[2][1] = 9, 9 // direct 1→2 too expensive under bound 8
	p := &Problem{
		In:    []int{5, 5, 5},
		Out:   []int{1, 1, 5},
		Cost:  cost,
		Bcost: 8,
		Requests: []Request{
			{Node: 1, Stream: s0}, // consumes 0's only slot eventually
			{Node: 0, Stream: s1},
			{Node: 2, Stream: s1}, // would need to relay via 0
		},
	}
	f, err := NewForest(p)
	if err != nil {
		t.Fatal(err)
	}
	// 0 receives s1 directly from 1.
	if res := f.Join(Request{Node: 0, Stream: s1}); res != Joined {
		t.Fatalf("join 0<-s1: %v", res)
	}
	// 2 wants s1: direct edge 1→2 violates the bound (9 >= 8); 0 holds
	// the stream with dout=0 but its single out slot is reserved for s0.
	if res := f.Join(Request{Node: 2, Stream: s1}); res != RejectedSaturated {
		t.Fatalf("join 2<-s1: %v, want RejectedSaturated (reservation)", res)
	}
	// After 0's own stream is disseminated, the reservation is spent and
	// 0 has no capacity at all.
	if res := f.Join(Request{Node: 1, Stream: s0}); res != Joined {
		t.Fatalf("join 1<-s0: %v", res)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func TestJoinPrefersCheaperPathOnRFCTie(t *testing.T) {
	// Symmetric candidates with equal rfc: the join must pick the parent
	// giving the cheaper source path.
	sID := stream.ID{Site: 0, Index: 0}
	cost := costMatrix(4, 50)
	set := func(a, b int, c float64) { cost[a][b] = c; cost[b][a] = c }
	set(0, 1, 10)
	set(0, 2, 5)
	set(1, 3, 5) // via 1: 15
	set(2, 3, 5) // via 2: 10  ← cheaper
	p := &Problem{
		In:    []int{9, 9, 9, 9},
		Out:   []int{9, 9, 9, 9},
		Cost:  cost,
		Bcost: 40,
		Requests: []Request{
			{Node: 1, Stream: sID}, {Node: 2, Stream: sID}, {Node: 3, Stream: sID},
		},
	}
	f, err := NewForest(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Requests[:2] {
		if res := f.Join(r); res != Joined {
			t.Fatalf("setup join %v: %v", r, res)
		}
	}
	// Source 0 has dout=2; nodes 1 and 2 have dout=0 and equal rfc. Node
	// 0 still has the highest rfc? O=9, m̂=1 spent... all equal O, m̂(0)
	// became 0 after dissemination: rfc(0)=9-2-0=7, rfc(1)=rfc(2)=9-0-0=9.
	// 1 and 2 tie on rfc; 2 must win on path cost.
	if res := f.Join(p.Requests[2]); res != Joined {
		t.Fatalf("join: %v", res)
	}
	tr := f.Tree(sID)
	parent, _ := tr.Parent(3)
	if parent != 2 {
		t.Errorf("parent of 3 = %d, want 2 (cheaper path on rfc tie)", parent)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func TestJoinResultString(t *testing.T) {
	cases := map[JoinResult]string{
		Joined:            "joined",
		RejectedInbound:   "rejected-inbound",
		RejectedSaturated: "rejected-saturated",
		AlreadyMember:     "already-member",
		JoinResult(42):    "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}
