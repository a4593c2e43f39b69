package exact

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

func costMatrix(n int, c float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = c
			}
		}
	}
	return m
}

func TestSolveTrivialAllAcceptable(t *testing.T) {
	sID := stream.ID{Site: 0, Index: 0}
	p := &overlay.Problem{
		In: []int{5, 5, 5}, Out: []int{5, 5, 5},
		Cost: costMatrix(3, 5), Bcost: 50,
		Requests: []overlay.Request{{Node: 1, Stream: sID}, {Node: 2, Stream: sID}},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccepted != 2 {
		t.Errorf("MaxAccepted = %d, want 2", res.MaxAccepted)
	}
	checkParents(t, p, res)
}

// checkParents verifies the optimum's parent assignment directly against
// the constraints overlay.Forest.Validate enforces: every parent is the
// stream's source or another accepted member, the parent links of each
// stream form a tree rooted at the source, per-node in- and out-degrees
// stay within I and O, and every path cost is below Bcost.
func checkParents(t *testing.T, p *overlay.Problem, res *Result) {
	t.Helper()
	if len(res.Parents) != res.MaxAccepted {
		t.Fatalf("%d parents for MaxAccepted %d", len(res.Parents), res.MaxAccepted)
	}
	requested := make(map[overlay.Request]bool, len(p.Requests))
	for _, r := range p.Requests {
		requested[r] = true
	}
	din := make([]int, p.N())
	dout := make([]int, p.N())
	for r, parent := range res.Parents {
		if !requested[r] {
			t.Fatalf("accepted %v is not a request", r)
		}
		src := r.Stream.Site
		if parent != src {
			if _, ok := res.Parents[overlay.Request{Node: parent, Stream: r.Stream}]; !ok {
				t.Fatalf("%v: parent %d is neither the source nor an accepted member", r, parent)
			}
		}
		cost := 0.0
		for cur, steps := r, 0; cur.Node != src; steps++ {
			if steps > len(res.Parents) {
				t.Fatalf("%v: parent links of %s form a cycle", r, r.Stream)
			}
			up := res.Parents[cur]
			cost += p.Cost[up][cur.Node]
			cur = overlay.Request{Node: up, Stream: r.Stream}
		}
		if cost >= p.Bcost {
			t.Fatalf("%v: path cost %v >= Bcost %v", r, cost, p.Bcost)
		}
		din[r.Node]++
		dout[parent]++
	}
	for v := 0; v < p.N(); v++ {
		if din[v] > p.In[v] || dout[v] > p.Out[v] {
			t.Fatalf("node %d: din %d / dout %d exceed I=%d / O=%d", v, din[v], dout[v], p.In[v], p.Out[v])
		}
	}
}

func TestSolveRelayRequired(t *testing.T) {
	// Source out-degree 1 with two subscribers: optimum relays, accepting
	// both — exactly what the basic node join achieves too.
	sID := stream.ID{Site: 0, Index: 0}
	p := &overlay.Problem{
		In: []int{5, 5, 5}, Out: []int{1, 5, 5},
		Cost: costMatrix(3, 5), Bcost: 50,
		Requests: []overlay.Request{{Node: 1, Stream: sID}, {Node: 2, Stream: sID}},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccepted != 2 {
		t.Errorf("MaxAccepted = %d, want 2 (relay)", res.MaxAccepted)
	}
}

func TestSolveRespectsLatency(t *testing.T) {
	// Relay would satisfy degree limits but violates the bound: the
	// optimum accepts only one request.
	sID := stream.ID{Site: 0, Index: 0}
	cost := costMatrix(3, 6) // direct 6, two hops 12
	p := &overlay.Problem{
		In: []int{5, 5, 5}, Out: []int{1, 5, 5},
		Cost: cost, Bcost: 10,
		Requests: []overlay.Request{{Node: 1, Stream: sID}, {Node: 2, Stream: sID}},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccepted != 1 {
		t.Errorf("MaxAccepted = %d, want 1 (latency forbids the relay)", res.MaxAccepted)
	}
}

func TestSolveInboundLimit(t *testing.T) {
	// Node 1 can receive only one stream but asks for two.
	p := &overlay.Problem{
		In: []int{5, 1, 5}, Out: []int{5, 5, 5},
		Cost: costMatrix(3, 5), Bcost: 50,
		Requests: []overlay.Request{
			{Node: 1, Stream: stream.ID{Site: 0, Index: 0}},
			{Node: 1, Stream: stream.ID{Site: 2, Index: 0}},
		},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAccepted != 1 {
		t.Errorf("MaxAccepted = %d, want 1", res.MaxAccepted)
	}
}

func TestSolveRejectsOversizedInstance(t *testing.T) {
	p := &overlay.Problem{
		In: []int{50, 50}, Out: []int{50, 50},
		Cost: costMatrix(2, 5), Bcost: 50,
	}
	for q := 0; q <= MaxRequests; q++ {
		p.Requests = append(p.Requests, overlay.Request{Node: 1, Stream: stream.ID{Site: 0, Index: q}})
	}
	if _, err := Solve(p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// TestHeuristicsNeverBeatOptimum is the core property: on random tiny
// instances the exhaustive optimum is a feasible assignment, it accepts at
// least as many requests as every heuristic, and RJ stays within a modest
// gap of it.
func TestHeuristicsNeverBeatOptimum(t *testing.T) {
	algs := []overlay.Algorithm{overlay.STF{}, overlay.LTF{}, overlay.MCTF{}, overlay.RJ{}, overlay.CORJ{}}
	var rjGap float64
	trials := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		p := &overlay.Problem{
			In:    make([]int, n),
			Out:   make([]int, n),
			Cost:  make([][]float64, n),
			Bcost: 12,
		}
		for i := 0; i < n; i++ {
			p.In[i] = 1 + rng.Intn(3)
			p.Out[i] = 1 + rng.Intn(3)
			p.Cost[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := 2 + rng.Float64()*8
				p.Cost[i][j], p.Cost[j][i] = c, c
			}
		}
		nReq := 4 + rng.Intn(4)
		seen := map[overlay.Request]bool{}
		for len(p.Requests) < nReq {
			r := overlay.Request{
				Node:   rng.Intn(n),
				Stream: stream.ID{Site: rng.Intn(n), Index: rng.Intn(2)},
			}
			if r.Node == r.Stream.Site || seen[r] {
				continue
			}
			seen[r] = true
			p.Requests = append(p.Requests, r)
		}
		res, err := Solve(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		trials++
		checkParents(t, p, res)
		for _, alg := range algs {
			f, err := alg.Construct(p, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Accepted()) > res.MaxAccepted {
				t.Fatalf("seed %d: %s accepted %d > optimum %d (optimum wrong)",
					seed, alg.Name(), len(f.Accepted()), res.MaxAccepted)
			}
			if alg.Name() == "RJ" {
				rjGap += Gap(p, len(f.Accepted()), res)
			}
		}
	}
	if mean := rjGap / float64(trials); mean > 0.15 {
		t.Errorf("RJ's mean optimality gap %.3f too large on tiny instances", mean)
	}
}

func TestGap(t *testing.T) {
	p := &overlay.Problem{
		In: []int{5, 5}, Out: []int{5, 5}, Cost: costMatrix(2, 5), Bcost: 50,
		Requests: []overlay.Request{{Node: 1, Stream: stream.ID{Site: 0, Index: 0}}},
	}
	res := &Result{MaxAccepted: 1}
	if g := Gap(p, 1, res); g != 0 {
		t.Errorf("gap = %v, want 0", g)
	}
	if g := Gap(p, 0, res); g != 1 {
		t.Errorf("gap = %v, want 1", g)
	}
	if g := Gap(&overlay.Problem{}, 0, res); g != 0 {
		t.Errorf("empty problem gap = %v", g)
	}
}
