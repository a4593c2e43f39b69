package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tele3d/tele3d/internal/geo"
)

func testBackbone(t *testing.T) *Graph {
	t.Helper()
	g, err := Backbone(geo.DefaultLatencyModel())
	if err != nil {
		t.Fatalf("Backbone: %v", err)
	}
	return g
}

func TestBackboneBasics(t *testing.T) {
	g := testBackbone(t)
	if g.NumNodes() < 30 {
		t.Fatalf("backbone has %d nodes, want >=30", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("backbone must be connected")
	}
	for _, n := range g.Nodes() {
		if g.Degree(n.ID) < 1 {
			t.Errorf("node %s has degree 0", n.City.Name)
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geo.City{Name: "a"})
	b := g.AddNode(geo.City{Name: "b"})
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero cost accepted")
	}
	if err := g.AddEdge(a, b, -1); err == nil {
		t.Error("negative cost accepted")
	}
	if err := g.AddEdge(a, NodeID(99), 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestShortestPathsLine(t *testing.T) {
	// a --1-- b --2-- c, plus direct a--c cost 10: shortest a->c is 3.
	g := NewGraph()
	a := g.AddNode(geo.City{Name: "a"})
	b := g.AddNode(geo.City{Name: "b"})
	c := g.AddNode(geo.City{Name: "c"})
	mustAdd(t, g, a, b, 1)
	mustAdd(t, g, b, c, 2)
	mustAdd(t, g, a, c, 10)
	d, err := g.ShortestPaths(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("dist[%d] = %v, want %v", i, d[i], w)
		}
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geo.City{Name: "a"})
	g.AddNode(geo.City{Name: "island"})
	d, err := g.ShortestPaths(a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d[1], 1) {
		t.Errorf("unreachable node distance = %v, want +Inf", d[1])
	}
	if g.Connected() {
		t.Error("Connected() = true for disconnected graph")
	}
}

func TestShortestPathsInvalidSource(t *testing.T) {
	g := NewGraph()
	if _, err := g.ShortestPaths(0); err == nil {
		t.Error("ShortestPaths on empty graph should error")
	}
}

func TestCostMatrixSymmetricAndMetricish(t *testing.T) {
	g := testBackbone(t)
	m, err := g.CostMatrix()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		if m[i][i] != 0 {
			t.Errorf("m[%d][%d] = %v, want 0", i, i, m[i][i])
		}
		for j := i + 1; j < n; j++ {
			if math.Abs(m[i][j]-m[j][i]) > 1e-9 {
				t.Errorf("asymmetric costs: m[%d][%d]=%v m[%d][%d]=%v", i, j, m[i][j], j, i, m[j][i])
			}
			if m[i][j] <= 0 {
				t.Errorf("non-positive off-diagonal cost m[%d][%d]=%v", i, j, m[i][j])
			}
		}
	}
	// Triangle inequality holds for shortest-path metrics.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if m[i][k] > m[i][j]+m[j][k]+1e-9 {
					t.Fatalf("triangle violated: %d->%d (%v) > %d->%d->%d (%v)",
						i, k, m[i][k], i, j, k, m[i][j]+m[j][k])
				}
			}
		}
	}
}

// testCost returns the backbone's all-pairs cost matrix.
func testCost(t *testing.T, g *Graph) [][]float64 {
	t.Helper()
	all, err := g.CostMatrix()
	if err != nil {
		t.Fatalf("CostMatrix: %v", err)
	}
	return all
}

// selectSites places n sites into a fresh SiteSet.
func selectSites(g *Graph, all [][]float64, n int, rng *rand.Rand) (*SiteSet, error) {
	ss := &SiteSet{}
	return ss, g.SelectSitesInto(ss, all, n, rng)
}

func TestSelectSites(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 5, 10} {
		ss, err := selectSites(g, all, n, rng)
		if err != nil {
			t.Fatalf("SelectSitesInto(%d): %v", n, err)
		}
		if ss.N() != n {
			t.Fatalf("N() = %d, want %d", ss.N(), n)
		}
		seen := map[NodeID]bool{}
		for _, nd := range ss.Nodes {
			if seen[nd.ID] {
				t.Errorf("duplicate site %v", nd.ID)
			}
			seen[nd.ID] = true
		}
		if len(ss.Cost) != n {
			t.Fatalf("cost matrix rows = %d, want %d", len(ss.Cost), n)
		}
		for i := range ss.Cost {
			if ss.Cost[i][i] != 0 {
				t.Errorf("self cost not 0: %v", ss.Cost[i][i])
			}
			for j := range ss.Cost[i] {
				if i != j && (ss.Cost[i][j] <= 0 || math.IsInf(ss.Cost[i][j], 1)) {
					t.Errorf("bad pairwise cost [%d][%d] = %v", i, j, ss.Cost[i][j])
				}
				if want := all[ss.Nodes[i].ID][ss.Nodes[j].ID]; ss.Cost[i][j] != want {
					t.Errorf("Cost[%d][%d] = %v, want the backbone's %v", i, j, ss.Cost[i][j], want)
				}
			}
		}
		if ss.MedianCost() <= 0 {
			t.Error("median cost should be positive")
		}
	}
}

func TestSelectSitesErrors(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	rng := rand.New(rand.NewSource(1))
	if _, err := selectSites(g, all, 0, rng); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := selectSites(g, all, 3, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := selectSites(g, all[1:], 3, rng); err == nil {
		t.Error("matrix of the wrong size accepted")
	}
}

func TestSelectSitesDeterministicWithSeed(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	a, err := selectSites(g, all, 6, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectSites(g, all, 6, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].ID != b.Nodes[i].ID {
			t.Fatalf("selection differs at %d with same seed", i)
		}
	}
}

// TestSelectSitesDrawsLikePerm pins the placement to rng.Perm: site i
// sits on the (i mod NumNodes)-th PoP of the permutation a twin rng
// draws, and both rngs agree on the next draw, so every seed keeps its
// meaning for whatever the caller draws after placement.
func TestSelectSitesDrawsLikePerm(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	for _, n := range []int{1, 10, g.NumNodes(), 100} {
		for seed := int64(1); seed <= 5; seed++ {
			rng, twin := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			ss, err := selectSites(g, all, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			perm := twin.Perm(g.NumNodes())
			for i, nd := range ss.Nodes {
				if int(nd.ID) != perm[i%len(perm)] {
					t.Fatalf("n=%d seed %d: site %d on PoP %d, want %d", n, seed, i, nd.ID, perm[i%len(perm)])
				}
			}
			if got, want := rng.Int63(), twin.Int63(); got != want {
				t.Fatalf("n=%d seed %d: next draw %d, twin after Perm draws %d", n, seed, got, want)
			}
		}
	}
}

// TestSelectSitesSteadyStateZeroAllocs pins the reuse the Monte-Carlo
// engine relies on: repeated placements into one SiteSet allocate
// nothing once it has reached working size.
func TestSelectSitesSteadyStateZeroAllocs(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	for _, n := range []int{10, 100} {
		var ss SiteSet
		rng := rand.New(rand.NewSource(3))
		place := func() {
			if err := g.SelectSitesInto(&ss, all, n, rng); err != nil {
				t.Fatal(err)
			}
		}
		place()
		if allocs := testing.AllocsPerRun(50, place); allocs != 0 {
			t.Errorf("n=%d: SelectSitesInto allocates %.1f times per run, want 0", n, allocs)
		}
	}
}

func TestCostHeapProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := &costHeap{}
		for i, v := range vals {
			if math.IsNaN(v) {
				v = 0
			}
			h.push(costItem{node: NodeID(i), cost: v})
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			it := h.pop()
			if it.cost < prev {
				return false
			}
			prev = it.cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeAccess(t *testing.T) {
	g := testBackbone(t)
	if _, err := g.Node(NodeID(-1)); err == nil {
		t.Error("negative node ID accepted")
	}
	if _, err := g.Node(NodeID(g.NumNodes())); err == nil {
		t.Error("out-of-range node ID accepted")
	}
	n, err := g.Node(0)
	if err != nil || n.City.Name == "" {
		t.Errorf("Node(0) = %v, %v", n, err)
	}
}

func mustAdd(t *testing.T, g *Graph, a, b NodeID, cost float64) {
	t.Helper()
	if err := g.AddEdge(a, b, cost); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", a, b, cost, err)
	}
}

// TestSelectSitesBeyondPoPCount covers clusters larger than the
// backbone: sites beyond the PoP count co-locate, every off-diagonal
// cost is positive and symmetric, and the placement is deterministic in
// the seed.
func TestSelectSitesBeyondPoPCount(t *testing.T) {
	g := testBackbone(t)
	all := testCost(t, g)
	const n = 100 // > 40 PoPs: forces co-location
	sites, err := selectSites(g, all, n, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if sites.N() != n || len(sites.Cost) != n {
		t.Fatalf("placed %d sites, cost %d rows", sites.N(), len(sites.Cost))
	}
	coLocated := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := sites.Cost[i][j]
			if i == j {
				if c != 0 {
					t.Fatalf("Cost[%d][%d] = %v, want 0", i, j, c)
				}
				continue
			}
			if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
				t.Fatalf("Cost[%d][%d] = %v, want positive finite", i, j, c)
			}
			// Dijkstra summation order differs per source row, so
			// symmetry holds only to rounding.
			if math.Abs(c-sites.Cost[j][i]) > 1e-9*c {
				t.Fatalf("asymmetric cost at (%d,%d): %v vs %v", i, j, c, sites.Cost[j][i])
			}
			if sites.Nodes[i].ID == sites.Nodes[j].ID {
				coLocated++
				if c != CoLocatedCostMs {
					t.Fatalf("co-located pair (%d,%d) cost %v, want %v", i, j, c, CoLocatedCostMs)
				}
			}
		}
	}
	if coLocated == 0 {
		t.Fatal("100 sites on 40 PoPs produced no co-located pair")
	}

	again, err := selectSites(g, all, n, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sites.Nodes {
		if sites.Nodes[i].ID != again.Nodes[i].ID {
			t.Fatalf("placement not deterministic at site %d", i)
		}
	}

	// Same seed, n <= PoP count: a small placement is the prefix of a
	// large one, so small clusters are comparable with large ones.
	small, err := selectSites(g, all, 10, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Nodes {
		if small.Nodes[i].ID != sites.Nodes[i].ID {
			t.Fatalf("site %d: 10-site placement PoP %d, 100-site placement PoP %d", i, small.Nodes[i].ID, sites.Nodes[i].ID)
		}
	}
}
