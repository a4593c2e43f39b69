// Package topology builds the Internet backbone graph that overlay edge
// costs are drawn from.
//
// The paper evaluates on the CAIDA Mapnet backbone map and computes edge
// costs "based on the geographical distances between the nodes". Mapnet's
// data files are gone from the public web, so this package reconstructs an
// equivalent substrate: a PoP-level backbone over real city coordinates
// with carrier-style links, from which pairwise costs (one-way latency in
// milliseconds) are derived by shortest path.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/tele3d/tele3d/internal/geo"
)

// NodeID identifies a PoP in the backbone graph.
type NodeID int

// Node is a PoP in the backbone.
type Node struct {
	ID   NodeID
	City geo.City
}

// Edge is an undirected backbone link with a one-way latency cost.
type Edge struct {
	A, B   NodeID
	CostMs float64
}

// Graph is an undirected weighted backbone graph.
type Graph struct {
	nodes []Node
	adj   map[NodeID][]halfEdge
	edges []Edge
}

type halfEdge struct {
	to   NodeID
	cost float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[NodeID][]halfEdge)}
}

// AddNode appends a node for the given city and returns its ID.
func (g *Graph) AddNode(city geo.City) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, City: city})
	return id
}

// AddEdge inserts an undirected edge with the given cost. Self-loops and
// non-positive costs are rejected.
func (g *Graph) AddEdge(a, b NodeID, costMs float64) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	if costMs <= 0 {
		return fmt.Errorf("topology: non-positive edge cost %f", costMs)
	}
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: edge endpoints %d-%d out of range", a, b)
	}
	g.adj[a] = append(g.adj[a], halfEdge{to: b, cost: costMs})
	g.adj[b] = append(g.adj[b], halfEdge{to: a, cost: costMs})
	g.edges = append(g.edges, Edge{A: a, B: b, CostMs: costMs})
	return nil
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.valid(id) {
		return Node{}, fmt.Errorf("topology: node %d out of range", id)
	}
	return g.nodes[id], nil
}

// Nodes returns a copy of all nodes.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the number of links at the node.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// ShortestPaths runs Dijkstra from src and returns the cost to every node.
// Unreachable nodes get +Inf.
func (g *Graph) ShortestPaths(src NodeID) ([]float64, error) {
	if !g.valid(src) {
		return nil, fmt.Errorf("topology: source %d out of range", src)
	}
	dist := make([]float64, len(g.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &costHeap{{node: src, cost: 0}}
	for pq.Len() > 0 {
		cur := pq.pop()
		if cur.cost > dist[cur.node] {
			continue
		}
		for _, he := range g.adj[cur.node] {
			if nd := cur.cost + he.cost; nd < dist[he.to] {
				dist[he.to] = nd
				pq.push(costItem{node: he.to, cost: nd})
			}
		}
	}
	return dist, nil
}

// CostMatrix computes all-pairs shortest-path costs.
func (g *Graph) CostMatrix() ([][]float64, error) {
	n := len(g.nodes)
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		d, err := g.ShortestPaths(NodeID(i))
		if err != nil {
			return nil, err
		}
		m[i] = d
	}
	return m, nil
}

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	d, err := g.ShortestPaths(0)
	if err != nil {
		return false
	}
	for _, v := range d {
		if math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// costHeap is a tiny binary min-heap; avoids pulling in container/heap
// interface boilerplate for a two-field item.
type costItem struct {
	node NodeID
	cost float64
}

type costHeap []costItem

func (h costHeap) Len() int { return len(h) }

func (h *costHeap) push(it costItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].cost <= (*h)[i].cost {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *costHeap) pop() costItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].cost < (*h)[smallest].cost {
			smallest = l
		}
		if r < n && (*h)[r].cost < (*h)[smallest].cost {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Backbone builds the default 40-PoP backbone over the built-in city
// database. Links follow a carrier-style pattern: each PoP connects to its
// k nearest neighbours, plus a set of long-haul trans-oceanic links that
// mirror real submarine cable landings. Costs come from the latency model.
func Backbone(model geo.LatencyModel) (*Graph, error) {
	return backboneK(model, 3)
}

func backboneK(model geo.LatencyModel, k int) (*Graph, error) {
	g := NewGraph()
	cities := geo.Cities()
	index := make(map[string]NodeID, len(cities))
	for _, c := range cities {
		index[c.Name] = g.AddNode(c)
	}

	// k-nearest-neighbour mesh within the map.
	type cand struct {
		to NodeID
		km float64
	}
	added := make(map[[2]NodeID]bool)
	addOnce := func(a, b NodeID, km float64) error {
		key := [2]NodeID{minID(a, b), maxID(a, b)}
		if added[key] {
			return nil
		}
		added[key] = true
		return g.AddEdge(a, b, model.LatencyMs(km))
	}
	for i, ci := range cities {
		cands := make([]cand, 0, len(cities)-1)
		for j, cj := range cities {
			if i == j {
				continue
			}
			cands = append(cands, cand{to: NodeID(j), km: geo.Distance(ci.Coordinate, cj.Coordinate)})
		}
		sort.Slice(cands, func(x, y int) bool { return cands[x].km < cands[y].km })
		for n := 0; n < k && n < len(cands); n++ {
			if err := addOnce(NodeID(i), cands[n].to, cands[n].km); err != nil {
				return nil, err
			}
		}
	}

	// Long-haul links (submarine cables and major transit routes).
	longHaul := [][2]string{
		{"New York", "London"},
		{"Washington DC", "Paris"},
		{"Boston", "Amsterdam"},
		{"Miami", "Madrid"},
		{"Seattle", "Tokyo"},
		{"Los Angeles", "Tokyo"},
		{"Sunnyvale", "Osaka"},
		{"Los Angeles", "Sydney"},
		{"Vancouver", "Seoul"},
		{"Tokyo", "Seoul"},
		{"Hong Kong", "Singapore"},
		{"Singapore", "Sydney"},
		{"London", "Singapore"},
		{"Frankfurt", "Beijing"},
		{"Chicago", "Frankfurt"},
	}
	for _, lh := range longHaul {
		a, okA := index[lh[0]]
		b, okB := index[lh[1]]
		if !okA || !okB {
			return nil, fmt.Errorf("topology: long-haul endpoint missing: %v", lh)
		}
		na, _ := g.Node(a)
		nb, _ := g.Node(b)
		km := geo.Distance(na.City.Coordinate, nb.City.Coordinate)
		if err := addOnce(a, b, km); err != nil {
			return nil, err
		}
	}
	if !g.Connected() {
		return nil, errors.New("topology: backbone not connected")
	}
	return g, nil
}

func minID(a, b NodeID) NodeID {
	if a < b {
		return a
	}
	return b
}

func maxID(a, b NodeID) NodeID {
	if a > b {
		return a
	}
	return b
}

// SiteSet is a selection of backbone PoPs hosting 3DTI sites, together
// with the pairwise one-way cost matrix restricted to those PoPs.
type SiteSet struct {
	Nodes []Node      // len N, in selection order
	Cost  [][]float64 // Cost[i][j]: one-way ms between site i and site j

	// perm is SelectSitesInto's permutation scratch, retained so repeated
	// selections into the same SiteSet do not allocate.
	perm []int
}

// N returns the number of sites in the set.
func (s *SiteSet) N() int { return len(s.Nodes) }

// MedianCost returns the median off-diagonal pairwise cost, used to derive
// default latency bounds. Returns 0 for fewer than two sites.
func (s *SiteSet) MedianCost() float64 {
	var vals []float64
	for i := range s.Cost {
		for j := range s.Cost[i] {
			if i != j {
				vals = append(vals, s.Cost[i][j])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// CoLocatedCostMs is the one-way latency assumed between two sites
// hosted on the same backbone PoP (a metro-area link): co-located sites
// in a large cluster are near, not free, keeping every off-diagonal
// cost positive as the overlay problem requires.
const CoLocatedCostMs = 1.0

// SelectSitesInto places n sites on random backbone PoPs (paper §5.1:
// "We randomly select 3-10 nodes"): site i lands on the (i mod
// NumNodes)-th PoP of a seeded permutation, so up to NumNodes sites get
// distinct PoPs and larger clusters co-locate round-robin. dst.Cost
// restricts the precomputed all-pairs matrix (CostMatrix) to the chosen
// PoPs, with co-located sites CoLocatedCostMs apart. dst's storage is
// reused: no Dijkstra runs and, at steady state, nothing is allocated.
// The rng advances exactly as rng.Perm(NumNodes) would advance it.
func (g *Graph) SelectSitesInto(dst *SiteSet, allCost [][]float64, n int, rng *rand.Rand) error {
	total := g.NumNodes()
	if n < 1 || total == 0 {
		return fmt.Errorf("topology: cannot place %d sites on %d nodes", n, total)
	}
	if rng == nil {
		return errors.New("topology: nil rng")
	}
	if len(allCost) != total {
		return fmt.Errorf("topology: all-pairs matrix has %d rows, graph has %d nodes", len(allCost), total)
	}
	if cap(dst.perm) >= total {
		dst.perm = dst.perm[:total]
	} else {
		dst.perm = make([]int, total)
	}
	permInto(rng, dst.perm)
	pop := func(i int) int { return dst.perm[i%total] }
	if cap(dst.Nodes) >= n {
		dst.Nodes = dst.Nodes[:n]
	} else {
		dst.Nodes = make([]Node, n)
	}
	for i := range dst.Nodes {
		dst.Nodes[i] = g.nodes[pop(i)]
	}
	if cap(dst.Cost) >= n {
		dst.Cost = dst.Cost[:n]
	} else {
		dst.Cost = make([][]float64, n)
	}
	for i := 0; i < n; i++ {
		if cap(dst.Cost[i]) >= n {
			dst.Cost[i] = dst.Cost[i][:n]
		} else {
			dst.Cost[i] = make([]float64, n)
		}
		pi := pop(i)
		row := allCost[pi]
		for j := 0; j < n; j++ {
			c := row[pop(j)]
			if i != j && pop(j) == pi {
				c = CoLocatedCostMs
			}
			dst.Cost[i][j] = c
		}
	}
	return nil
}

// permInto fills buf with the same permutation rng.Perm(len(buf)) would
// return, without allocating. The draw sequence matches math/rand's Perm
// exactly (that algorithm is pinned by the Go 1 compatibility promise:
// changing it would change the stream behind every seeded program), so
// the rng advances identically.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}
