package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// costMatrix builds a symmetric all-pairs cost matrix with uniform cost c.
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

// simpleProblem builds an N-node instance where every node subscribes to
// the first k streams of every other node.
func simpleProblem(t *testing.T, n, streamsPerSite, k, in, out int, bcost float64) *Problem {
	t.Helper()
	p := &Problem{
		In:    make([]int, n),
		Out:   make([]int, n),
		Cost:  costMatrix(n, 10),
		Bcost: bcost,
	}
	for i := 0; i < n; i++ {
		p.In[i] = in
		p.Out[i] = out
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for q := 0; q < k && q < streamsPerSite; q++ {
				p.Requests = append(p.Requests, Request{Node: i, Stream: stream.ID{Site: j, Index: q}})
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("simpleProblem invalid: %v", err)
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	good := simpleProblem(t, 3, 5, 2, 10, 10, 50)
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(p *Problem)
	}{
		{"too few nodes", func(p *Problem) { p.In = p.In[:1]; p.Out = p.Out[:1]; p.Cost = p.Cost[:1] }},
		{"in/out mismatch", func(p *Problem) { p.Out = p.Out[:2] }},
		{"bad cost rows", func(p *Problem) { p.Cost = p.Cost[:2] }},
		{"bad cost cols", func(p *Problem) { p.Cost[0] = p.Cost[0][:2] }},
		{"nonzero diagonal", func(p *Problem) { p.Cost[1][1] = 5 }},
		{"negative cost", func(p *Problem) { p.Cost[0][1] = -1 }},
		{"negative capacity", func(p *Problem) { p.In[0] = -1 }},
		{"zero bcost", func(p *Problem) { p.Bcost = 0 }},
		{"own-stream request", func(p *Problem) {
			p.Requests = append(p.Requests, Request{Node: 0, Stream: stream.ID{Site: 0, Index: 0}})
		}},
		{"bad node", func(p *Problem) {
			p.Requests = append(p.Requests, Request{Node: 9, Stream: stream.ID{Site: 0, Index: 0}})
		}},
		{"bad stream site", func(p *Problem) {
			p.Requests = append(p.Requests, Request{Node: 0, Stream: stream.ID{Site: 9, Index: 0}})
		}},
		{"negative stream index", func(p *Problem) {
			p.Requests = append(p.Requests, Request{Node: 0, Stream: stream.ID{Site: 1, Index: -1}})
		}},
		{"unbounded stream index", func(p *Problem) {
			p.Requests = append(p.Requests, Request{Node: 0, Stream: stream.ID{Site: 1, Index: 1 << 30}})
		}},
		{"duplicate request", func(p *Problem) {
			p.Requests = append(p.Requests, p.Requests[0])
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := simpleProblem(t, 3, 5, 2, 10, 10, 50)
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("mutated problem accepted")
			}
		})
	}
}

func TestFromWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := workload.Generate(workload.Config{
		N: 5, Capacity: workload.CapacityUniform, Popularity: workload.PopularityRandom,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromWorkload(w, costMatrix(5, 20), 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 5 {
		t.Errorf("N = %d", p.N())
	}
	if len(p.Requests) != w.TotalRequests() {
		t.Errorf("requests %d, want %d", len(p.Requests), w.TotalRequests())
	}
	u := p.RequestMatrix()
	wu := w.RequestMatrix()
	for i := range u {
		for j := range u[i] {
			if u[i][j] != wu[i][j] {
				t.Errorf("u[%d][%d] = %d, workload says %d", i, j, u[i][j], wu[i][j])
			}
		}
	}
	if _, err := FromWorkload(nil, nil, 1); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestGroups(t *testing.T) {
	p := simpleProblem(t, 4, 5, 2, 10, 10, 50)
	groups := p.Groups()
	// 4 sites, 2 subscribed streams each => 8 groups of 3 members.
	if len(groups) != 8 {
		t.Fatalf("groups = %d, want 8", len(groups))
	}
	for i, g := range groups {
		if g.Size() != 3 {
			t.Errorf("group %v size %d, want 3", g.Stream, g.Size())
		}
		if g.Source() != g.Stream.Site {
			t.Errorf("group %v source %d", g.Stream, g.Source())
		}
		for _, m := range g.Members {
			if m == g.Source() {
				t.Errorf("group %v contains its source as member", g.Stream)
			}
		}
		if i > 0 && !groups[i-1].Stream.Less(g.Stream) {
			t.Errorf("groups not sorted at %d", i)
		}
	}
}

// forwardingCapacityTally is the map-based oracle for MCTF's forwarding
// capacity O_i - m_i, m_i being the number of distinct streams
// originating at node i that at least one other RP requests.
func forwardingCapacityTally(p *Problem) []int {
	fc := append([]int(nil), p.Out...)
	seen := make(map[stream.ID]bool)
	for _, r := range p.Requests {
		if !seen[r.Stream] {
			seen[r.Stream] = true
			fc[r.Stream.Site]--
		}
	}
	return fc
}

// TestSortGroupsForwardingCapacity checks the forwarding capacity
// sortGroups derives from the groups against the map tally, on a fixed
// problem and on random ones.
func TestSortGroupsForwardingCapacity(t *testing.T) {
	check := func(name string, p *Problem) []int {
		t.Helper()
		var ws Workspace
		sortGroups(&ws, p, ws.groupsFor(p), orderMinCapacityFirst)
		want := forwardingCapacityTally(p)
		if !slices.Equal(ws.fc, want) {
			t.Errorf("%s: forwarding capacity %v, want %v", name, ws.fc, want)
		}
		return ws.fc
	}
	// Each site's streams 0 and 1 are subscribed by both other sites:
	// m_i = 2 of O_i = 10.
	for i, v := range check("fixed", simpleProblem(t, 3, 5, 2, 10, 10, 50)) {
		if v != 8 {
			t.Errorf("fc[%d] = %d, want 8", i, v)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		n := 3 + int(seed)%8
		check(fmt.Sprintf("random seed %d", seed), randomProblem(t, n, workload.CapacityHeterogeneous, workload.PopularityZipfSites, seed))
	}
}

func TestRequestString(t *testing.T) {
	r := Request{Node: 2, Stream: stream.ID{Site: 1, Index: 3}}
	if got, want := r.String(), "r2(s1^3)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
