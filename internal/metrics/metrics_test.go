package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

// twoSiteForest builds a tiny instance where site 1 requests both of site
// 0's streams and site 0 requests site 1's single stream; capacities allow
// accepting only some requests depending on `inCap`.
func buildForest(t *testing.T, inCap int) *overlay.Forest {
	t.Helper()
	cost := [][]float64{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}}
	p := &overlay.Problem{
		In:    []int{5, inCap, 5},
		Out:   []int{5, 5, 5},
		Cost:  cost,
		Bcost: 50,
		Requests: []overlay.Request{
			{Node: 1, Stream: stream.ID{Site: 0, Index: 0}},
			{Node: 1, Stream: stream.ID{Site: 0, Index: 1}},
			{Node: 0, Stream: stream.ID{Site: 1, Index: 0}},
			{Node: 2, Stream: stream.ID{Site: 0, Index: 0}},
		},
	}
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRejectionBounds(t *testing.T) {
	full := buildForest(t, 5)
	if got := Rejection(full); got != 0 {
		t.Errorf("ample capacity: rejection = %v, want 0", got)
	}
	none := buildForest(t, 0)
	// Node 1's two requests rejected; others accepted.
	want := 2.0 / 4.0
	if got := Rejection(none); math.Abs(got-want) > 1e-9 {
		t.Errorf("rejection = %v, want %v", got, want)
	}
}

func TestWeightedRejectionEquation3(t *testing.T) {
	none := buildForest(t, 0)
	// For node 1: û[1][0]/u² · u_min = 2/4 · 2 = 1.0 (only pair).
	if got := WeightedRejectionRaw(none); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Eq.3 raw = %v, want 1.0", got)
	}
	// Normalized: Σû·q / Σu·q = (2·0.5)/(2·0.5 + 1 + 1) = 1/3.
	if got := WeightedRejection(none); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("Eq.3 norm = %v, want 1/3", got)
	}
	if got := WeightedRejection(buildForest(t, 5)); got != 0 {
		t.Errorf("Eq.3 norm = %v, want 0", got)
	}
}

func TestMeasureUtilization(t *testing.T) {
	f := buildForest(t, 5)
	u := MeasureUtilization(f)
	// 4 accepted edges: site0 sends both streams + relays? All direct
	// here: dout(0) counts its children; verify against forest state.
	p := f.Problem()
	var wantMean float64
	n := 0
	for i := range p.Out {
		if p.Out[i] > 0 {
			wantMean += float64(f.OutDegree(i)) / float64(p.Out[i])
			n++
		}
	}
	wantMean /= float64(n)
	if math.Abs(u.MeanOut-wantMean) > 1e-9 {
		t.Errorf("MeanOut = %v, want %v", u.MeanOut, wantMean)
	}
	if u.RelayFraction < 0 || u.RelayFraction > u.MeanOut {
		t.Errorf("RelayFraction = %v outside [0, MeanOut]", u.RelayFraction)
	}
	if u.StdDevOut < 0 {
		t.Errorf("StdDevOut = %v", u.StdDevOut)
	}
}

func TestRelayFractionCountsOnlyForeignStreams(t *testing.T) {
	// Chain: source 0 -> node 1 -> node 2 for one stream. Node 1 relays a
	// foreign stream: its relay count is 1.
	sID := stream.ID{Site: 0, Index: 0}
	p := &overlay.Problem{
		In:    []int{2, 2, 2},
		Out:   []int{1, 2, 2}, // source can serve only one child
		Cost:  [][]float64{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}},
		Bcost: 100,
		Requests: []overlay.Request{
			{Node: 1, Stream: sID}, {Node: 2, Stream: sID},
		},
	}
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rejected()) != 0 {
		t.Fatalf("rejections: %v", f.Rejected())
	}
	u := MeasureUtilization(f)
	// Exactly one relay edge exists (either 1→2 or 2→1), at a node with
	// O=2: relay fraction mean = (0 + 0.5 + 0)/3.
	if math.Abs(u.RelayFraction-0.5/3) > 1e-9 {
		t.Errorf("RelayFraction = %v, want %v", u.RelayFraction, 0.5/3)
	}
}

func TestMeanStdDev(t *testing.T) {
	m, sd := MeanStdDev(nil)
	if m != 0 || sd != 0 {
		t.Errorf("empty: %v, %v", m, sd)
	}
	m, sd = MeanStdDev([]float64{3})
	if m != 3 || sd != 0 {
		t.Errorf("single: %v, %v", m, sd)
	}
	m, sd = MeanStdDev([]float64{1, 2, 3, 4})
	if math.Abs(m-2.5) > 1e-12 || math.Abs(sd-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("got %v, %v", m, sd)
	}
}

func TestMeanStdDevProperties(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		m, sd := MeanStdDev(vals)
		if len(vals) == 0 {
			return m == 0 && sd == 0
		}
		if sd < 0 {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if err := s.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	s.Y = s.Y[:1]
	if err := s.Validate(); err == nil {
		t.Error("mismatched series accepted")
	}
}
