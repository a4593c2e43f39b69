package fov

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tele3d/tele3d/internal/stream"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{math.Pi, math.Pi},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
			return true
		}
		got := NormalizeAngle(a)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngularDistance(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, TwoPi - 0.1, 0.2}, // wraps around
		{math.Pi / 2, math.Pi, math.Pi / 2},
		{TwoPi - 0.3, 0.3, 0.6},
	}
	for _, tt := range tests {
		if got := AngularDistance(tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("AngularDistance(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAngularDistanceSymmetricAndBounded(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		d1, d2 := AngularDistance(a, b), AngularDistance(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSiteLayoutCameraAngle(t *testing.T) {
	lay := SiteLayout{Site: 0, NumCameras: 8}
	a0, err := lay.CameraAngle(0)
	if err != nil || a0 != 0 {
		t.Errorf("CameraAngle(0) = %v, %v", a0, err)
	}
	a4, err := lay.CameraAngle(4)
	if err != nil || math.Abs(a4-math.Pi) > 1e-12 {
		t.Errorf("CameraAngle(4) = %v, %v; want π", a4, err)
	}
	if _, err := lay.CameraAngle(8); err == nil {
		t.Error("camera 8 of 8 accepted")
	}
	if _, err := lay.CameraAngle(-1); err == nil {
		t.Error("camera -1 accepted")
	}
}

func TestNewCyberspaceValidation(t *testing.T) {
	if _, err := NewCyberspace([]int{8}); err == nil {
		t.Error("single-site cyberspace accepted")
	}
	if _, err := NewCyberspace([]int{8, 0}); err == nil {
		t.Error("zero-camera site accepted")
	}
	cs, err := NewCyberspace([]int{8, 10, 6})
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumSites() != 3 {
		t.Errorf("NumSites = %d", cs.NumSites())
	}
	if lay := cs.layouts[1]; lay.NumCameras != 10 {
		t.Errorf("site 1 layout = %+v", lay)
	}
	if _, err := cs.SiteAngle(-1); err == nil {
		t.Error("negative site angle accepted")
	}
}

func TestFOVValidate(t *testing.T) {
	good := FOV{Observer: 0, Azimuth: 1, Aperture: math.Pi, Budget: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("good FOV rejected: %v", err)
	}
	bad := []FOV{
		{Aperture: math.Pi, Budget: 0},
		{Aperture: 0, Budget: 3},
		{Aperture: TwoPi + 0.1, Budget: 3},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad FOV %d accepted", i)
		}
	}
}

func TestContributingExcludesObserverAndBackCameras(t *testing.T) {
	cs, err := NewCyberspace([]int{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	siteAngle, _ := cs.SiteAngle(2)
	f := FOV{Observer: 0, Azimuth: siteAngle, Aperture: math.Pi / 2, Budget: 100}
	cons, err := cs.Contributing(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) == 0 {
		t.Fatal("no contributing streams for a direct look at site 2")
	}
	for _, c := range cons {
		if c.Stream.Site == 0 {
			t.Errorf("observer's own stream %v selected", c.Stream)
		}
		if c.Stream.Site != 2 {
			t.Errorf("stream %v outside the narrow FOV window", c.Stream)
		}
		if c.Score <= 0 || c.Score > 1 {
			t.Errorf("score %v out of (0,1]", c.Score)
		}
	}
	// With 8 cameras, exactly those facing the viewing ray contribute:
	// alignment cos(d) > 0 admits cameras within ±π/2 of the facing
	// direction — at most 4 of 8 (Figure 4 selects 4 of 8 cameras).
	if len(cons) > 4 {
		t.Errorf("%d cameras contribute, want <=4 of 8 (Figure 4)", len(cons))
	}
}

func TestContributingFigure4Shape(t *testing.T) {
	// Two sites: observer 0 looks straight at site 1. The most
	// contributing camera should be the one whose axis faces back along
	// the viewing ray, and scores should fall off monotonically with
	// angular distance from it.
	cs, err := NewCyberspace([]int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	az, _ := cs.SiteAngle(1)
	cons, err := cs.Contributing(FOV{Observer: 0, Azimuth: az, Aperture: math.Pi, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) == 0 {
		t.Fatal("no contributions")
	}
	best := cons[0]
	lay := cs.layouts[1]
	facing := NormalizeAngle(az + math.Pi)
	bestAngle, _ := lay.CameraAngle(best.Stream.Index)
	for q := 0; q < lay.NumCameras; q++ {
		a, _ := lay.CameraAngle(q)
		if AngularDistance(a, facing) < AngularDistance(bestAngle, facing)-1e-9 {
			t.Errorf("camera %d is closer to facing dir than selected best %d", q, best.Stream.Index)
		}
	}
	for i := 1; i < len(cons); i++ {
		if cons[i].Score > cons[i-1].Score+1e-12 {
			t.Errorf("scores not descending at %d", i)
		}
	}
}

func TestContributingBudgetTruncation(t *testing.T) {
	cs, err := NewCyberspace([]int{8, 8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	wide := FOV{Observer: 0, Azimuth: math.Pi, Aperture: TwoPi, Budget: 6}
	cons, err := cs.Contributing(wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 6 {
		t.Errorf("budget 6 returned %d streams", len(cons))
	}
	// Raising the budget must return a superset prefix-wise.
	wide.Budget = 100
	all, err := cs.Contributing(wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= 6 {
		t.Fatalf("wide FOV yields only %d streams", len(all))
	}
	for i := range cons {
		if cons[i] != all[i] {
			t.Errorf("truncation changed ranking at %d: %v vs %v", i, cons[i], all[i])
		}
	}
}

func TestContributingDeterministic(t *testing.T) {
	cs, err := NewCyberspace([]int{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	f := FOV{Observer: 1, Azimuth: 0.7, Aperture: 3, Budget: 12}
	a, err := cs.Contributing(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cs.Contributing(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestContributingErrors(t *testing.T) {
	cs, err := NewCyberspace([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Contributing(FOV{Observer: 5, Aperture: 1, Budget: 1}); err == nil {
		t.Error("out-of-range observer accepted")
	}
	if _, err := cs.Contributing(FOV{Observer: 0, Aperture: 0, Budget: 1}); err == nil {
		t.Error("invalid FOV accepted")
	}
}

func TestStreamsWrapper(t *testing.T) {
	cs, err := NewCyberspace([]int{6, 6, 6})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cs.Streams(FOV{Observer: 0, Azimuth: 2, Aperture: TwoPi, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Errorf("got %d streams, want 5", len(ids))
	}
}

func TestAggregate(t *testing.T) {
	d1 := []stream.ID{{Site: 1, Index: 0}, {Site: 2, Index: 3}}
	d2 := []stream.ID{{Site: 2, Index: 3}, {Site: 1, Index: 1}, {Site: 0, Index: 5}} // own-site 0 filtered
	sub := Aggregate(0, d1, d2)
	if sub.Site != 0 {
		t.Errorf("Site = %d", sub.Site)
	}
	want := []stream.ID{{Site: 1, Index: 0}, {Site: 1, Index: 1}, {Site: 2, Index: 3}}
	if len(sub.Streams) != len(want) {
		t.Fatalf("streams = %v, want %v", sub.Streams, want)
	}
	for i := range want {
		if sub.Streams[i] != want[i] {
			t.Errorf("streams[%d] = %v, want %v", i, sub.Streams[i], want[i])
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	sub := Aggregate(3)
	if len(sub.Streams) != 0 {
		t.Errorf("empty aggregate has %d streams", len(sub.Streams))
	}
}
