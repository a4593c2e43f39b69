package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

func baseCfg(n int, cap CapacityKind, pop PopularityKind) Config {
	return Config{N: n, Capacity: cap, Popularity: pop, Mode: ModeFraction}
}

func coverageCfg(n int, cap CapacityKind, pop PopularityKind) Config {
	return Config{N: n, Capacity: cap, Popularity: pop, Mode: ModeCoverage}
}

func TestConfigValidate(t *testing.T) {
	good := baseCfg(5, CapacityUniform, PopularityZipf)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{N: 1, Capacity: CapacityUniform, Popularity: PopularityZipf},
		{N: 5, Capacity: 0, Popularity: PopularityZipf},
		{N: 5, Capacity: CapacityUniform, Popularity: 0},
		{N: 5, Capacity: CapacityUniform, Popularity: PopularityZipf, ZipfExponent: -1},
		{N: 5, Capacity: CapacityUniform, Popularity: PopularityZipf, SubscribeFraction: 1.5},
		{N: 5, Capacity: CapacityUniform, Popularity: PopularityZipf, SubscribeFraction: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if CapacityUniform.String() != "uniform" || CapacityHeterogeneous.String() != "heterogeneous" {
		t.Error("capacity kind strings wrong")
	}
	if PopularityZipf.String() != "zipf" || PopularityRandom.String() != "random" {
		t.Error("popularity kind strings wrong")
	}
	if CapacityKind(99).String() == "" || PopularityKind(99).String() == "" {
		t.Error("unknown kinds should still render")
	}
}

func TestGenerateUniformCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := Generate(baseCfg(10, CapacityUniform, PopularityRandom), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Sites {
		if s.In != s.Out {
			t.Errorf("site %d: In %d != Out %d", i, s.In, s.Out)
		}
		if s.In < 15 || s.In > 20 {
			t.Errorf("site %d capacity %d outside 20-ε with ε in [0,5]", i, s.In)
		}
		if s.NumStreams != 20 {
			t.Errorf("site %d has %d streams, want 20", i, s.NumStreams)
		}
	}
}

func TestGenerateHeterogeneousCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := Generate(baseCfg(8, CapacityHeterogeneous, PopularityRandom), rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i, s := range w.Sites {
		counts[s.In]++
		if s.NumStreams < 10 || s.NumStreams > 30 {
			t.Errorf("site %d has %d streams, want 10..30", i, s.NumStreams)
		}
	}
	// 8 sites: 4 large (30), 2 medium (20), 2 small (10).
	if counts[30] != 4 || counts[20] != 2 || counts[10] != 2 {
		t.Errorf("capacity split = %v, want 30:4 20:2 10:2", counts)
	}
}

func TestGenerateSubscriptionInvariants(t *testing.T) {
	for _, pop := range []PopularityKind{PopularityZipf, PopularityRandom} {
		for _, cap := range []CapacityKind{CapacityUniform, CapacityHeterogeneous} {
			rng := rand.New(rand.NewSource(3))
			w, err := Generate(baseCfg(6, cap, pop), rng)
			if err != nil {
				t.Fatalf("%v/%v: %v", cap, pop, err)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%v/%v: invalid workload: %v", cap, pop, err)
			}
			if w.TotalRequests() == 0 {
				t.Errorf("%v/%v: empty workload", cap, pop)
			}
		}
	}
}

func TestGenerateSubscribeFractionHonored(t *testing.T) {
	cfg := baseCfg(5, CapacityUniform, PopularityRandom)
	cfg.SubscribeFraction = 0.25
	rng := rand.New(rand.NewSource(4))
	w, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, subs := range w.Subs {
		remote := 0
		for j, s := range w.Sites {
			if j != i {
				remote += s.NumStreams
			}
		}
		want := int(math.Round(0.25 * float64(remote)))
		if len(subs) != want {
			t.Errorf("site %d subscribed %d, want %d", i, len(subs), want)
		}
	}
}

func TestZipfSkewsTowardFrontCameras(t *testing.T) {
	// Across many samples, camera 0 must be subscribed far more often
	// than the last camera under Zipf, and about equally under random.
	const samples = 60
	countIndex := func(pop PopularityKind) (first, last int) {
		for s := 0; s < samples; s++ {
			rng := rand.New(rand.NewSource(int64(100 + s)))
			cfg := baseCfg(6, CapacityUniform, pop)
			w, err := Generate(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, subs := range w.Subs {
				for _, id := range subs {
					switch id.Index {
					case 0:
						first++
					case 19:
						last++
					}
				}
			}
		}
		return first, last
	}
	zf, zl := countIndex(PopularityZipf)
	if zf < 3*zl {
		t.Errorf("zipf: camera0=%d camera19=%d, want strong skew", zf, zl)
	}
	rf, rl := countIndex(PopularityRandom)
	if rf > 2*rl || rl > 2*rf {
		t.Errorf("random: camera0=%d camera19=%d, want rough balance", rf, rl)
	}
}

func TestRequestMatrixConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := Generate(baseCfg(7, CapacityHeterogeneous, PopularityZipf), rng)
	if err != nil {
		t.Fatal(err)
	}
	u := w.RequestMatrix()
	var total int
	for i := range u {
		if u[i][i] != 0 {
			t.Errorf("u[%d][%d] = %d, want 0", i, i, u[i][i])
		}
		for j := range u[i] {
			total += u[i][j]
		}
	}
	if total != w.TotalRequests() {
		t.Errorf("matrix total %d != TotalRequests %d", total, w.TotalRequests())
	}
}

func TestSubscribedStreamsSortedDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w, err := Generate(baseCfg(5, CapacityUniform, PopularityZipf), rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := w.SubscribedStreams()
	if len(ids) == 0 {
		t.Fatal("no subscribed streams")
	}
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Fatalf("not strictly sorted at %d: %v %v", i, ids[i-1], ids[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	sites := []Site{{In: 5, Out: 5, NumStreams: 2}, {In: 5, Out: 5, NumStreams: 2}}
	if _, err := New(sites, [][]stream.ID{{{Site: 1, Index: 0}}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Own-site subscription.
	if _, err := New(sites, [][]stream.ID{{{Site: 0, Index: 0}}, nil}); err == nil {
		t.Error("own-site subscription accepted")
	}
	// Nonexistent stream index.
	if _, err := New(sites, [][]stream.ID{{{Site: 1, Index: 5}}, nil}); err == nil {
		t.Error("nonexistent stream accepted")
	}
	// Nonexistent site.
	if _, err := New(sites, [][]stream.ID{{{Site: 7, Index: 0}}, nil}); err == nil {
		t.Error("nonexistent site accepted")
	}
	// Duplicate.
	if _, err := New(sites, [][]stream.ID{{{Site: 1, Index: 0}, {Site: 1, Index: 0}}, nil}); err == nil {
		t.Error("duplicate subscription accepted")
	}
	// Valid.
	w, err := New(sites, [][]stream.ID{{{Site: 1, Index: 0}}, {{Site: 0, Index: 1}}})
	if err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if w.N() != 2 || w.TotalRequests() != 2 {
		t.Errorf("N=%d total=%d", w.N(), w.TotalRequests())
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(baseCfg(5, CapacityUniform, PopularityZipf), nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Generate(baseCfg(1, CapacityUniform, PopularityZipf), rand.New(rand.NewSource(1))); err == nil {
		t.Error("N=1 accepted")
	}
}
