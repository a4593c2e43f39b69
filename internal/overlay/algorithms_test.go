package overlay

import (
	"math/rand"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// randomProblem draws a paper-style instance on n sites.
func randomProblem(t testing.TB, n int, cap workload.CapacityKind, pop workload.PopularityKind, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.Generate(workload.Config{N: n, Capacity: cap, Popularity: pop}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Random metric-ish costs: base in [5, 50), plus a latency bound that
	// admits roughly two hops.
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 5 + rng.Float64()*45
			cost[i][j], cost[j][i] = c, c
		}
	}
	p, err := FromWorkload(w, cost, 60)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func allAlgorithms() []Algorithm {
	return []Algorithm{STF{}, LTF{}, MCTF{}, RJ{}, GranLTF{G: 1}, GranLTF{G: 3}, GranLTF{G: 1000}, CORJ{}, AllToAll{}}
}

func TestAlgorithmsProduceValidForests(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				n := 3 + int(seed%8)
				capKind := workload.CapacityUniform
				if seed%2 == 1 {
					capKind = workload.CapacityHeterogeneous
				}
				popKind := workload.PopularityRandom
				if seed%3 == 1 {
					popKind = workload.PopularityZipf
				}
				p := randomProblem(t, n, capKind, popKind, 1000+seed)
				f, err := alg.Construct(p, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := f.Validate(); err != nil {
					t.Fatalf("seed %d: invalid forest: %v", seed, err)
				}
			}
		})
	}
}

func TestAlgorithmsDeterministicPerSeed(t *testing.T) {
	p := randomProblem(t, 6, workload.CapacityUniform, workload.PopularityZipf, 7)
	for _, alg := range allAlgorithms() {
		a, err := alg.Construct(p, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.Construct(p, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.Rejected(), b.Rejected()
		if len(ra) != len(rb) {
			t.Fatalf("%s: nondeterministic rejection count %d vs %d", alg.Name(), len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: nondeterministic rejection at %d", alg.Name(), i)
			}
		}
	}
}

func TestAlgorithmsRejectNilRNG(t *testing.T) {
	p := randomProblem(t, 4, workload.CapacityUniform, workload.PopularityRandom, 1)
	for _, alg := range allAlgorithms() {
		if _, err := alg.Construct(p, nil); err == nil {
			t.Errorf("%s accepted nil rng", alg.Name())
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	wants := map[string]Algorithm{
		"STF": STF{}, "LTF": LTF{}, "MCTF": MCTF{}, "RJ": RJ{},
		"Gran-LTF(5)": GranLTF{G: 5}, "CO-RJ": CORJ{}, "AllToAll": AllToAll{},
	}
	for want, alg := range wants {
		if got := alg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if len(Algorithms()) != 4 {
		t.Errorf("Algorithms() returned %d entries, want the paper's 4", len(Algorithms()))
	}
}

func TestEverythingAcceptedWhenResourcesAmple(t *testing.T) {
	// Capacities far above demand and a generous latency bound: no
	// algorithm may reject anything.
	p := simpleProblem(t, 4, 5, 2, 100, 100, 1000)
	for _, alg := range allAlgorithms() {
		f, err := alg.Construct(p, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Rejected()) != 0 {
			t.Errorf("%s rejected %d requests despite ample resources", alg.Name(), len(f.Rejected()))
		}
		if len(f.Accepted()) != len(p.Requests) {
			t.Errorf("%s accepted %d, want %d", alg.Name(), len(f.Accepted()), len(p.Requests))
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestEverythingRejectedWhenNoInbound(t *testing.T) {
	p := simpleProblem(t, 3, 5, 2, 0, 10, 50)
	for _, alg := range allAlgorithms() {
		f, err := alg.Construct(p, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Rejected()) != len(p.Requests) {
			t.Errorf("%s: rejected %d, want all %d", alg.Name(), len(f.Rejected()), len(p.Requests))
		}
	}
}

func TestLatencyBoundRejectsDistantPairs(t *testing.T) {
	// Bound below the uniform pairwise cost: nothing can be delivered.
	p := simpleProblem(t, 3, 5, 1, 10, 10, 5) // cost 10, bound 5
	f, err := RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rejected()) != len(p.Requests) {
		t.Errorf("rejected %d, want all %d", len(f.Rejected()), len(p.Requests))
	}
}

func TestMulticastRelaysWhenSourceSaturates(t *testing.T) {
	// One source with Out=1 and three subscribers to the same stream with
	// plenty of inbound: the forest must relay through earlier joiners,
	// accepting all three requests with a chain.
	sID := stream.ID{Site: 0, Index: 0}
	p := &Problem{
		In:    []int{5, 5, 5, 5},
		Out:   []int{1, 5, 5, 5},
		Cost:  costMatrix(4, 3),
		Bcost: 100,
		Requests: []Request{
			{Node: 1, Stream: sID}, {Node: 2, Stream: sID}, {Node: 3, Stream: sID},
		},
	}
	f, err := RJ{}.Construct(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rejected()) != 0 {
		t.Fatalf("rejected %v, want none (relaying possible)", f.Rejected())
	}
	if f.OutDegree(0) != 1 {
		t.Errorf("source out-degree = %d, want exactly 1", f.OutDegree(0))
	}
	if err := f.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAllToAllNeverRelays(t *testing.T) {
	p := randomProblem(t, 6, workload.CapacityUniform, workload.PopularityRandom, 5)
	f, err := AllToAll{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.Trees() {
		for _, e := range tr.Edges() {
			if e[0] != tr.Source {
				t.Fatalf("all-to-all tree %s has relay edge %v", tr.Stream, e)
			}
		}
	}
}

func TestAllToAllRejectsMoreThanRJ(t *testing.T) {
	// The paper's motivation: unicast all-to-all exhausts source
	// out-degree quickly; the multicast forest does strictly better on a
	// saturated instance. Compare totals across a few seeds.
	var rjRej, uniRej int
	for seed := int64(0); seed < 10; seed++ {
		p := randomProblem(t, 8, workload.CapacityUniform, workload.PopularityRandom, 40+seed)
		frj, err := RJ{}.Construct(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		funi, err := AllToAll{}.Construct(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rjRej += len(frj.Rejected())
		uniRej += len(funi.Rejected())
	}
	if rjRej >= uniRej {
		t.Errorf("RJ rejected %d, all-to-all %d; multicast should win", rjRej, uniRej)
	}
}

func TestRJTendsToBeatSTF(t *testing.T) {
	// Shape check on Fig. 8: across a batch of paper-style coverage
	// instances at N=10, RJ's mean rejection must not exceed STF's. (The
	// full figure reproduction lives in internal/experiments.)
	var stf, rj int
	for seed := int64(0); seed < 40; seed++ {
		p := coverageProblem(t, 10, workload.CapacityHeterogeneous, workload.PopularityRandom, 900+seed)
		fs, err := STF{}.Construct(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := RJ{}.Construct(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		stf += len(fs.Rejected())
		rj += len(fr.Rejected())
	}
	if rj > stf {
		t.Errorf("RJ rejected %d total, STF %d; expected RJ <= STF", rj, stf)
	}
}

// coverageProblem draws a calibrated paper-style instance (coverage
// workload over the geographic backbone).
func coverageProblem(t testing.TB, n int, cap workload.CapacityKind, pop workload.PopularityKind, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.Generate(workload.Config{
		N: n, Capacity: cap, Popularity: pop,
		Mode: workload.ModeCoverage, CoverageRate: 1.0, SubscribeFraction: 0.12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	var total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 5 + rng.Float64()*45
			cost[i][j], cost[j][i] = c, c
			total += c
		}
	}
	bcost := 3 * total / float64(n*(n-1)/2)
	p, err := FromWorkload(w, cost, bcost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGranLTFExtremes(t *testing.T) {
	p := randomProblem(t, 8, workload.CapacityUniform, workload.PopularityRandom, 77)
	groups := p.Groups()
	if len(groups) < 2 {
		t.Skip("degenerate instance")
	}
	// g=1 processes trees one at a time like LTF (identical group order).
	fa, err := GranLTF{G: 1}.Construct(p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := LTF{}.Construct(p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.Rejected()) != len(fb.Rejected()) {
		t.Errorf("Gran-LTF(1) rejected %d, LTF %d; must be identical", len(fa.Rejected()), len(fb.Rejected()))
	}
	// g >= F pools all requests like RJ does (ordering differs only by
	// the pre-shuffle sort, so compare batch structure via validity).
	fc, err := GranLTF{G: len(groups)}.Construct(p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGranLTFInvalidGranularity(t *testing.T) {
	p := randomProblem(t, 4, workload.CapacityUniform, workload.PopularityRandom, 1)
	if _, err := (GranLTF{G: 0}).Construct(p, rand.New(rand.NewSource(1))); err == nil {
		t.Error("granularity 0 accepted")
	}
}

func TestMCTFOrdersByAggregateCapacity(t *testing.T) {
	// Build an instance with two groups of equal size but different
	// member capacity and verify sortGroups ranks the scarce one first.
	s0 := stream.ID{Site: 0, Index: 0}
	s1 := stream.ID{Site: 1, Index: 0}
	p := &Problem{
		In:    []int{10, 10, 2, 10},
		Out:   []int{2, 20, 2, 20}, // node 0 and 2 scarce
		Cost:  costMatrix(4, 5),
		Bcost: 50,
		Requests: []Request{
			{Node: 2, Stream: s0}, // group s0: members {2}, source 0 → capacity small
			{Node: 3, Stream: s1}, // group s1: members {3}, source 1 → capacity large
		},
	}
	groups := p.Groups()
	sortGroups(nil, p, groups, orderMinCapacityFirst)
	if groups[0].Stream != s0 {
		t.Errorf("MCTF order starts with %v, want %v (least aggregate capacity)", groups[0].Stream, s0)
	}
}

// TestParseAlgorithm pins the one name parser every command shares:
// each plain algorithm's Name parses back to it, the alternative
// spellings resolve, and bad names fail.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{STF{}, LTF{}, MCTF{}, RJ{}, CORJ{}, AllToAll{}} {
		got, err := ParseAlgorithm(a.Name())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.Name(), got, err, a)
		}
	}
	for name, want := range map[string]Algorithm{
		"corj": CORJ{}, "all-to-all": AllToAll{}, "Rj": RJ{}, "GRAN-LTF:20": GranLTF{G: 20},
	} {
		if got, err := ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "dijkstra", "gran-ltf:0", "gran-ltf:x", "gran-ltf:", "Gran-LTF(20)"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}
