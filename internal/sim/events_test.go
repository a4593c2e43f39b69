package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

// starProblem builds a 3-node instance with ample capacity: source 0 can
// serve both other nodes directly.
func starProblem(requests ...overlay.Request) *overlay.Problem {
	return &overlay.Problem{
		In: []int{5, 5, 5}, Out: []int{5, 5, 5},
		Cost:     [][]float64{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}},
		Bcost:    100,
		Requests: requests,
	}
}

func testProfile() stream.Profile {
	// 10 fps: frames at 0, 100, 200, ... ms.
	return stream.Profile{Width: 64, Height: 48, FPS: 10, CompressionRatio: 10}
}

// TestRunEventsEmptyTraceMatchesStaticRun pins the static replay: with no
// control events, every accepted (node, stream) pair of a multi-tree
// forest receives every captured frame at its tree path cost plus the
// per-hop overhead, and the result lists the pairs sorted by (node,
// stream).
func TestRunEventsEmptyTraceMatchesStaticRun(t *testing.T) {
	prof := testProfile()
	const durationMs, frames = 1000, 10
	for _, f := range []*overlay.Forest{chainForest(t), paperForest(t)} {
		for _, hop := range []float64{0, 5} {
			res, err := RunEvents(Config{Forest: f, Profile: prof, DurationMs: durationMs, HopOverheadMs: hop}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []DeliveryStats
			maxLat := 0.0
			for _, tr := range f.Trees() {
				for _, v := range tr.Nodes() {
					if v == tr.Source {
						continue
					}
					hops := 0
					for cur := v; cur != tr.Source; hops++ {
						cur, _ = tr.Parent(cur)
					}
					cost, _ := tr.CostFromSource(v)
					lat := cost + hop*float64(hops)
					maxLat = math.Max(maxLat, lat)
					want = append(want, DeliveryStats{Node: v, Stream: tr.Stream, Frames: frames, MeanLatMs: lat, MaxLatMs: lat, Hops: hops})
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Node != want[j].Node {
					return want[i].Node < want[j].Node
				}
				return want[i].Stream.Less(want[j].Stream)
			})
			if len(res.PerSubscription) != len(want) {
				t.Fatalf("hop %v: %d per-subscription entries, want %d", hop, len(res.PerSubscription), len(want))
			}
			for i, got := range res.PerSubscription {
				w := want[i]
				if got.Node != w.Node || got.Stream != w.Stream || got.Frames != w.Frames || got.Hops != w.Hops ||
					math.Abs(got.MeanLatMs-w.MeanLatMs) > 1e-9 || math.Abs(got.MaxLatMs-w.MaxLatMs) > 1e-9 {
					t.Errorf("hop %v: entry %d = %+v, want %+v", hop, i, got, w)
				}
			}
			if res.TotalFrames != frames*len(want) || math.Abs(res.MaxLatencyMs-maxLat) > 1e-9 {
				t.Errorf("hop %v: totals (%d, %v), want (%d, %v)", hop, res.TotalFrames, res.MaxLatencyMs, frames*len(want), maxLat)
			}
		}
	}
}

func TestRunEventsMidSessionSubscribeDisruption(t *testing.T) {
	sID := stream.ID{Site: 0, Index: 0}
	p := starProblem(overlay.Request{Node: 1, Stream: sID})
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 subscribes at t=150ms and attaches under node 1 (RFC 5 beats
	// the source's 4 under max-rfc), two hops at 5ms each. The frame
	// captured at 200ms is the first forwarded to it: arrival 210,
	// disruption 60ms, frame latency 10ms.
	events := []Event{{AtMs: 150, Kind: EventSubscribe, Node: 2, Gained: []stream.ID{sID}}}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 1000}, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(res.Events))
	}
	out := res.Events[0]
	if out.GainedAccepted != 1 || out.GainedRejected != 0 || out.Skipped != 0 {
		t.Fatalf("outcome %+v, want 1 accepted", out)
	}
	if out.DeliveredGained != 1 || out.Undelivered != 0 {
		t.Fatalf("outcome %+v, want 1 delivered", out)
	}
	if math.Abs(out.MeanDisruptionMs-60) > 1e-9 || math.Abs(out.MaxDisruptionMs-60) > 1e-9 {
		t.Errorf("disruption mean %.2f max %.2f, want 60", out.MeanDisruptionMs, out.MaxDisruptionMs)
	}
	if math.Abs(res.MeanDisruptionMs-60) > 1e-9 {
		t.Errorf("aggregate disruption %.2f, want 60", res.MeanDisruptionMs)
	}
	// Node 2 receives frames 2..9: 8 frames at 5ms each.
	for _, st := range res.PerSubscription {
		if st.Node != 2 {
			continue
		}
		if st.Frames != 8 {
			t.Errorf("node 2 frames = %d, want 8", st.Frames)
		}
		if math.Abs(st.MeanLatMs-10) > 1e-9 {
			t.Errorf("node 2 mean latency %.2f, want 10", st.MeanLatMs)
		}
		if st.Hops != 2 {
			t.Errorf("node 2 hops = %d, want 2", st.Hops)
		}
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid after trace: %v", err)
	}
}

func TestRunEventsUnsubscribeStopsDeliveryAndReattaches(t *testing.T) {
	// Chain 0 -> relay -> leaf (source out-degree 1). The relay leaves at
	// t=450ms; the leaf must be re-attached under the source and keep
	// receiving, while the relay receives nothing afterwards.
	f := chainForest(t)
	sID := stream.ID{Site: 0, Index: 0}
	relay := f.Tree(sID).Children(0)[0]
	leaf := 3 - relay
	events := []Event{{AtMs: 450, Kind: EventUnsubscribe, Node: relay, Lost: []stream.ID{sID}}}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 1000}, events)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Events[0]; out.LostApplied != 1 || out.Skipped != 0 {
		t.Fatalf("outcome %+v, want 1 lost applied", out)
	}
	tr := f.Tree(sID)
	if tr.Contains(relay) {
		t.Error("relay still in tree after trace")
	}
	if parent, _ := tr.Parent(leaf); parent != 0 {
		t.Errorf("leaf parent = %d, want source", parent)
	}
	var relayFrames, leafFrames int
	for _, st := range res.PerSubscription {
		switch st.Node {
		case relay:
			relayFrames = st.Frames
		case leaf:
			leafFrames = st.Frames
		}
	}
	// The relay sees frames 0..4 (captures at 0..400, arrival +10ms each).
	if relayFrames != 5 {
		t.Errorf("relay frames = %d, want 5", relayFrames)
	}
	// The leaf misses at most the frame in flight during the switch.
	if leafFrames < 9 {
		t.Errorf("leaf frames = %d, want >= 9", leafFrames)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid after trace: %v", err)
	}
}

func TestRunEventsViewChangeSwapsStreams(t *testing.T) {
	a := stream.ID{Site: 0, Index: 0}
	b := stream.ID{Site: 0, Index: 1}
	p := starProblem(overlay.Request{Node: 1, Stream: a})
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{{
		AtMs: 250, Kind: EventViewChange, Node: 1,
		Gained: []stream.ID{b}, Lost: []stream.ID{a},
	}}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 1000}, events)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Events[0]
	if out.LostApplied != 1 || out.GainedAccepted != 1 {
		t.Fatalf("outcome %+v, want swap applied", out)
	}
	// Stream b's first frame after 250ms is captured at 300, arrives 305.
	if math.Abs(out.MeanDisruptionMs-55) > 1e-9 {
		t.Errorf("disruption %.2f, want 55", out.MeanDisruptionMs)
	}
	var aFrames, bFrames int
	for _, st := range res.PerSubscription {
		switch st.Stream {
		case a:
			aFrames = st.Frames
		case b:
			bFrames = st.Frames
		}
	}
	if aFrames != 3 { // captures at 0, 100, 200
		t.Errorf("stream a frames = %d, want 3", aFrames)
	}
	if bFrames != 7 { // captures at 300..900
		t.Errorf("stream b frames = %d, want 7", bFrames)
	}
	if f.Tree(a) != nil && f.Tree(a).Contains(1) {
		t.Error("node 1 still receives a")
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid after trace: %v", err)
	}
}

func TestRunEventsSkipsInapplicableOps(t *testing.T) {
	sID := stream.ID{Site: 0, Index: 0}
	p := starProblem(overlay.Request{Node: 1, Stream: sID})
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		// Duplicate subscribe, unknown unsubscribe, out-of-range node.
		{AtMs: 100, Kind: EventSubscribe, Node: 1, Gained: []stream.ID{sID}},
		{AtMs: 200, Kind: EventUnsubscribe, Node: 2, Lost: []stream.ID{sID}},
		{AtMs: 300, Kind: EventSubscribe, Node: 99, Gained: []stream.ID{sID}},
	}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 1000}, events)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Events {
		if out.Skipped != 1 || out.GainedAccepted != 0 || out.LostApplied != 0 {
			t.Errorf("event %d outcome %+v, want 1 skipped", i, out)
		}
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid after trace: %v", err)
	}
}

func TestRunEventsValidation(t *testing.T) {
	f := chainForest(t)
	prof := testProfile()
	sID := stream.ID{Site: 0, Index: 0}
	cases := []struct {
		name   string
		cfg    Config
		events []Event
	}{
		{"nil forest", Config{Profile: prof, DurationMs: 100}, nil},
		{"zero duration", Config{Forest: f, Profile: prof}, nil},
		{"negative overhead", Config{Forest: f, Profile: prof, DurationMs: 100, HopOverheadMs: -1}, nil},
		{"event after end", Config{Forest: f, Profile: prof, DurationMs: 100},
			[]Event{{AtMs: 100, Kind: EventSubscribe, Node: 1, Gained: []stream.ID{sID}}}},
		{"negative event time", Config{Forest: f, Profile: prof, DurationMs: 100},
			[]Event{{AtMs: -1, Kind: EventSubscribe, Node: 1}}},
		{"unknown kind", Config{Forest: f, Profile: prof, DurationMs: 100},
			[]Event{{AtMs: 1, Kind: EventKind(42), Node: 1}}},
	}
	for _, c := range cases {
		if _, err := RunEvents(c.cfg, c.events); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRunEventsDeterministic(t *testing.T) {
	build := func() (*overlay.Forest, []Event) {
		sID := stream.ID{Site: 0, Index: 0}
		other := stream.ID{Site: 1, Index: 0}
		p := starProblem(
			overlay.Request{Node: 1, Stream: sID},
			overlay.Request{Node: 2, Stream: sID},
			overlay.Request{Node: 0, Stream: other},
		)
		f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return f, []Event{
			{AtMs: 120, Kind: EventViewChange, Node: 2, Gained: []stream.ID{other}, Lost: []stream.ID{sID}},
			{AtMs: 120, Kind: EventSubscribe, Node: 1, Gained: []stream.ID{other}},
			{AtMs: 480, Kind: EventUnsubscribe, Node: 0, Lost: []stream.ID{other}},
		}
	}
	f1, ev1 := build()
	r1, err := RunEvents(Config{Forest: f1, Profile: testProfile(), DurationMs: 900}, ev1)
	if err != nil {
		t.Fatal(err)
	}
	f2, ev2 := build()
	r2, err := RunEvents(Config{Forest: f2, Profile: testProfile(), DurationMs: 900}, ev2)
	if err != nil {
		t.Fatal(err)
	}
	// BatchApplyMs is wall clock — the one field documented outside the
	// determinism contract — so it is zeroed before the comparison.
	if r1.BatchApplyMs <= 0 || r2.BatchApplyMs <= 0 {
		t.Errorf("batch-apply phase not timed: %v, %v", r1.BatchApplyMs, r2.BatchApplyMs)
	}
	r1.BatchApplyMs, r2.BatchApplyMs = 0, 0
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("identical traces diverge:\n%+v\n%+v", r1, r2)
	}
	if err := VerifyEventLowerBound(Config{Forest: f1, Profile: testProfile(), DurationMs: 900}, r1); err != nil {
		t.Errorf("lower bound: %v", err)
	}
}

func TestRunEventsWithdrawnBeforeFirstFrameIsUndelivered(t *testing.T) {
	sID := stream.ID{Site: 0, Index: 0}
	p := starProblem(overlay.Request{Node: 1, Stream: sID})
	f, err := overlay.RJ{}.Construct(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 gains the stream at t=110 and withdraws at t=150 — before
	// the next frame (captured at 200) could reach it. The accepted gain
	// must settle as Undelivered on the subscribing event.
	events := []Event{
		{AtMs: 110, Kind: EventSubscribe, Node: 2, Gained: []stream.ID{sID}},
		{AtMs: 150, Kind: EventUnsubscribe, Node: 2, Lost: []stream.ID{sID}},
	}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 1000}, events)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Events[0]
	if sub.GainedAccepted != 1 || sub.DeliveredGained != 0 || sub.Undelivered != 1 {
		t.Errorf("subscribe outcome %+v, want accepted=1 undelivered=1", sub)
	}
	if res.UndeliveredGained != 1 || res.DeliveredGained != 0 {
		t.Errorf("aggregate delivered=%d undelivered=%d, want 0/1", res.DeliveredGained, res.UndeliveredGained)
	}
}

func TestRunEventsResubscribeStartsFreshDedupEpoch(t *testing.T) {
	// Source 0 serves node 1 directly (5ms) and relay 2 over a slow edge
	// (60ms). Node 1 unsubscribes at t=110 and re-subscribes at t=150,
	// attaching under the relay (higher RFC). Frame seq 1 (captured at
	// 100) was already delivered to node 1 at t=105 in its first
	// membership; the relay receives it at 160 and forwards it, arriving
	// at t=165 — a legitimate re-delivery to the new membership that the
	// dedup must NOT suppress. Disruption is therefore 15ms, not the
	// 115ms a stale-epoch suppression would report.
	sID := stream.ID{Site: 0, Index: 0}
	cost := [][]float64{{0, 5, 60}, {5, 0, 5}, {60, 5, 0}}
	p := &overlay.Problem{
		// Out[1] = 0 keeps node 1 from relaying, forcing the initial
		// star 0→1, 0→2 rather than a chain through node 1.
		In: []int{5, 5, 5}, Out: []int{2, 0, 5},
		Cost: cost, Bcost: 100,
		Requests: []overlay.Request{{Node: 1, Stream: sID}, {Node: 2, Stream: sID}},
	}
	f, err := overlay.NewForest(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Requests {
		if res := f.Join(r); res != overlay.Joined {
			t.Fatalf("join %v: %v", r, res)
		}
	}
	events := []Event{
		{AtMs: 110, Kind: EventUnsubscribe, Node: 1, Lost: []stream.ID{sID}},
		{AtMs: 150, Kind: EventSubscribe, Node: 1, Gained: []stream.ID{sID}},
	}
	res, err := RunEvents(Config{Forest: f, Profile: testProfile(), DurationMs: 400}, events)
	if err != nil {
		t.Fatal(err)
	}
	if parent, _ := f.Tree(sID).Parent(1); parent != 2 {
		t.Fatalf("node 1 re-attached under %d, want relay 2", parent)
	}
	resub := res.Events[1]
	if resub.GainedAccepted != 1 || resub.DeliveredGained != 1 {
		t.Fatalf("resubscribe outcome %+v, want 1 delivered", resub)
	}
	if math.Abs(resub.MeanDisruptionMs-15) > 1e-9 {
		t.Errorf("disruption %.2f, want 15 (seq 1 re-delivered at t=165)", resub.MeanDisruptionMs)
	}
	// Node 1's cumulative count: seq 0,1 in the first epoch (t=5, 105)
	// plus seq 1,2,3 via the relay in the second (t=165, 265, 365).
	for _, st := range res.PerSubscription {
		if st.Node == 1 && st.Frames != 5 {
			t.Errorf("node 1 frames = %d, want 5 (seq 1 counted in both epochs)", st.Frames)
		}
	}
}
