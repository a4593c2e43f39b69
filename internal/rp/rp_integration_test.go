package rp

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// testProfile keeps frames small so the test moves thousands of frames
// cheaply.
func testProfile() stream.Profile {
	return stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}
}

// pollUntil re-checks cond every few milliseconds until it holds or the
// bound passes — the bounded replacement for fixed drain sleeps: the
// test proceeds the moment the condition is met, and fails only if it
// genuinely never holds within the bound.
func pollUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// tcpFabric is loopback TCP: frames see the real network's latency only.
var tcpFabric = transport.TCPFabric{DialTimeout: transport.DefaultDialTimeout}

// wanFabric is a virtual fabric whose site-to-site links carry cost as
// their one-way latency — the paper's WAN between the sites.
func wanFabric(cost [][]float64) *transport.VirtualNetwork {
	return transport.NewVirtualNetwork(transport.VirtualConfig{
		Links: transport.TenantSiteLinks([][][]float64{cost}),
	})
}

// startSession boots a membership server and N RPs on fab and waits
// until every RP has its routing table.
func startSession(t *testing.T, fab transport.Fabric, cost [][]float64, bcost float64, subs [][]stream.ID, cameras int) (*membership.Server, []*Node, context.CancelFunc) {
	t.Helper()
	return startSessionWith(t,
		membership.Config{
			N: len(cost), Cost: cost, Bcost: bcost, Algorithm: overlay.RJ{}, Seed: 7,
			Network: fab.Host(transport.ServerHost),
		},
		func(i int, membershipAddr string) Config {
			return Config{
				Site: i, Membership: membershipAddr,
				In: 50, Out: 50,
				Cameras: cameras, Profile: testProfile(), Seed: int64(100 + i),
				Subscriptions: subs[i],
				Network:       fab.Host(transport.SiteHost(i)),
			}
		})
}

// startSessionWith is startSession with the membership and node
// configurations left to the caller (fabric, capacities, buffers).
func startSessionWith(t *testing.T, mcfg membership.Config, nodeCfg func(site int, membershipAddr string) Config) (*membership.Server, []*Node, context.CancelFunc) {
	t.Helper()
	srv, err := membership.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ctx) }()

	nodes := make([]*Node, mcfg.N)
	var wg sync.WaitGroup
	errs := make(chan error, mcfg.N)
	for i := range nodes {
		node, err := New(nodeCfg(i, srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Start(ctx); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("membership: %v", err)
	}
	cleanup := func() {
		cancel()
		for _, node := range nodes {
			node.Close()
		}
	}
	return srv, nodes, cleanup
}

// TestThreeSiteSessionDeliversSubscribedStreams runs one session per
// fabric. WAN latency is the fabric's alone: on the virtual fabric every
// stream takes at least its link's modelled delay, and on loopback TCP,
// where the RPs add none, every stream arrives faster than the cost the
// overlay was built against.
func TestThreeSiteSessionDeliversSubscribedStreams(t *testing.T) {
	cost := [][]float64{
		{0, 10, 20},
		{10, 0, 15},
		{20, 15, 0},
	}
	for _, tc := range []struct {
		name    string
		fab     transport.Fabric
		modeled bool // the fabric applies cost as link latency
	}{
		{"virtual", wanFabric(cost), true},
		{"tcp", tcpFabric, false},
	} {
		t.Run(tc.name, func(t *testing.T) { testThreeSiteSession(t, tc.fab, cost, tc.modeled) })
	}
}

func testThreeSiteSession(t *testing.T, fab transport.Fabric, cost [][]float64, modeled bool) {
	subs := [][]stream.ID{
		{{Site: 1, Index: 0}, {Site: 2, Index: 1}},
		{{Site: 0, Index: 0}},
		{{Site: 0, Index: 0}, {Site: 1, Index: 1}},
	}
	srv, nodes, cleanup := startSession(t, fab, cost, 200, subs, 2)
	defer cleanup()

	f := srv.Forest()
	if f == nil {
		t.Fatal("no forest computed")
	}
	if got := len(f.Rejected()); got != 0 {
		t.Fatalf("overlay rejected %d requests with ample capacity", got)
	}

	const ticks = 10
	for k := 0; k < ticks; k++ {
		for _, node := range nodes {
			if err := node.PublishTick(); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Wait for in-flight frames (max link latency 20ms, possibly 2 hops)
	// to drain: every subscription must reach the half-delivery floor the
	// assertions below demand.
	pollUntil(t, 5*time.Second, "subscribed frames to drain", func() bool {
		for i, node := range nodes {
			stats := node.Stats()
			for _, want := range subs[i] {
				if stats[want].Frames < ticks/2 {
					return false
				}
			}
		}
		return true
	})

	for i, node := range nodes {
		stats := node.Stats()
		for _, want := range subs[i] {
			st, ok := stats[want]
			if !ok || st.Frames == 0 {
				t.Errorf("site %d never received subscribed stream %v", i, want)
				continue
			}
			if st.Frames < ticks/2 {
				t.Errorf("site %d received only %d/%d frames of %v", i, st.Frames, ticks, want)
			}
			// On the modelled WAN, latency must be at least the link's
			// one-way delay to the source; on TCP no node may hold a
			// frame for that delay. Either way it stays below the
			// latency bound plus slack.
			if modeled {
				if minDelay := cost[want.Site][i] * 0.5; st.MeanLatMs < minDelay {
					t.Errorf("site %d stream %v mean latency %.1fms below link latency %.1fms",
						i, want, st.MeanLatMs, minDelay)
				}
			} else if st.MeanLatMs >= cost[want.Site][i] {
				t.Errorf("site %d stream %v mean latency %.1fms on TCP: the modelled %.0fms was added",
					i, want, st.MeanLatMs, cost[want.Site][i])
			}
			if st.MeanLatMs > 200 {
				t.Errorf("site %d stream %v mean latency %.1fms exceeds bound", i, want, st.MeanLatMs)
			}
		}
		// No unsubscribed stream may be delivered.
		wantSet := map[stream.ID]bool{}
		for _, id := range subs[i] {
			wantSet[id] = true
		}
		for id, st := range stats {
			if !wantSet[id] && st.Frames > 0 {
				t.Errorf("site %d received unsubscribed stream %v", i, id)
			}
		}
	}
}

func TestRelayedDeliveryThroughIntermediateRP(t *testing.T) {
	// Site 0 has Out=1 and two subscribers to its stream: the overlay
	// must chain 0 -> x -> y; the far subscriber still receives frames,
	// with latency reflecting both hops.
	cost := [][]float64{
		{0, 10, 10},
		{10, 0, 10},
		{10, 10, 0},
	}
	subs := [][]stream.ID{
		nil,
		{{Site: 0, Index: 0}},
		{{Site: 0, Index: 0}},
	}
	n := 3
	fab := wanFabric(cost)
	srv, err := membership.New(membership.Config{
		N: n, Cost: cost, Bcost: 100, Algorithm: overlay.RJ{}, Seed: 3,
		Network: fab.Host(transport.ServerHost),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ctx) }()

	outs := []int{1, 50, 50} // source constrained to a single out slot
	nodes := make([]*Node, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node, err := New(Config{
			Site: i, Membership: srv.Addr(),
			In: 50, Out: outs[i],
			Cameras: 1, Profile: testProfile(), Seed: int64(i),
			Subscriptions: subs[i],
			Network:       fab.Host(transport.SiteHost(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Start(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("membership: %v", err)
	}
	defer func() {
		cancel()
		for _, node := range nodes {
			node.Close()
		}
	}()

	f := srv.Forest()
	if len(f.Rejected()) != 0 {
		t.Fatalf("rejections: %v", f.Rejected())
	}
	tr := f.Tree(stream.ID{Site: 0, Index: 0})
	if tr == nil || f.OutDegree(0) != 1 {
		t.Fatalf("expected relayed tree with source out-degree 1, got dout=%d", f.OutDegree(0))
	}

	const relayTicks = 8
	for k := 0; k < relayTicks; k++ {
		if err := nodes[0].PublishTick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Identify the relay (source's single child) and the far node, then
	// wait until every published frame has crossed both hops — the mean
	// latencies compared below need the full set.
	relay := tr.Children(0)[0]
	far := 3 - relay
	id := stream.ID{Site: 0, Index: 0}
	pollUntil(t, 5*time.Second, "relayed frames to drain", func() bool {
		return nodes[relay].Stats()[id].Frames >= relayTicks &&
			nodes[far].Stats()[id].Frames >= relayTicks
	}) // the other subscriber of {1,2}
	relayStats := nodes[relay].Stats()[stream.ID{Site: 0, Index: 0}]
	farStats := nodes[far].Stats()[stream.ID{Site: 0, Index: 0}]
	if relayStats.Frames == 0 || farStats.Frames == 0 {
		t.Fatalf("relay got %d frames, far got %d", relayStats.Frames, farStats.Frames)
	}
	// The far node's frames crossed two modelled 10ms links.
	if farStats.MeanLatMs < relayStats.MeanLatMs {
		t.Errorf("two-hop latency %.1fms not above one-hop %.1fms", farStats.MeanLatMs, relayStats.MeanLatMs)
	}
	if farStats.MeanLatMs < 15 {
		t.Errorf("two-hop latency %.1fms below expected ~20ms", farStats.MeanLatMs)
	}
}

func TestRejectedSubscriptionNotDelivered(t *testing.T) {
	// Source site 0 has Out=0: its stream cannot be disseminated; the
	// membership server reports the rejection and no frames flow.
	cost := [][]float64{{0, 10}, {10, 0}}
	subs := [][]stream.ID{nil, {{Site: 0, Index: 0}}}
	n := 2
	srv, err := membership.New(membership.Config{N: n, Cost: cost, Bcost: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Serve(ctx) }()

	outs := []int{0, 10}
	nodes := make([]*Node, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node, err := New(Config{
			Site: i, Membership: srv.Addr(), In: 10, Out: outs[i],
			Cameras: 1, Profile: testProfile(), Seed: int64(i), Subscriptions: subs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Start(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		cancel()
		for _, node := range nodes {
			node.Close()
		}
	}()

	routes := nodes[1].Routes()
	if routes == nil {
		t.Fatal("no routes installed")
	}
	if len(routes.Rejected) != 1 || routes.Rejected[0] != (stream.ID{Site: 0, Index: 0}) {
		t.Fatalf("rejected = %v, want the one subscription", routes.Rejected)
	}
	for k := 0; k < 5; k++ {
		if err := nodes[0].PublishTick(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	if st := nodes[1].Stats()[stream.ID{Site: 0, Index: 0}]; st.Frames != 0 {
		t.Errorf("rejected stream delivered %d frames", st.Frames)
	}
}

// TestMidSessionReroute swaps a subscriber's parent mid-stream: with the
// source constrained to one out slot the overlay chains 0 -> relay ->
// far; the relay then unsubscribes over the wire, the membership server
// re-attaches far directly under the source, and frames keep flowing.
// far must see every frame at most once across the swap, and a stream
// gained afterwards must report a finite disruption latency.
func TestMidSessionReroute(t *testing.T) {
	cost := [][]float64{
		{0, 10, 10},
		{10, 0, 10},
		{10, 10, 0},
	}
	s00 := stream.ID{Site: 0, Index: 0}
	subs := [][]stream.ID{nil, {s00}, {s00}}
	n := 3
	srv, err := membership.New(membership.Config{
		N: n, Cost: cost, Bcost: 100, Algorithm: overlay.RJ{}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ctx) }()

	outs := []int{1, 50, 50} // source constrained: forces the relay chain
	nodes := make([]*Node, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node, err := New(Config{
			Site: i, Membership: srv.Addr(),
			In: 50, Out: outs[i],
			Cameras: 2, Profile: testProfile(), Seed: int64(i),
			Subscriptions:  subs[i],
			DeliveryBuffer: 8192,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Start(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("membership: %v", err)
	}
	defer func() {
		cancel()
		for _, node := range nodes {
			node.Close()
		}
	}()

	tr := srv.Forest().Tree(s00)
	relay := tr.Children(0)[0]
	far := 3 - relay

	// Publish continuously from the source while the control plane works.
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stopPub:
				return
			default:
				if err := nodes[0].PublishTick(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	defer func() {
		select {
		case <-stopPub:
		default:
			close(stopPub)
		}
		pubWG.Wait()
	}()

	waitFor := func(what string, cond func() bool) {
		pollUntil(t, 5*time.Second, what, cond)
	}
	waitFor("frames at far before the swap", func() bool {
		return nodes[far].Stats()[s00].Frames > 3
	})

	// The relay withdraws its subscription mid-session: far is orphaned
	// and must be re-attached directly under the source.
	res, err := nodes[relay].Resubscribe(ctx, nil, []stream.ID{s00})
	if err != nil {
		t.Fatalf("relay resubscribe: %v", err)
	}
	if res.Epoch < 2 {
		t.Errorf("resubscribe epoch = %d, want >= 2", res.Epoch)
	}
	tr2 := srv.Forest().Tree(s00)
	if tr2.Contains(relay) {
		t.Error("relay still in the tree after unsubscribe")
	}
	if parent, _ := tr2.Parent(far); parent != 0 {
		t.Errorf("far's parent after swap = %d, want the source", parent)
	}

	// Frames keep flowing to far across the swap.
	seqAtSwap := nodes[far].Stats()[s00].MaxSeq
	waitFor("frames at far after the swap", func() bool {
		return nodes[far].Stats()[s00].MaxSeq > seqAtSwap+3
	})

	// far gains a stream of the relay's site mid-session (the source's
	// single out slot is spoken for); its first frame after the change
	// must be recorded as a finite disruption. The relay's site must now
	// publish too, so the gained stream has frames on the wire.
	gained := stream.ID{Site: relay, Index: 0}
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stopPub:
				return
			default:
				if err := nodes[relay].PublishTick(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	res2, err := nodes[far].Resubscribe(ctx, []stream.ID{gained}, nil)
	if err != nil {
		t.Fatalf("far resubscribe: %v", err)
	}
	if len(res2.Accepted) != 1 || res2.Accepted[0] != gained {
		t.Fatalf("gained stream not accepted: %+v", res2)
	}
	waitFor("disruption record for the gained stream", func() bool {
		return len(nodes[far].Disruptions()) > 0
	})
	d := nodes[far].Disruptions()[0]
	if d.Stream != gained || d.Epoch != res2.Epoch {
		t.Errorf("disruption = %+v, want stream %v at epoch %d", d, gained, res2.Epoch)
	}
	if d.LatencyMs <= 0 || d.LatencyMs > 5000 {
		t.Errorf("disruption latency %.1fms not finite/plausible", d.LatencyMs)
	}

	close(stopPub)
	pubWG.Wait()
	time.Sleep(200 * time.Millisecond) // drain in-flight frames

	for i, node := range nodes {
		if got := staleUpdates(node); got != 0 {
			t.Errorf("site %d dropped %d updates as stale on a healthy session", i, got)
		}
	}

	// No frame was delivered twice at far, swap included.
	seen := make(map[stream.ID]map[uint64]bool)
	for {
		select {
		case del := <-nodes[far].Deliveries():
			m := seen[del.Frame.Stream]
			if m == nil {
				m = make(map[uint64]bool)
				seen[del.Frame.Stream] = m
			}
			if m[del.Frame.Seq] {
				t.Fatalf("frame %v seq %d delivered twice", del.Frame.Stream, del.Frame.Seq)
			}
			m[del.Frame.Seq] = true
		default:
			if len(seen[s00]) == 0 {
				t.Error("no deliveries drained at far")
			}
			return
		}
	}
}

// TestDeliveryQueueOverflowCountsDrops overflows the local display queue
// and checks that the consolidated receive path counts every frame
// exactly once: Frames counts the ones handed to the queue, Dropped the
// ones the full queue refused, and the drained deliveries are Frames.
func TestDeliveryQueueOverflowCountsDrops(t *testing.T) {
	node, err := New(Config{Site: 1, Cameras: 1, Profile: testProfile(), DeliveryBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := stream.ID{Site: 0, Index: 0}
	node.installShardRoutes([]*transport.Routes{{Site: 1, Epoch: 1, Accepted: []stream.ID{src}}})
	tbl := node.table()
	const total = 10
	for i := 0; i < total; i++ {
		node.receive(&stream.Frame{
			Stream: src, Seq: uint64(i), CaptureMs: time.Now().UnixMilli(), Payload: []byte{1},
		}, nil, tbl) // nothing forwards the stream, so no message bytes are needed
	}
	st := node.Stats()[src]
	if st.Frames != 4 {
		t.Errorf("Frames = %d, want the buffer size 4", st.Frames)
	}
	if st.Dropped != total-4 {
		t.Errorf("Dropped = %d, want %d", st.Dropped, total-4)
	}
	delivered := 0
	for {
		select {
		case <-node.Deliveries():
			delivered++
			continue
		default:
		}
		break
	}
	if delivered != 4 {
		t.Errorf("delivered = %d, want the buffer size 4", delivered)
	}
	if st.Frames != delivered || st.Frames+st.Dropped != total {
		t.Errorf("Frames = %d, Frames+Dropped = %d; want %d delivered of %d", st.Frames, st.Frames+st.Dropped, delivered, total)
	}
}

// TestStaleRoutesUpdateDropped checks the epoch gate: a delta whose
// epoch is not newer than the running table must be dropped (counted),
// never applied, so reordered or replayed updates cannot roll the
// routing table back.
func TestStaleRoutesUpdateDropped(t *testing.T) {
	node, err := New(Config{Site: 1, Cameras: 1, Profile: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	src := stream.ID{Site: 0, Index: 0}
	node.installShardRoutes([]*transport.Routes{{Site: 1, Epoch: 2}})
	node.applyUpdate(&transport.RoutesUpdate{Site: 1, Epoch: 2, AddAccepted: []stream.ID{src}})
	if got := staleUpdates(node); got != 1 {
		t.Errorf("stale updates = %d, want 1", got)
	}
	if node.Epoch() != 2 || node.table().streams[src].accepted {
		t.Errorf("stale update applied: epoch %d, streams %v", node.Epoch(), node.table().streams)
	}
	node.applyUpdate(&transport.RoutesUpdate{Site: 1, Epoch: 3, AddAccepted: []stream.ID{src}})
	if node.Epoch() != 3 || !node.table().streams[src].accepted {
		t.Errorf("newer update not applied: epoch %d", node.Epoch())
	}
}

// TestSeveredPeerLinkSurfacesError cuts the receiving RP out from under
// an active link and checks the writer reports the failure instead of
// swallowing it.
func TestSeveredPeerLinkSurfacesError(t *testing.T) {
	cost := [][]float64{{0, 5}, {5, 0}}
	subs := [][]stream.ID{nil, {{Site: 0, Index: 0}}}
	_, nodes, cleanup := startSession(t, tcpFabric, cost, 100, subs, 1)
	defer cleanup()

	// Prime the link — wait for a frame to actually cross it — then
	// sever the subscriber.
	if err := nodes[0].PublishTick(); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "priming frame at the subscriber", func() bool {
		return nodes[1].Stats()[stream.ID{Site: 0, Index: 0}].Frames > 0
	})
	nodes[1].Close()

	// The writer rides the shared retry layer before giving the peer up
	// (2.575s ± 20% of capped exponential backoff), so the surfacing deadline
	// must sit well past retry exhaustion.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Err() == nil && time.Now().Before(deadline) {
		if err := nodes[0].PublishTick(); err != nil {
			break // dispatch errors are also acceptable surfacing
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nodes[0].Err() == nil {
		t.Fatal("severed peer link never surfaced through Err")
	}
	if err := nodes[0].Close(); err == nil {
		t.Error("Close returned nil despite a failed link")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{Cameras: 0, Profile: testProfile()}); err == nil {
		t.Error("zero cameras accepted")
	}
	if _, err := New(Config{Cameras: 1}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestPublishBeforeRoutesFails(t *testing.T) {
	node, err := New(Config{Cameras: 1, Profile: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.PublishTick(); err == nil {
		t.Error("publish before Start accepted")
	}
}
