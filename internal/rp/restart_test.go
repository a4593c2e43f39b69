package rp

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// TestMembershipRestartInPlace restarts the membership server of a
// 3-site fleet of single-address RPs: the server is cancelled, and a new
// one listens at the same address. Every node must fail over to it once,
// resume above the old epoch, and keep resubscribing and delivering, on
// both fabrics.
func TestMembershipRestartInPlace(t *testing.T) {
	cost := [][]float64{
		{0, 10, 20},
		{10, 0, 15},
		{20, 15, 0},
	}
	for _, tc := range []struct {
		name string
		fab  transport.Fabric
	}{
		{"virtual", wanFabric(cost)},
		{"tcp", tcpFabric},
	} {
		t.Run(tc.name, func(t *testing.T) { testMembershipRestartInPlace(t, tc.fab, cost) })
	}
}

func testMembershipRestartInPlace(t *testing.T, fab transport.Fabric, cost [][]float64) {
	mcfg := membership.Config{
		N: len(cost), Cost: cost, Bcost: 200, Algorithm: overlay.RJ{}, Seed: 7,
		Network: fab.Host(transport.ServerHost),
	}
	subs := [][]stream.ID{
		{{Site: 1, Index: 0}},
		{{Site: 0, Index: 0}},
		{{Site: 0, Index: 0}, {Site: 1, Index: 0}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// serve runs a server under a context of its own, so cancelling it
	// crashes that server alone.
	serve := func(cfg membership.Config) (*membership.Server, context.CancelFunc, <-chan error) {
		srv, err := membership.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvCtx, srvCancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(srvCtx) }()
		t.Cleanup(func() {
			srvCancel()
			srv.Wait()
		})
		return srv, srvCancel, done
	}
	srv, crash, done := serve(mcfg)
	nodes := make([]*Node, len(cost))
	errs := make(chan error, len(nodes))
	for i := range nodes {
		node, err := New(Config{
			Site: i, Membership: srv.Addr(), In: 50, Out: 50,
			Cameras: 2, Profile: testProfile(), Seed: int64(100 + i),
			Subscriptions: subs[i],
			Network:       fab.Host(transport.SiteHost(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		defer node.Close()
		go func() { errs <- node.Start(ctx) }()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	before := make([]uint64, len(nodes))
	for i, node := range nodes {
		before[i] = node.Epoch()
	}

	crash()
	srv.Wait()
	mcfg.ListenAddr = srv.Addr()
	succ, _, done := serve(mcfg)
	if succ.Addr() != srv.Addr() {
		t.Fatalf("successor listens at %s, want the victim's %s", succ.Addr(), srv.Addr())
	}
	if err := <-done; err != nil {
		t.Fatalf("successor never assembled the fleet: %v", err)
	}

	for i, node := range nodes {
		pollUntil(t, 10*time.Second, "the failover to be recorded", func() bool { return len(node.Failovers()) > 0 })
		if f := node.Failovers(); len(f) != 1 || f[0].Shard != 0 {
			t.Errorf("site %d failovers %+v, want one shard-0 event", i, f)
		}
		if e := node.Epoch(); e <= before[i] {
			t.Errorf("site %d epoch %d after the restart, want above %d", i, e, before[i])
		}
		if err := node.Err(); err != nil {
			t.Errorf("site %d: %v", i, err)
		}
	}

	gain := stream.ID{Site: 1, Index: 1}
	res, err := nodes[2].Resubscribe(ctx, []stream.ID{gain}, nil)
	if err != nil {
		t.Fatalf("resubscribe after the restart: %v", err)
	}
	if !slices.Contains(res.Accepted, gain) {
		t.Fatalf("resubscribe %+v did not accept %v", res, gain)
	}
	pollUntil(t, 10*time.Second, "a frame of the gained stream", func() bool {
		for _, node := range nodes {
			if err := node.PublishTick(); err != nil {
				t.Fatal(err)
			}
		}
		return nodes[2].Stats()[gain].Frames > 0
	})
}
