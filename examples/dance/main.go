// Dance: a TEEVE-style collaborative-dance session (the application that
// motivated the paper) running on the real data plane. Three sites —
// think Urbana, Berkeley and a remote audience — exchange live synthetic
// 3D streams over an in-process virtual network whose links carry the
// sites' one-way WAN latencies, using the overlay forest dictated by the
// membership server. The reported latencies therefore reflect the cost
// matrix the overlay was built against.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

func main() {
	// One-way latencies (ms) approximating Urbana / Berkeley / New York.
	cost := [][]float64{
		{0, 28, 12},
		{28, 0, 35},
		{12, 35, 0},
	}
	// The WAN between the sites: every site-to-site link carries its
	// cost-matrix latency.
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{
		Links: transport.TenantSiteLinks([][][]float64{cost}),
	})
	// Each dancer site runs 4 cameras; every site wants the two front
	// cameras of both other sites (the dancers' faces).
	subs := [][]stream.ID{
		{{Site: 1, Index: 0}, {Site: 1, Index: 1}, {Site: 2, Index: 0}},
		{{Site: 0, Index: 0}, {Site: 0, Index: 1}, {Site: 2, Index: 0}},
		{{Site: 0, Index: 0}, {Site: 1, Index: 0}},
	}

	srv, err := membership.New(membership.Config{
		N: 3, Cost: cost, Bcost: 120, Algorithm: overlay.CORJ{}, Seed: 9,
		Network: fabric.Host(transport.ServerHost),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := srv.Serve(ctx); err != nil {
			log.Fatal(err)
		}
	}()

	profile := stream.Profile{Width: 320, Height: 240, FPS: 15, CompressionRatio: 26}
	nodes := make([]*rp.Node, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		node, err := rp.New(rp.Config{
			Site: i, Membership: srv.Addr(),
			In: 20, Out: 20,
			Cameras: 4, Profile: profile, Seed: int64(i),
			Subscriptions: subs[i],
			Network:       fabric.Host(transport.SiteHost(i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Start(ctx); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	fmt.Println("overlay forest dictated by the membership server:")
	for _, t := range srv.Forest().Trees() {
		fmt.Printf("  %-6s:", t.Stream)
		for _, e := range t.Edges() {
			fmt.Printf(" %d->%d", e[0], e[1])
		}
		fmt.Println()
	}

	// Dance for two seconds of session time at 15 fps.
	const ticks = 30
	interval := time.Duration(profile.FrameIntervalMs() * float64(time.Millisecond))
	fmt.Printf("\nstreaming %d frames per camera at %d fps...\n", ticks, profile.FPS)
	for k := 0; k < ticks; k++ {
		for _, n := range nodes {
			if err := n.PublishTick(); err != nil {
				log.Fatal(err)
			}
		}
		time.Sleep(interval)
	}
	time.Sleep(200 * time.Millisecond) // drain in-flight frames

	fmt.Println("\nper-site delivery report:")
	for i, n := range nodes {
		stats := n.Stats()
		ids := make([]stream.ID, 0, len(stats))
		for id := range stats {
			ids = append(ids, id)
		}
		stream.SortIDs(ids)
		fmt.Printf("  site %d:\n", i)
		for _, id := range ids {
			st := stats[id]
			fmt.Printf("    %-6s %2d frames, mean latency %5.1f ms\n", id, st.Frames, st.MeanLatMs)
		}
	}
}
