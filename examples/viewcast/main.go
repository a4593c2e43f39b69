// Viewcast: demonstrates the FOV-based subscription framework (§3.2).
// A participant pans their display's viewpoint across the cyber-space;
// each new field of view is converted to its contributing streams, the
// subscription diff is reported, and the overlay forest is reconstructed —
// the ViewCast-over-publish-subscribe pipeline the paper positions itself
// under.
//
// The second half replays the same kind of view dynamics over the real
// networked plane with one session.RunCluster call: a membership server
// and per-site rendezvous points on loopback TCP, with a churn trace's
// resubscriptions applied mid-session over the wire and disruption
// latency measured from actual frame deliveries, side by side with the
// simulator's prediction.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"github.com/tele3d/tele3d/internal/fov"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

func main() {
	s, err := session.Build(session.Spec{
		N:               5,
		CamerasPerSite:  8,
		DisplaysPerSite: 1,
		Algorithm:       overlay.RJ{},
		Seed:            17,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("participant at site 0 pans a display across the room:")
	for step := 0; step <= 4; step++ {
		az := fov.TwoPi * float64(step) / 5
		f := fov.FOV{Observer: 0, Azimuth: az, Aperture: math.Pi, Budget: session.MaxRenderStreams}
		cons, err := s.Cyberspace.Contributing(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nstep %d: azimuth %.2f rad\n", step, az)
		fmt.Printf("  contributing streams (score):")
		for _, c := range cons {
			fmt.Printf(" %s(%.2f)", c.Stream, c.Score)
		}
		fmt.Println()

		gained, lost, err := s.Resubscribe(0, []fov.FOV{f}, overlay.RJ{}, int64(100+step))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  subscription diff: +%d -%d streams\n", len(gained), len(lost))
		fmt.Printf("  rebuilt forest: %d trees, rejection %.3f\n",
			len(s.Forest.Trees()), metrics.Rejection(s.Forest))
	}

	// Part two: the same view dynamics over the wire. A fresh cluster's
	// churn trace is applied mid-stream to live RPs on loopback TCP; the
	// membership server pushes routing deltas and each gained stream's
	// first delivered frame yields a measured disruption latency.
	fmt.Println("\nlive plane: replaying a churn trace over loopback TCP...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := session.RunCluster(ctx, session.ClusterConfig{
		Spec: session.ClusterSpec{Spec: session.Spec{
			N: 4, CamerasPerSite: 3, DisplaysPerSite: 1, Algorithm: overlay.RJ{}, Seed: 23,
		}},
		Fabric:     transport.TCPFabric{DialTimeout: transport.DefaultDialTimeout},
		DurationMs: 1500,
		Churn:      workload.ChurnProfile{RatePerSec: 6, ViewChangeMix: 0.8},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, e := range res.Live.Events {
		fmt.Printf("  event %d at %4.0fms: site %d gained %d streams, live disruption %.1fms (sim predicts %.1fms)\n",
			i, e.AtMs, e.Node, e.GainedAccepted, e.MeanDisruptionMs, res.Sim.Events[i].MeanDisruptionMs)
	}
	fmt.Printf("  mean disruption: live %.1fms vs sim %.1fms over %d delivered gains; %d frames delivered, final epoch %d\n",
		res.Live.MeanDisruptionMs, res.Sim.MeanDisruptionMs, res.Live.DeliveredGained, res.Live.TotalFrames, res.Live.FinalEpoch)
}
