// Command membershipd runs a standalone membership server for an N-site
// tele-immersive session. Site pairwise costs are derived from the
// built-in geographic backbone: the first N cities of the -cities list
// (comma separated) are used as site locations.
//
// Example:
//
//	membershipd -listen 127.0.0.1:7000 -cities "Chicago,Berkeley,New York"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"

	"github.com/tele3d/tele3d/internal/geo"
	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:7000", "address to listen on")
		cities = flag.String("cities", "Chicago,Berkeley,New York", "comma-separated site cities (from the built-in PoP map)")
		algo   = flag.String("algo", "RJ", "overlay algorithm: RJ, CO-RJ, LTF, STF, MCTF, AllToAll or gran-ltf:<g>")
		bmult  = flag.Float64("bmult", 3.0, "latency bound as a multiple of the median pairwise cost")
		seed   = flag.Int64("seed", 1, "construction seed")
		shards = flag.Int("shards", 1, "membership control-plane shard count")
		shard  = flag.Int("shard", 0, "this server's shard index in [0, shards)")
		flush  = flag.Float64("flush", 0, "delta batching interval in ms; 0 pushes per event")
	)
	flag.Parse()

	names := strings.Split(*cities, ",")
	n := len(names)
	if n < 2 {
		log.Fatal("membershipd: need at least 2 cities")
	}
	model := geo.DefaultLatencyModel()
	coords := make([]geo.Coordinate, n)
	for i, name := range names {
		c, ok := geo.CityByName(strings.TrimSpace(name))
		if !ok {
			log.Fatalf("membershipd: unknown city %q", name)
		}
		coords[i] = c.Coordinate
	}
	cost := make([][]float64, n)
	var costs []float64
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = model.Latency(coords[i], coords[j])
				costs = append(costs, cost[i][j])
			}
		}
	}
	sort.Float64s(costs)
	var median float64
	if len(costs) > 0 {
		median = costs[len(costs)/2]
	}

	alg, err := overlay.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := membership.New(membership.Config{
		N: n, Cost: cost, Bcost: median * *bmult, Algorithm: alg, Seed: *seed, ListenAddr: *listen,
		Shards: *shards, Shard: *shard, FlushIntervalMs: *flush,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("membershipd: listening on %s for %d sites (%s), algorithm %s, shard %d/%d\n",
		srv.Addr(), n, *cities, alg.Name(), *shard, *shards)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := srv.Serve(ctx); err != nil {
		log.Fatal(err)
	}
	f := srv.Forest()
	fmt.Printf("membershipd: forest constructed: %d trees, %d accepted, %d rejected\n",
		f.NumTrees(), f.NumAccepted(), f.NumRejected())

	// The session is live: keep applying mid-session resubscriptions and
	// pushing routing deltas until interrupted.
	fmt.Println("membershipd: serving resubscriptions (ctrl-c to stop)")
	<-ctx.Done()
	srv.Wait()
	fmt.Printf("membershipd: shut down at routing epoch %d\n", srv.Epoch())
}
