// Command rpnode runs one rendezvous point: it registers with a
// membership server, publishes synthetic 3D camera streams, forwards
// according to the dictated overlay, and reports delivery statistics on
// exit.
//
// Example (after starting membershipd for 3 sites):
//
//	rpnode -site 0 -membership 127.0.0.1:7000 -cameras 4 -subscribe "1:0,1:1,2:0" -duration 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/stream"
)

func main() {
	var (
		site      = flag.Int("site", 0, "site index")
		member    = flag.String("membership", "127.0.0.1:7000", "membership server address")
		listen    = flag.String("listen", "127.0.0.1:0", "peer-facing listen address")
		cameras   = flag.Int("cameras", 4, "local camera count")
		in        = flag.Int("in", 20, "inbound capacity (streams)")
		out       = flag.Int("out", 20, "outbound capacity (streams)")
		subscribe = flag.String("subscribe", "", "subscriptions as site:index pairs, e.g. \"1:0,1:1,2:0\"")
		duration  = flag.Duration("duration", 5*time.Second, "how long to stream")
		width     = flag.Int("width", 320, "frame width")
		height    = flag.Int("height", 240, "frame height")
	)
	flag.Parse()

	subs, err := parseSubs(*subscribe)
	if err != nil {
		log.Fatal(err)
	}
	profile := stream.Profile{Width: *width, Height: *height, FPS: stream.RawFPS, CompressionRatio: 26}
	node, err := rp.New(rp.Config{
		Site: *site, ListenAddr: *listen, Membership: *member,
		In: *in, Out: *out,
		Cameras: *cameras, Profile: profile, Seed: int64(*site),
		Subscriptions: subs,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := node.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	fmt.Printf("rpnode: site %d up at %s, routes installed (%d accepted, %d rejected)\n",
		*site, node.Addr(), len(node.Routes().Accepted), len(node.Routes().Rejected))

	interval := time.Duration(profile.FrameIntervalMs() * float64(time.Millisecond))
	deadline := time.Now().Add(*duration)
	for time.Now().Before(deadline) {
		if err := node.PublishTick(); err != nil {
			log.Fatal(err)
		}
		time.Sleep(interval)
	}
	time.Sleep(250 * time.Millisecond)

	stats := node.Stats()
	ids := make([]stream.ID, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	stream.SortIDs(ids)
	fmt.Printf("rpnode: published %d frames\n", node.Published())
	for _, id := range ids {
		st := stats[id]
		fmt.Printf("  received %-6s: %4d frames, mean latency %6.1f ms\n", id, st.Frames, st.MeanLatMs)
	}
}

func parseSubs(s string) ([]stream.ID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []stream.ID
	for _, part := range strings.Split(s, ",") {
		bits := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("rpnode: bad subscription %q (want site:index)", part)
		}
		site, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("rpnode: bad site in %q: %w", part, err)
		}
		idx, err := strconv.Atoi(bits[1])
		if err != nil {
			return nil, fmt.Errorf("rpnode: bad index in %q: %w", part, err)
		}
		out = append(out, stream.ID{Site: site, Index: idx})
	}
	return out, nil
}
