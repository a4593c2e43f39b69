package main

// relay.go is the data-plane workload pair: one publisher site, twelve
// subscribers, a two-level relay tree on a perfect in-memory fabric, driven
// in a closed loop with a bounded tick window. relay_large and relay_small
// differ only in the frame size, so the same layers are loaded by bytes in
// one and by messages in the other.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

const (
	relaySites   = 13 // site 0 publishes, sites 1..12 subscribe
	relayCameras = 4
	relayWindow  = 32 // ticks the publisher may run ahead of the slowest subscriber
	relayIn      = 4
	relayOut     = 12 // fan-out 3 per stream, hence two relay levels
	// relayBcost bounds a path at two of the uniform 1 ms overlay edges.
	relayBcost = 2.5
	// relayForestSeed fixes the random-join order, so the forest — which
	// sets the work per tick — has one shape for every input seed; the
	// seed varies the frame payloads and the fabric's draws.
	relayForestSeed = 1
)

// smallProfile is the 1.5 KB frame the live clusters default to.
func smallProfile() stream.Profile {
	return stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}
}

func runRelayLarge(ctx context.Context, cfg runCfg) (*work, error) {
	return runRelay(ctx, cfg, stream.DefaultProfile(), "large", 400, 8000, 1000)
}

func runRelaySmall(ctx context.Context, cfg runCfg) (*work, error) {
	return runRelay(ctx, cfg, smallProfile(), "small", 4000, 100000, 2000)
}

// relayCluster is a booted membership server plus its RP nodes.
type relayCluster struct {
	srv    *membership.Server
	nodes  []*rp.Node
	cancel context.CancelFunc
}

func (c *relayCluster) close() {
	c.cancel()
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	c.srv.Wait()
}

// bootRelay starts the 13-site cluster: uniform 1 ms overlay costs (the
// fabric itself is perfect, the costs only shape the tree), every
// subscriber asking for all four of site 0's cameras.
func bootRelay(ctx context.Context, seed int64, prof stream.Profile) (*relayCluster, error) {
	cost := make([][]float64, relaySites)
	for i := range cost {
		cost[i] = make([]float64, relaySites)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 1
			}
		}
	}
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{Seed: seed})
	srv, err := membership.New(membership.Config{
		N: relaySites, Cost: cost, Bcost: relayBcost, Algorithm: overlay.RJ{}, Seed: relayForestSeed,
		Network: fabric.Host(transport.ShardServerHost(0)),
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &relayCluster{srv: srv, nodes: make([]*rp.Node, relaySites), cancel: cancel}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	var subs []stream.ID
	for q := 0; q < relayCameras; q++ {
		subs = append(subs, stream.ID{Site: 0, Index: q})
	}
	started := make(chan error, relaySites)
	for i := range c.nodes {
		nc := rp.Config{
			Site: i, Membership: srv.Addr(), In: relayIn, Out: relayOut,
			Cameras: relayCameras, Profile: prof, Seed: seed*1000 + int64(i),
			Network: fabric.Host(transport.SiteHost(i)),
		}
		if i > 0 {
			nc.Subscriptions = subs
		}
		node, err := rp.New(nc)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes[i] = node
		go func() { started <- node.Start(ctx) }()
	}
	var first error
	for range c.nodes {
		if err := <-started; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	if first == nil {
		first = <-served
	}
	if first != nil {
		c.close()
		return nil, fmt.Errorf("relay boot: %w", first)
	}
	return c, nil
}

// forestShape returns the deepest hop count and the number of distinct
// non-source sites that forward at least one stream.
func forestShape(f *overlay.Forest) (depth, relays int) {
	relaying := make(map[int]bool)
	f.ForEachTree(func(t *overlay.Tree) {
		t.ForEachNode(func(node int) {
			hops := 0
			for at := node; ; hops++ {
				p, ok := t.Parent(at)
				if !ok || p < 0 {
					break
				}
				at = p
			}
			depth = max(depth, hops)
			if node != t.Source && !t.IsLeaf(node) {
				relaying[node] = true
			}
		})
	})
	return depth, len(relaying)
}

// windowGate is the closed loop's accounting: how many ticks every
// subscriber has fully received, and whether the publisher may emit the
// next one.
type windowGate struct {
	window   int
	done     atomic.Int64 // ticks complete at the slowest subscriber
	maxAhead int64        // most ticks ever in flight; publisher-owned
	wake     chan struct{}
}

func newWindowGate(window int) *windowGate {
	return &windowGate{window: window, wake: make(chan struct{}, 1)}
}

// admit blocks until publishing tick t keeps at most window ticks in
// flight, and records the high-water mark.
func (g *windowGate) admit(ctx context.Context, t int64) error {
	for t-g.done.Load() >= int64(g.window) {
		select {
		case <-g.wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	g.maxAhead = max(g.maxAhead, t+1-g.done.Load())
	return nil
}

// advance publishes the slowest subscriber's progress and wakes a blocked
// publisher.
func (g *windowGate) advance(done int64) {
	g.done.Store(done)
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// relayLoop drives ticks through a booted cluster and checks every
// delivery. next[s][q] is the sequence number subscriber s must see next
// on camera q; frames arrive in order or the run is wrong.
type relayLoop struct {
	pub   *rp.Node
	feeds []<-chan rp.Delivery
	next  [][]uint64

	delivered int64
	outOfSeq  int64
	misrouted int64
}

func newRelayLoop(c *relayCluster) *relayLoop {
	l := &relayLoop{pub: c.nodes[0]}
	for _, n := range c.nodes[1:] {
		l.feeds = append(l.feeds, n.Deliveries())
		l.next = append(l.next, make([]uint64, relayCameras))
	}
	return l
}

func (l *relayLoop) account(s int, d rp.Delivery) {
	id := d.Frame.Stream
	if id.Site != 0 || id.Index < 0 || id.Index >= relayCameras {
		l.misrouted++
		return
	}
	if d.Frame.Seq != l.next[s][id.Index] {
		l.outOfSeq++
	}
	l.next[s][id.Index] = d.Frame.Seq + 1
	l.delivered++
}

// slowest returns the least-advanced (subscriber, tick) pair.
func (l *relayLoop) slowest() (sub int, tick int64) {
	tick = int64(l.next[0][0])
	for s := range l.next {
		for _, n := range l.next[s] {
			if int64(n) < tick {
				sub, tick = s, int64(n)
			}
		}
	}
	return sub, tick
}

// tickTimes is what one run of ticks measured: per tick, how long
// PublishTick took and how long until the last of its deliveries.
type tickTimes struct {
	publishUs []float64
	fanoutMs  []float64
	maxAhead  int64
}

// run publishes n ticks under the window and returns once every
// subscriber holds all of them. One goroutine publishes (the caller), one
// drains the twelve delivery feeds.
func (l *relayLoop) run(ctx context.Context, n, window int, tr *tracer, parent int32) (tickTimes, error) {
	_, base := l.slowest()
	gate := newWindowGate(window)
	gate.done.Store(base)
	pubAt := make([]time.Time, n)
	out := tickTimes{publishUs: make([]float64, n), fanoutMs: make([]float64, n)}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		done := base
		for done < base+int64(n) {
			got := false
			for s, ch := range l.feeds {
				for more := true; more; {
					select {
					case d := <-ch:
						l.account(s, d)
						got = true
					default:
						more = false
					}
				}
			}
			slow, tick := l.slowest()
			if tick > done {
				now := time.Now()
				for k := done; k < tick; k++ {
					out.fanoutMs[k-base] = float64(now.Sub(pubAt[k-base])) / float64(time.Millisecond)
					tr.add(parent, "relay.tick_fanout", pubAt[k-base], now)
				}
				done = tick
				gate.advance(done)
			}
			if !got && done < base+int64(n) {
				// Nothing ready: park on the feed that gates the window.
				// The others hold at most window*cameras frames, well
				// inside their delivery buffers.
				select {
				case d := <-l.feeds[slow]:
					l.account(slow, d)
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	var err error
	for k := 0; k < n && err == nil; k++ {
		if err = gate.admit(ctx, base+int64(k)); err != nil {
			break
		}
		start := time.Now()
		pubAt[k] = start
		err = l.pub.PublishTick()
		end := time.Now()
		out.publishUs[k] = float64(end.Sub(start)) / float64(time.Microsecond)
		tr.add(parent, "rp.PublishTick", start, end)
	}
	if err != nil {
		cancel()
	}
	<-drained
	out.maxAhead = gate.maxAhead
	if err == nil {
		err = ctx.Err()
	}
	return out, err
}

// runRelay is the workload body shared by both frame sizes.
func runRelay(ctx context.Context, cfg runCfg, prof stream.Profile, size string, warm, ticks, unloaded int) (*work, error) {
	warm, ticks = cfg.scaled(warm), cfg.scaled(ticks)
	setup := cfg.tr.begin(0, "setup")
	var c *relayCluster
	var err error
	cfg.tr.time(setup, "relay.boot", func() { c, err = bootRelay(ctx, cfg.seed, prof) })
	if err != nil {
		return nil, err
	}
	defer c.close()
	if n := c.srv.Forest().NumRejected(); n > 0 {
		return nil, fmt.Errorf("relay: overlay rejected %d of %d subscriptions", n, (relaySites-1)*relayCameras)
	}
	depth, relays := forestShape(c.srv.Forest())
	loop := newRelayLoop(c)
	warmSpan := cfg.tr.begin(setup, "relay.warmup")
	if _, err := loop.run(ctx, warm, relayWindow, nil, 0); err != nil {
		return nil, fmt.Errorf("relay warm-up: %w", err)
	}
	cfg.tr.finish(warmSpan)
	cfg.tr.finish(setup)

	watch := watchGoroutines(cfg.tr)
	window := cfg.tr.begin(0, "window")
	m := startMeter()
	times, err := loop.run(ctx, ticks, relayWindow, cfg.tr, window)
	use := m.stop()
	cfg.tr.finish(window)
	if err != nil {
		return nil, fmt.Errorf("relay measured ticks: %w", err)
	}

	subscribers := relaySites - 1
	perTick := int64(subscribers * relayCameras)
	expected := perTick * int64(warm+ticks)
	w := &work{
		ops: float64(perTick * int64(ticks)),
		lat: times.fanoutMs,
		use: use,
		digest: fmt.Sprintf("sites=%d cameras=%d frame=%dB in=%d out=%d window=%d warm=%d ticks=%d",
			relaySites, relayCameras, prof.FrameBytes(), relayIn, relayOut, relayWindow, warm, ticks),
		counts: map[string]int64{
			"deliveries_expected": expected,
			"rp.tree_depth":       int64(depth),
			"rp.relay_nodes":      int64(relays),
		},
	}
	var stale, dup, dropped int
	for _, n := range c.nodes {
		for _, st := range n.Stats() {
			stale += st.Stale
			dup += st.Duplicates
			dropped += st.Dropped
		}
		if err := n.Err(); err != nil {
			w.check("node_healthy", false, "site %d: %v", n.Site(), err)
		}
	}
	w.attempted = expected
	w.failed = max(0, expected-loop.delivered)
	w.check("every_frame_delivered_once", loop.delivered == expected, "delivered %d of %d", loop.delivered, expected)
	w.check("in_order", loop.outOfSeq == 0 && loop.misrouted == 0, "%d out of sequence, %d misrouted", loop.outOfSeq, loop.misrouted)
	w.check("no_stale_dup_drop", stale == 0 && dup == 0 && dropped == 0, "stale %d duplicates %d dropped %d", stale, dup, dropped)
	w.check("window_respected", times.maxAhead <= relayWindow, "%d ticks in flight, window %d", times.maxAhead, relayWindow)
	w.check("two_relay_levels", depth == 2, "tree depth %d", depth)

	if cfg.tr == nil {
		return w, nil
	}
	// Traced run: the per-layer ladder on the same inputs.
	w.layers = map[string]float64{
		"rp.publish_tick_us_p50": percentile(sortedCopy(times.publishUs), 50),
		"rp.publish_tick_us_p99": percentile(sortedCopy(times.publishUs), 99),
		"rp.tick_fanout_ms_p50":  percentile(sortedCopy(times.fanoutMs), 50),
		"rp.tree_depth":          float64(depth),
		"rp.relay_nodes":         float64(relays),
		"rp.stale":               float64(stale),
		"rp.duplicates":          float64(dup),
		"rp.dropped":             float64(dropped),
	}
	procLayers(w.layers, use, watch.stop())
	probes := cfg.tr.begin(0, "probes")
	defer cfg.tr.finish(probes)
	// Window 1: a tick's fan-out time is the path to the deepest
	// subscriber with nothing queued ahead of it.
	var idle tickTimes
	cfg.tr.time(probes, "relay.unloaded", func() { idle, err = loop.run(ctx, unloaded, 1, nil, 0) })
	if err != nil {
		return nil, fmt.Errorf("relay unloaded ticks: %w", err)
	}
	if depth == 0 {
		return nil, errors.New("relay: empty forest")
	}
	w.layers["rp.hop_unloaded_us_"+size] = percentile(sortedCopy(idle.fanoutMs), 50) * 1000 / float64(depth)
	pr := prober{tr: cfg.tr, parent: probes, layers: w.layers}
	pr.stream(prof, size, cfg.seed)
	pr.transportFrame(prof, size, cfg.seed)
	if err := pr.vpipe(ctx, prof, size, cfg.seed); err != nil {
		return nil, err
	}
	return w, nil
}
