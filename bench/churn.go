package main

// churn.go is the control-plane workload pair: a 1,000-site cluster that
// publishes no frames while a churn trace is replayed through
// rp.Node.Resubscribe as fast as acknowledgements return. churn_inline
// flushes per event from one caller; churn_burst batches on a 40 ms timer
// under bursts of concurrent callers. Same trace, same layers, two uses.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

const (
	churnSites      = 1000
	churnRatePerSec = 400
	churnViewMix    = 0.7
	burstMax        = 200 // events per burst, at most one per site
	burstFlushMs    = 40
	burstWarm       = 400
	burstEvents     = 16000
	inlineWarm      = 200
	inlineEvents    = 3000
)

func runChurnInline(ctx context.Context, cfg runCfg) (*work, error) {
	return runChurn(ctx, cfg, 0, inlineWarm, cfg.scaled(inlineEvents))
}

func runChurnBurst(ctx context.Context, cfg runCfg) (*work, error) {
	return runChurn(ctx, cfg, burstFlushMs, burstWarm, cfg.scaled(burstEvents))
}

// churnTraceMs is the nominal length of a trace that holds need events:
// a fifth longer than the rate implies, because slots that resolve to no
// subscription change are dropped.
func churnTraceMs(need int) float64 {
	return float64(need) / churnRatePerSec * 1.2 * 1000
}

// churnCluster is the booted 1,000-site control plane.
type churnCluster struct {
	srv    *membership.Server
	nodes  []*rp.Node
	cancel context.CancelFunc
}

func (c *churnCluster) close() {
	c.cancel()
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	c.srv.Wait()
}

// bootChurn starts one membership server and one RP per site of the
// session on a perfect virtual fabric and waits for every routing table.
func bootChurn(ctx context.Context, cfg runCfg, parent int32, s *session.Session, flushMs float64, layers map[string]float64) (*churnCluster, error) {
	n := s.Workload.N()
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{Seed: cfg.seed})
	bootStart := time.Now()
	srv, err := membership.New(membership.Config{
		N: n, Cost: s.Sites.Cost, Bcost: s.Problem.Bcost, Algorithm: overlay.RJ{}, Seed: cfg.seed,
		Network: fabric.Host(transport.ShardServerHost(0)), FlushIntervalMs: flushMs,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &churnCluster{srv: srv, nodes: make([]*rp.Node, n), cancel: cancel}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	// Start blocks until the whole session has assembled, so all N run
	// at once; they are parked on the handshake, not running.
	started := make(chan error, n)
	startMs := make([]float64, n)
	for i := range c.nodes {
		site := s.Workload.Sites[i]
		node, err := rp.New(rp.Config{
			Site: i, Membership: srv.Addr(), In: site.In, Out: site.Out,
			Cameras: site.NumStreams, Profile: smallProfile(), Seed: cfg.seed*1000 + int64(i),
			Subscriptions: s.Workload.Subs[i], DeliveryBuffer: 16,
			Network: fabric.Host(transport.SiteHost(i)),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes[i] = node
		go func() {
			t0 := time.Now()
			err := node.Start(ctx)
			t1 := time.Now()
			startMs[i] = float64(t1.Sub(t0)) / float64(time.Millisecond)
			cfg.tr.add(parent, "rp.Node.Start", t0, t1)
			started <- err
		}()
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
		return nil, fmt.Errorf("churn boot: %w", first)
	}
	cfg.tr.add(parent, "membership.boot", bootStart, time.Now())
	layers["membership.boot_s"] = time.Since(bootStart).Seconds()
	layers["membership.construct_ms"] = srv.PhaseStats().ConstructMs
	layers["rp.start_ms_p50"] = median(startMs)
	return c, nil
}

// packBursts cuts a trace into bursts of at most limit events with at
// most one event per site per burst. An event goes into the earliest
// burst that is after its site's previous event and still has room, so
// every site sees its own events in trace order.
func packBursts(events []sim.Event, limit int) [][]int {
	var bursts [][]int
	lastBurst := make(map[int]int) // site -> index of the burst holding its latest event
	firstOpen := 0                 // every burst before this one is full
	for i, e := range events {
		b := firstOpen
		if prev, ok := lastBurst[e.Node]; ok && prev+1 > b {
			b = prev + 1
		}
		for b < len(bursts) && len(bursts[b]) >= limit {
			b++
		}
		if b == len(bursts) {
			bursts = append(bursts, nil)
		}
		bursts[b] = append(bursts[b], i)
		lastBurst[e.Node] = b
		for firstOpen < len(bursts) && len(bursts[firstOpen]) >= limit {
			firstOpen++
		}
	}
	return bursts
}

// resubscriber replays trace events against the cluster and times each
// call from issue to applied acknowledgement.
type resubscriber struct {
	c      *churnCluster
	tr     *tracer
	mu     sync.Mutex
	latMs  []float64
	errs   int64
	sample error
}

// call issues one event's resubscribe and records its latency.
func (r *resubscriber) call(ctx context.Context, e sim.Event) (start, end time.Time) {
	start = time.Now()
	_, err := r.c.nodes[e.Node].Resubscribe(ctx, e.Gained, e.Lost)
	end = time.Now()
	r.mu.Lock()
	if err != nil {
		r.errs++
		r.sample = err
	} else {
		r.latMs = append(r.latMs, float64(end.Sub(start))/float64(time.Millisecond))
	}
	r.mu.Unlock()
	return start, end
}

// phaseChildren attributes the membership server's own accounting across
// a parent span to it as child spans, laid end to end from its start.
func phaseChildren(tr *tracer, parent int32, start time.Time, before, after membership.PhaseStats) {
	apply := time.Duration((after.BatchApplyMs - before.BatchApplyMs) * float64(time.Millisecond))
	rebuild := time.Duration((after.RouteRebuildMs - before.RouteRebuildMs) * float64(time.Millisecond))
	tr.child(parent, "membership.batch_apply", start, 0, apply)
	tr.child(parent, "membership.route_rebuild", start, apply, rebuild)
}

// inline replays events one at a time from the calling goroutine.
func (r *resubscriber) inline(ctx context.Context, parent int32, events []sim.Event) {
	for _, e := range events {
		if r.tr == nil {
			r.call(ctx, e)
			continue
		}
		before := r.c.srv.PhaseStats()
		start, end := r.call(ctx, e)
		id := r.tr.add(parent, "rp.Node.Resubscribe", start, end)
		phaseChildren(r.tr, id, start, before, r.c.srv.PhaseStats())
	}
}

// bursts issues each burst's calls concurrently — one goroutine per call,
// parked on its acknowledgement — and starts the next burst when the
// previous one is fully acknowledged.
func (r *resubscriber) bursts(ctx context.Context, parent int32, events []sim.Event, bursts [][]int) {
	for _, b := range bursts {
		before := r.c.srv.PhaseStats()
		start := time.Now()
		id := r.tr.begin(parent, "churn.burst")
		var wg sync.WaitGroup
		for _, idx := range b {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, e := r.call(ctx, events[idx])
				r.tr.add(id, "rp.Node.Resubscribe", s, e)
			}()
		}
		wg.Wait()
		r.tr.finish(id)
		if r.tr != nil {
			// The flush work overlaps the parked calls; it is attributed
			// to the burst, not to any one call.
			phaseChildren(r.tr, id, start, before, r.c.srv.PhaseStats())
		}
	}
}

// runChurn is the workload body shared by both flush modes.
func runChurn(ctx context.Context, cfg runCfg, flushMs float64, warm, measured int) (*work, error) {
	layers := make(map[string]float64)
	setup := cfg.tr.begin(0, "setup")
	var s *session.Session
	var err error
	d := cfg.tr.time(setup, "session.BuildCluster", func() {
		s, err = session.BuildCluster(session.ClusterSpec{Spec: session.Spec{
			N: churnSites, CamerasPerSite: 1, DisplaysPerSite: 1, Seed: cfg.seed,
		}})
	})
	if err != nil {
		return nil, err
	}
	layers["session.build_cluster_s"] = d.Seconds()

	var events []sim.Event
	d = cfg.tr.time(setup, "session.ChurnTrace", func() {
		events, err = s.ChurnTrace(workload.ChurnProfile{RatePerSec: churnRatePerSec, ViewChangeMix: churnViewMix},
			churnTraceMs(warm+measured), rand.New(rand.NewSource(cfg.seed)))
	})
	if err != nil {
		return nil, err
	}
	layers["session.churn_trace_s"] = d.Seconds()
	if len(events) < warm+measured {
		return nil, fmt.Errorf("churn trace has %d events, need %d", len(events), warm+measured)
	}
	traceLen := len(events)
	events = events[:warm+measured]

	c, err := bootChurn(ctx, cfg, setup, s, flushMs, layers)
	if err != nil {
		return nil, err
	}
	defer c.close()
	depth, relays := forestShape(c.srv.Forest())

	r := &resubscriber{c: c}
	var plan [][]int
	warmSpan := cfg.tr.begin(setup, "churn.warmup")
	if flushMs > 0 {
		r.bursts(ctx, 0, events[:warm], packBursts(events[:warm], burstMax))
		plan = packBursts(events[warm:], burstMax)
	} else {
		r.inline(ctx, 0, events[:warm])
	}
	cfg.tr.finish(warmSpan)
	cfg.tr.finish(setup)
	if r.errs > 0 {
		return nil, fmt.Errorf("churn warm-up: %d of %d calls failed: %w", r.errs, warm, r.sample)
	}
	r.latMs, r.tr = make([]float64, 0, measured), cfg.tr

	watch := watchGoroutines(cfg.tr)
	epoch0, applied0, phase0 := c.srv.Epoch(), c.srv.AppliedResubs(), c.srv.PhaseStats()
	window := cfg.tr.begin(0, "window")
	m := startMeter()
	if flushMs > 0 {
		r.bursts(ctx, window, events[warm:], plan)
	} else {
		r.inline(ctx, window, events[warm:])
	}
	use := m.stop()
	cfg.tr.finish(window)
	flushes := int64(c.srv.Epoch() - epoch0)
	applied := int64(c.srv.AppliedResubs() - applied0)
	phase1 := c.srv.PhaseStats()

	w := &work{
		ops:       float64(len(r.latMs)),
		lat:       r.latMs,
		latGroups: len(plan),
		use:       use,
		digest: fmt.Sprintf("sites=%d cameras=1 displays=1 trace=%d events (rate %d/s mix %.1f %.0f ms) flush=%gms warm=%d measured=%d bursts=%d",
			churnSites, traceLen, churnRatePerSec, churnViewMix, churnTraceMs(warm+measured), flushMs, warm, measured, len(plan)),
		counts: map[string]int64{
			"trace_events":    int64(traceLen),
			"events_replayed": int64(warm + measured),
			"bursts":          int64(len(plan)),
			"rp.tree_depth":   int64(depth),
			"rp.relay_nodes":  int64(relays),
		},
		attempted: int64(measured),
		failed:    r.errs,
		layers:    layers,
	}
	w.check("every_call_acked", r.errs == 0 && len(r.latMs) == measured, "%d errors, %d acks of %d calls (last: %v)", r.errs, len(r.latMs), measured, r.sample)
	w.check("applied_equals_issued", applied == int64(measured), "server applied %d of %d", applied, measured)
	if flushMs > 0 {
		w.check("one_epoch_per_flush", flushes >= int64(len(plan)) && flushes <= int64(measured),
			"%d epochs for %d bursts of %d calls", flushes, len(plan), measured)
	} else {
		w.check("one_epoch_per_call", flushes == int64(measured), "%d epochs for %d calls", flushes, measured)
	}
	invalid := c.srv.Forest().Validate()
	w.check("forest_valid", invalid == nil, "%v", invalid)
	for _, n := range c.nodes {
		if err := n.Err(); err != nil {
			w.check("node_healthy", false, "site %d: %v", n.Site(), err)
			break
		}
	}
	if cfg.tr == nil {
		w.layers = nil
		return w, nil
	}

	acked := float64(len(r.latMs))
	applyMs := (phase1.BatchApplyMs - phase0.BatchApplyMs) / acked
	rebuildMs := (phase1.RouteRebuildMs - phase0.RouteRebuildMs) / acked
	var sumLat float64
	for _, v := range r.latMs {
		sumLat += v
	}
	layers["membership.batch_apply_ms_per_resub"] = applyMs
	layers["membership.route_rebuild_ms_per_resub"] = rebuildMs
	// What a call spends outside the server's two accounted phases:
	// route diff, JSON delta, the fabric, and the RP's table swap (and,
	// when batching, the wait for the flush timer).
	layers["membership.residual_ms_per_resub"] = sumLat/acked - applyMs - rebuildMs
	layers["membership.flushes"] = float64(flushes)
	layers["membership.resubs_per_flush"] = float64(applied) / float64(max(1, flushes))
	procLayers(layers, use, watch.stop())

	probes := cfg.tr.begin(0, "probes")
	defer cfg.tr.finish(probes)
	pr := prober{tr: cfg.tr, parent: probes, layers: layers}
	if err := pr.control(c.nodes[0].Routes(), events[warm]); err != nil {
		return nil, err
	}
	// The private forest shares the session's Problem, which ApplyBatch
	// edits; the live cluster built its own, so nothing it uses moves.
	private, per, err := pr.construct(s.Problem, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	layers["overlay.construct_n1000_ms"] = float64(per) / float64(time.Millisecond)
	layers["overlay.apply_batch_us_per_op"] = pr.applyBatch(private, events)
	return w, nil
}
