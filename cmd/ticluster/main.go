// Command ticluster boots a complete emulated N-site tele-immersive
// session in one process: a membership server plus N rendezvous points,
// with WAN latency emulated from real geographic distances.
// Subscriptions are derived from per-display fields of view via the
// session package, so the whole Figure 3 pipeline runs end to end.
//
// Two fabrics are available. The default runs every connection over real
// loopback TCP. With -virtual the identical protocol stack runs over an
// in-memory transport fabric instead — no kernel sockets — which scales
// to thousands of nodes in one process and unlocks the scenario library
// (-scenario): flash crowds, regional partitions, correlated churn and
// slow-link degradation, each replayed over the wire with disruption
// latency measured from real deliveries and cross-checked against the
// event-driven simulator. Virtual runs emit the same CSV/JSONL records
// as tisweep (-csv/-jsonl), so both tools feed one analysis pipeline.
//
// Examples:
//
//	ticluster -n 4 -duration 3s -algo CO-RJ
//	ticluster -virtual -nodes 200 -scenario flash-crowd -duration 3s
//	ticluster -virtual -nodes 1000 -scenario partition -csv part.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	reclib "github.com/tele3d/tele3d/internal/record"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// options is the parsed command line.
type options struct {
	n        int
	cameras  int
	displays int
	algo     string
	seed     int64
	duration time.Duration

	virtual       bool
	nodes         int
	scenario      string
	chaos         string
	churnRate     float64
	churnMix      float64
	shards        int
	flushMs       float64
	maxDisruption float64
	csvPath       string
	jsonlPath     string

	tenants    int
	tenantSpec string
	uplinkCap  int
}

func main() {
	var opt options
	flag.IntVar(&opt.n, "n", 4, "number of sites (TCP mode; virtual mode uses -nodes)")
	flag.IntVar(&opt.cameras, "cameras", 8, "cameras per site")
	flag.IntVar(&opt.displays, "displays", 2, "displays per site")
	flag.StringVar(&opt.algo, "algo", "RJ", "overlay algorithm: RJ, CO-RJ, LTF, STF, MCTF")
	flag.Int64Var(&opt.seed, "seed", 42, "session seed")
	flag.DurationVar(&opt.duration, "duration", 3*time.Second, "streaming duration")
	flag.BoolVar(&opt.virtual, "virtual", false, "run on the in-memory virtual fabric instead of TCP")
	flag.IntVar(&opt.nodes, "nodes", 0, "cluster size in virtual mode; 0 means -n")
	flag.StringVar(&opt.scenario, "scenario", session.ScenarioSteadyChurn,
		"virtual-mode scenario: "+scenarioNames())
	flag.StringVar(&opt.chaos, "chaos", "",
		"virtual mode: declarative fault schedule, e.g. '300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400' (required by -scenario chaos)")
	flag.Float64Var(&opt.churnRate, "churnrate", 2, "base churn events/sec for the scenario")
	flag.Float64Var(&opt.churnMix, "churnmix", 0.7, "view-change fraction of base churn")
	flag.IntVar(&opt.shards, "shards", 1, "virtual mode: membership control-plane shard count")
	flag.Float64Var(&opt.flushMs, "flush", 0, "virtual mode: membership delta batching interval in ms; 0 pushes per event")
	flag.Float64Var(&opt.maxDisruption, "maxdisruption", 0,
		"virtual mode: fail the run if live max disruption exceeds this many ms; 0 disables")
	flag.StringVar(&opt.csvPath, "csv", "", "virtual mode: CSV record path (tisweep schema); - for stdout")
	flag.StringVar(&opt.jsonlPath, "jsonl", "", "virtual mode: JSONL record path; - for stdout")
	flag.IntVar(&opt.tenants, "tenants", 0,
		"virtual mode: serve this many concurrent tenant sessions over one fabric (1 premium, 1 standard when >= 3, rest besteffort); 0 runs single-tenant")
	flag.StringVar(&opt.tenantSpec, "tenantspec", "",
		"virtual mode: explicit tenant classes, e.g. 1xpremium:50,3xbesteffort:25 (overrides -tenants)")
	flag.IntVar(&opt.uplinkCap, "uplink", 0,
		"multi-tenant mode: shared non-premium admission capacity per PoP uplink in stream units; 0 means unlimited")
	flag.Parse()

	var err error
	switch {
	case opt.tenants > 0 || opt.tenantSpec != "":
		if !opt.virtual {
			err = fmt.Errorf("ticluster: -tenants/-tenantspec require -virtual")
			break
		}
		// Mirror tisweep's stream split: the human summary goes to
		// stderr, records (including "-" sinks) to real stdout, so
		// `-csv - | ...` pipes clean CSV.
		err = runMultiTenant(opt, os.Stderr, os.Stdout)
	case opt.virtual:
		err = runVirtual(opt, os.Stderr, os.Stdout)
	default:
		err = runTCP(opt)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// scenarioNames joins the shipped scenario names for the flag usage line.
func scenarioNames() string {
	var names []string
	for _, sc := range session.Scenarios() {
		names = append(names, sc.Name)
	}
	return strings.Join(names, ", ")
}

// runVirtual drives session.RunCluster on the virtual fabric and emits a
// human summary (to out) plus one shared-schema record per run; "-"
// record sinks resolve to stdout.
func runVirtual(opt options, out, stdout io.Writer) error {
	alg, err := parseAlgo(opt.algo)
	if err != nil {
		return err
	}
	nodes := opt.nodes
	if nodes == 0 {
		nodes = opt.n
	}
	// Set the latency-bound multiplier explicitly so the emitted record's
	// bcost column reports the value the run actually used.
	const bcostMultiplier = 3.0
	cfg := session.ClusterConfig{
		Spec: session.ClusterSpec{Spec: session.Spec{
			N: nodes, CamerasPerSite: opt.cameras, DisplaysPerSite: opt.displays,
			BcostMultiplier: bcostMultiplier,
			Algorithm:       alg, Seed: opt.seed,
		}},
		DurationMs:      float64(opt.duration.Milliseconds()),
		Scenario:        opt.scenario,
		Churn:           workload.ChurnProfile{RatePerSec: opt.churnRate, ViewChangeMix: opt.churnMix},
		Shards:          opt.shards,
		FlushIntervalMs: opt.flushMs,
		ChaosSchedule:   opt.chaos,
	}
	fmt.Fprintf(out, "ticluster: virtual cluster, %d sites, %d membership shard(s), scenario %s, %v\n",
		nodes, opt.shards, opt.scenario, opt.duration)
	start := time.Now()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	res, err := session.RunCluster(context.Background(), cfg)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&memAfter)
	heapDelta := int64(memAfter.HeapAlloc) - int64(memBefore.HeapAlloc)
	elapsed := time.Since(start)

	fmt.Fprintf(out, "  %d control events over the wire, final epoch %d\n",
		res.Events, res.Live.FinalEpoch)
	fmt.Fprintf(out, "  disruption latency: live mean %.1f ms max %.1f ms (%d/%d gains delivered)\n",
		res.Live.MeanDisruptionMs, res.Live.MaxDisruptionMs,
		res.Live.DeliveredGained, res.Live.DeliveredGained+res.Live.UndeliveredGained)
	fmt.Fprintf(out, "  sim prediction:     mean %.1f ms max %.1f ms (%d delivered)\n",
		res.Sim.MeanDisruptionMs, res.Sim.MaxDisruptionMs, res.Sim.DeliveredGained)
	fmt.Fprintf(out, "  frames: %d delivered, %d stale, %d duplicate, %d dropped\n",
		res.Live.TotalFrames, res.Live.TotalStale, res.Live.TotalDuplicates, res.Live.TotalDropped)
	fmt.Fprintf(out, "  maintenance phases: construct %.1f ms, batch-apply %.1f ms, route-rebuild %.1f ms\n",
		res.Live.Phases.ConstructMs, res.Live.Phases.BatchApplyMs, res.Live.Phases.RouteRebuildMs)
	if res.Live.Failovers > 0 {
		fmt.Fprintf(out, "  failover: %d membership shard(s) recovered, slowest in %.1f ms\n",
			res.Live.Failovers, res.Live.FailoverRecoveryMs)
	}
	if res.Live.ChaosEvents > 0 {
		fmt.Fprintf(out, "  chaos: %d fault(s) injected (%s), worst recovery %.1f ms, %d redial attempts\n",
			res.Live.ChaosEvents, res.ChaosSchedule, res.Live.ChaosRecoveryMs, res.Live.Retries)
	}

	if opt.csvPath != "" || opt.jsonlPath != "" {
		sink, err := reclib.NewSink(opt.csvPath, opt.jsonlPath, stdout)
		if err != nil {
			return err
		}
		defer sink.Close()
		if err := sink.Write(reclib.Record{
			N: nodes, Streams: opt.cameras,
			Bcost:    bcostMultiplier,
			Capacity: "fov", Popularity: "fov",
			Algorithm: alg.Name(),
			Samples:   1, Seed: opt.seed, Parallelism: 1,
			ChurnRate: opt.churnRate, ChurnMix: opt.churnMix,
			Scenario:           res.Scenario,
			ChurnEvents:        float64(res.Events),
			DisruptionMeanMs:   res.Live.MeanDisruptionMs,
			DisruptionMaxMs:    res.Live.MaxDisruptionMs,
			DeliveredFraction:  res.DeliveredFraction(),
			Shards:             opt.shards,
			Failovers:          res.Live.Failovers,
			FailoverRecoveryMs: res.Live.FailoverRecoveryMs,
			ChaosSchedule:      res.ChaosSchedule,
			ChaosEvents:        res.Live.ChaosEvents,
			ChaosRecoveryMs:    res.Live.ChaosRecoveryMs,
			Retries:            res.Live.Retries,
			ConstructMs:        res.Live.Phases.ConstructMs,
			BatchApplyMs:       res.Live.Phases.BatchApplyMs,
			RouteRebuildMs:     res.Live.Phases.RouteRebuildMs,
			HeapDeltaBytes:     heapDelta,
			ElapsedMs:          float64(elapsed.Microseconds()) / 1e3,
		}); err != nil {
			return err
		}
	}
	// The bound is checked after the records are written so a failing run
	// still leaves its measurements on disk for diagnosis.
	if opt.maxDisruption > 0 && res.Live.MaxDisruptionMs > opt.maxDisruption {
		return fmt.Errorf("ticluster: live max disruption %.1f ms exceeds bound %.1f ms",
			res.Live.MaxDisruptionMs, opt.maxDisruption)
	}
	return nil
}

// runMultiTenant drives session.RunMultiCluster: K concurrent tenant
// sessions over one virtual fabric with shared uplink admission. It
// emits one shared-schema record per tenant, each carrying that
// tenant's disruption-latency and admission columns, and enforces
// -maxdisruption against premium tenants only (lower classes absorb
// overload by design).
func runMultiTenant(opt options, out, stdout io.Writer) error {
	alg, err := parseAlgo(opt.algo)
	if err != nil {
		return err
	}
	nodes := opt.nodes
	if nodes == 0 {
		nodes = opt.n
	}
	var spec workload.MultiTenantSpec
	if opt.tenantSpec != "" {
		spec, err = workload.ParseTenantSpec(opt.tenantSpec)
	} else {
		spec, err = workload.DefaultTenantSpec(opt.tenants, nodes)
	}
	if err != nil {
		return err
	}
	const bcostMultiplier = 3.0
	cfg := session.MultiClusterConfig{
		Spec:            spec,
		CamerasPerSite:  opt.cameras,
		DisplaysPerSite: opt.displays,
		BcostMultiplier: bcostMultiplier,
		Algorithm:       alg,
		Seed:            opt.seed,
		DurationMs:      float64(opt.duration.Milliseconds()),
		Churn:           workload.ChurnProfile{RatePerSec: opt.churnRate, ViewChangeMix: opt.churnMix},
		Shards:          opt.shards,
		FlushIntervalMs: opt.flushMs,
		UplinkCapacity:  opt.uplinkCap,
	}
	fmt.Fprintf(out, "ticluster: multi-tenant virtual cluster, %d tenants over %d sites, uplink capacity %d, %d membership shard(s), %v\n",
		spec.NumTenants(), spec.TotalSites(), opt.uplinkCap, opt.shards, opt.duration)
	start := time.Now()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	res, err := session.RunMultiCluster(context.Background(), cfg)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&memAfter)
	heapDelta := int64(memAfter.HeapAlloc) - int64(memBefore.HeapAlloc)
	elapsed := time.Since(start)

	var sink *reclib.Sink
	if opt.csvPath != "" || opt.jsonlPath != "" {
		if sink, err = reclib.NewSink(opt.csvPath, opt.jsonlPath, stdout); err != nil {
			return err
		}
		defer sink.Close()
	}
	var worstPremium float64
	for i, tn := range res.Tenants {
		delivered := tn.Live.DeliveredGained + tn.Live.UndeliveredGained
		frac := 0.0
		if delivered > 0 {
			frac = float64(tn.Live.DeliveredGained) / float64(delivered)
		}
		fmt.Fprintf(out, "  tenant %-14s %3d sites: live mean %.1f ms max %.1f ms (sim mean %.1f ms), admitted %d, rejected %d, evicted %d\n",
			tn.Name, tn.Sites, tn.Live.MeanDisruptionMs, tn.Live.MaxDisruptionMs,
			tn.Sim.MeanDisruptionMs, tn.Admitted, tn.Rejections, tn.Evictions)
		if tn.SLO == workload.SLOPremium && tn.Live.MaxDisruptionMs > worstPremium {
			worstPremium = tn.Live.MaxDisruptionMs
		}
		if sink == nil {
			continue
		}
		if err := sink.Write(reclib.Record{
			N: tn.Sites, Streams: opt.cameras,
			Bcost:    bcostMultiplier,
			Capacity: "fov", Popularity: "fov",
			Algorithm: alg.Name(),
			Samples:   1, Seed: opt.seed, Parallelism: 1,
			ChurnRate: opt.churnRate, ChurnMix: opt.churnMix,
			Scenario:           session.ScenarioSteadyChurn,
			ChurnEvents:        float64(tn.Events),
			DisruptionMeanMs:   tn.Live.MeanDisruptionMs,
			DisruptionMaxMs:    tn.Live.MaxDisruptionMs,
			DeliveredFraction:  frac,
			Shards:             opt.shards,
			Failovers:          tn.Live.Failovers,
			FailoverRecoveryMs: tn.Live.FailoverRecoveryMs,
			Retries:            tn.Live.Retries,
			Tenant:             i,
			SLOClass:           tn.SLO.String(),
			Admitted:           tn.Admitted,
			Rejections:         tn.Rejections,
			ConstructMs:        tn.Live.Phases.ConstructMs,
			BatchApplyMs:       tn.Live.Phases.BatchApplyMs,
			RouteRebuildMs:     tn.Live.Phases.RouteRebuildMs,
			HeapDeltaBytes:     heapDelta,
			ElapsedMs:          float64(elapsed.Microseconds()) / 1e3,
		}); err != nil {
			return err
		}
	}
	// The bound is checked after the records are written so a failing run
	// still leaves its measurements on disk for diagnosis.
	if opt.maxDisruption > 0 && worstPremium > opt.maxDisruption {
		return fmt.Errorf("ticluster: premium live max disruption %.1f ms exceeds bound %.1f ms",
			worstPremium, opt.maxDisruption)
	}
	return nil
}

// runTCP is the original loopback-TCP mode: plan the session, boot the
// stack, stream for the duration, and print per-site delivery stats.
func runTCP(opt options) error {
	alg, err := parseAlgo(opt.algo)
	if err != nil {
		return err
	}

	// Plan the session: sites, FOV-derived subscriptions, expected forest.
	plan, err := session.Build(session.Spec{
		N: opt.n, CamerasPerSite: opt.cameras, DisplaysPerSite: opt.displays,
		Algorithm: alg, Seed: opt.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ticluster: %d sites:", opt.n)
	for _, node := range plan.Sites.Nodes {
		fmt.Printf(" %s;", node.City.Name)
	}
	fmt.Printf("\n  planned forest: %d trees, rejection %.3f, bound %.0f ms\n",
		plan.Forest.NumTrees(), metrics.Rejection(plan.Forest), plan.Problem.Bcost)

	srv, err := membership.New(membership.Config{
		N: opt.n, Cost: plan.Sites.Cost, Bcost: plan.Problem.Bcost, Algorithm: alg, Seed: opt.seed,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := srv.Serve(ctx); err != nil {
			log.Fatal(err)
		}
	}()

	profile := stream.Profile{Width: 160, Height: 120, FPS: 15, CompressionRatio: 26}
	nodes := make([]*rp.Node, opt.n)
	var wg sync.WaitGroup
	for i := 0; i < opt.n; i++ {
		node, err := rp.New(rp.Config{
			Site: i, Membership: srv.Addr(),
			In: 20, Out: 20,
			Cameras: opt.cameras, Profile: profile, Seed: int64(i),
			Subscriptions: plan.Workload.Subs[i],
		})
		if err != nil {
			return err
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
		for _, node := range nodes {
			node.Close()
		}
	}()

	interval := time.Duration(profile.FrameIntervalMs() * float64(time.Millisecond))
	deadline := time.Now().Add(opt.duration)
	ticks := 0
	for time.Now().Before(deadline) {
		for _, node := range nodes {
			if err := node.PublishTick(); err != nil {
				return err
			}
		}
		ticks++
		time.Sleep(interval)
	}
	time.Sleep(300 * time.Millisecond)

	fmt.Printf("  streamed %d ticks (%d frames/site)\n", ticks, ticks*opt.cameras)
	for i, node := range nodes {
		stats := node.Stats()
		var frames int
		var lat float64
		ids := make([]stream.ID, 0, len(stats))
		for id := range stats {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
		for _, id := range ids {
			frames += stats[id].Frames
			lat += stats[id].MeanLatMs * float64(stats[id].Frames)
		}
		mean := 0.0
		if frames > 0 {
			mean = lat / float64(frames)
		}
		fmt.Printf("  site %d: %d streams subscribed, %5d frames delivered, mean latency %6.1f ms\n",
			i, len(plan.Workload.Subs[i]), frames, mean)
	}
	return nil
}

func parseAlgo(s string) (overlay.Algorithm, error) {
	switch strings.ToUpper(s) {
	case "RJ":
		return overlay.RJ{}, nil
	case "CO-RJ", "CORJ":
		return overlay.CORJ{}, nil
	case "LTF":
		return overlay.LTF{}, nil
	case "STF":
		return overlay.STF{}, nil
	case "MCTF":
		return overlay.MCTF{}, nil
	default:
		return nil, fmt.Errorf("ticluster: unknown algorithm %q", s)
	}
}
