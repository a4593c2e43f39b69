// Command ticluster boots a complete emulated N-site tele-immersive
// session in one process: a membership server plus N rendezvous points,
// with overlay costs derived from real geographic distances.
// Subscriptions are derived from per-display fields of view via the
// session package, so the whole Figure 3 pipeline runs end to end.
//
// Every run is one session.RunCluster call, and -virtual only picks its
// fabric. The default runs every connection over real loopback TCP,
// which adds no modelled WAN latency. With -virtual the identical
// protocol stack runs over an in-memory transport fabric whose links
// carry those geographic latencies — no kernel sockets — which scales to
// thousands of nodes in one process and carries the fabric faults some
// scenarios inject (partitions, slow links, storms); on TCP those
// scenarios exit 1 naming the fault. A scenario (-scenario) replays its
// dynamics over the wire — steady or flash-crowd churn, correlated
// churn, membership failover — with disruption latency measured from
// real deliveries and cross-checked against the event-driven simulator.
// -tenants / -tenantspec serve several tenant sessions over the one
// fabric with shared uplink admission. Runs emit the same CSV/JSONL
// records as tisweep (-csv/-jsonl), one per tenant, so both tools feed
// one analysis pipeline.
//
// Examples:
//
//	ticluster -nodes 4 -duration 3s -algo CO-RJ
//	ticluster -virtual -nodes 200 -scenario flash-crowd -duration 3s
//	ticluster -virtual -nodes 1000 -scenario partition -csv part.csv
//	ticluster -virtual -nodes 100 -tenants 4 -uplink 4 -jsonl tenants.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	reclib "github.com/tele3d/tele3d/internal/record"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// options is the parsed command line.
type options struct {
	nodes    int
	cameras  int
	displays int
	algo     string
	seed     int64
	duration time.Duration

	virtual       bool
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
	opt, err := parseOptions(os.Args[1:], flag.ExitOnError)
	if err == nil {
		// Mirror tisweep's stream split: the human summary goes to
		// stderr, records (including "-" sinks) to real stdout, so
		// `-csv - | ...` pipes clean CSV.
		err = run(opt, os.Stderr, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseOptions parses the command line.
func parseOptions(args []string, handling flag.ErrorHandling) (options, error) {
	var opt options
	fs := flag.NewFlagSet("ticluster", handling)
	fs.IntVar(&opt.nodes, "nodes", 4, "cluster size (sites)")
	fs.IntVar(&opt.cameras, "cameras", 8, "cameras per site")
	fs.IntVar(&opt.displays, "displays", 2, "displays per site")
	fs.StringVar(&opt.algo, "algo", "RJ", "overlay algorithm: RJ, CO-RJ, LTF, STF, MCTF, AllToAll or gran-ltf:<g>")
	fs.Int64Var(&opt.seed, "seed", 42, "session seed")
	fs.DurationVar(&opt.duration, "duration", 3*time.Second, "streaming duration")
	fs.BoolVar(&opt.virtual, "virtual", false, "run on the in-memory virtual fabric instead of loopback TCP")
	fs.StringVar(&opt.scenario, "scenario", session.ScenarioSteadyChurn, "scenario: "+scenarioNames())
	fs.StringVar(&opt.chaos, "chaos", "",
		"declarative fault schedule, e.g. '300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400' (required by -scenario chaos; fabric faults need -virtual)")
	fs.Float64Var(&opt.churnRate, "churnrate", 2, "base churn events/sec for the scenario")
	fs.Float64Var(&opt.churnMix, "churnmix", 0.7, "view-change fraction of base churn")
	fs.IntVar(&opt.shards, "shards", 1, "membership control-plane shard count")
	fs.Float64Var(&opt.flushMs, "flush", 0, "membership delta batching interval in ms; 0 pushes per event")
	fs.Float64Var(&opt.maxDisruption, "maxdisruption", 0,
		"fail the run if live max disruption (of premium tenants, with tenants) exceeds this many ms; 0 disables")
	fs.StringVar(&opt.csvPath, "csv", "", "CSV record path (tisweep schema); - for stdout")
	fs.StringVar(&opt.jsonlPath, "jsonl", "", "JSONL record path; - for stdout")
	fs.IntVar(&opt.tenants, "tenants", 0,
		"serve this many concurrent tenant sessions over one fabric (1 premium, 1 standard when >= 3, rest besteffort); 0 runs single-tenant")
	fs.StringVar(&opt.tenantSpec, "tenantspec", "",
		"explicit tenant classes, e.g. 1xpremium:50,3xbesteffort:25 (overrides -tenants)")
	fs.IntVar(&opt.uplinkCap, "uplink", 0,
		"multi-tenant mode: shared non-premium admission capacity per PoP uplink in stream units; 0 means unlimited")
	err := fs.Parse(args)
	return opt, err
}

// scenarioNames joins the shipped scenario names for the flag usage line.
func scenarioNames() string {
	var names []string
	for _, sc := range session.Scenarios() {
		names = append(names, sc.Name)
	}
	return strings.Join(names, ", ")
}

// run drives session.RunCluster on loopback TCP, or on the virtual
// fabric with -virtual — one tenant, or K tenants sharing the PoP
// uplinks when -tenants or -tenantspec is given — and emits a human
// summary (to out) plus one shared-schema record per tenant; "-" record
// sinks resolve to stdout. -maxdisruption gates the single tenant, or
// the premium tenants of a multi-tenant run (lower classes absorb
// overload by design).
func run(opt options, out, stdout io.Writer) error {
	alg, err := overlay.ParseAlgorithm(opt.algo)
	if err != nil {
		return err
	}
	// Set the latency-bound multiplier explicitly so the emitted record's
	// bcost column reports the value the run actually used.
	const bcostMultiplier = 3.0
	cfg := session.ClusterConfig{
		Spec: session.ClusterSpec{Spec: session.Spec{
			N: opt.nodes, CamerasPerSite: opt.cameras, DisplaysPerSite: opt.displays,
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
	fabric := "virtual"
	if !opt.virtual {
		fabric = "loopback TCP"
		cfg.Fabric = transport.TCPFabric{DialTimeout: transport.DefaultDialTimeout}
	}
	multi := opt.tenants > 0 || opt.tenantSpec != ""
	switch {
	case multi:
		if opt.tenantSpec != "" {
			cfg.Tenants, err = workload.ParseTenantSpec(opt.tenantSpec)
		} else {
			cfg.Tenants, err = workload.DefaultTenantSpec(opt.tenants, opt.nodes)
		}
		if err != nil {
			return err
		}
		cfg.Spec.N = 0
		cfg.UplinkCapacity = opt.uplinkCap
		fmt.Fprintf(out, "ticluster: multi-tenant %s cluster, %d tenants over %d sites, uplink capacity %d, %d membership shard(s), %v\n",
			fabric, cfg.Tenants.NumTenants(), cfg.Tenants.TotalSites(), opt.uplinkCap, opt.shards, opt.duration)
	case opt.uplinkCap != 0:
		return fmt.Errorf("ticluster: without -tenants or -tenantspec -uplink would be ignored")
	default:
		fmt.Fprintf(out, "ticluster: %s cluster, %d sites, %d membership shard(s), scenario %s, %v\n",
			fabric, opt.nodes, opt.shards, opt.scenario, opt.duration)
	}
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
	if !multi {
		printLive(out, res.Live, res.Sim, res.ChaosSchedule)
	}

	var sink *reclib.Sink
	if opt.csvPath != "" || opt.jsonlPath != "" {
		if sink, err = reclib.NewSink(opt.csvPath, opt.jsonlPath, stdout); err != nil {
			return err
		}
		defer sink.Close()
	}
	var worst float64
	for i, tn := range res.Tenants {
		var slo string
		if multi {
			slo = tn.SLO.String()
			fmt.Fprintf(out, "  tenant %-14s %3d sites: live mean %.1f ms max %.1f ms (sim mean %.1f ms), admitted %d, rejected %d, evicted %d\n",
				tn.Name, tn.Sites, tn.Live.MeanDisruptionMs, tn.Live.MaxDisruptionMs,
				tn.Sim.MeanDisruptionMs, tn.Admitted, tn.Rejections, tn.Evictions)
		}
		if !multi || tn.SLO == workload.SLOPremium {
			worst = max(worst, tn.Live.MaxDisruptionMs)
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
			Scenario:           res.Scenario,
			ChurnEvents:        float64(tn.Events),
			DisruptionMeanMs:   tn.Live.MeanDisruptionMs,
			DisruptionMaxMs:    tn.Live.MaxDisruptionMs,
			DeliveredFraction:  tn.Live.DeliveredFraction(),
			Shards:             opt.shards,
			Failovers:          tn.Live.Failovers,
			FailoverRecoveryMs: tn.Live.FailoverRecoveryMs,
			ChaosSchedule:      res.ChaosSchedule,
			ChaosEvents:        tn.Live.ChaosEvents,
			ChaosRecoveryMs:    tn.Live.ChaosRecoveryMs,
			Retries:            tn.Live.Retries,
			Tenant:             i,
			SLOClass:           slo,
			Admitted:           tn.Admitted,
			Rejections:         tn.Rejections,
			FramesDelivered:    tn.Live.TotalFrames,
			FramesDropped:      tn.Live.TotalDropped,
			FramesStale:        tn.Live.TotalStale,
			FramesDuplicate:    tn.Live.TotalDuplicates,
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
	if opt.maxDisruption > 0 && worst > opt.maxDisruption {
		gated := "live"
		if multi {
			gated = "premium live"
		}
		return fmt.Errorf("ticluster: %s max disruption %.1f ms exceeds bound %.1f ms",
			gated, worst, opt.maxDisruption)
	}
	return nil
}

// printLive writes the human summary of one live run next to pred, the
// simulator's prediction for the same trace.
func printLive(out io.Writer, live *session.LiveResult, pred *sim.EventResult, chaosSchedule string) {
	fmt.Fprintf(out, "  %d control events over the wire, final epoch %d\n",
		len(live.Events), live.FinalEpoch)
	fmt.Fprintf(out, "  disruption latency: live mean %.1f ms max %.1f ms (%d/%d gains delivered)\n",
		live.MeanDisruptionMs, live.MaxDisruptionMs,
		live.DeliveredGained, live.DeliveredGained+live.UndeliveredGained)
	fmt.Fprintf(out, "  sim prediction:     mean %.1f ms max %.1f ms (%d delivered)\n",
		pred.MeanDisruptionMs, pred.MaxDisruptionMs, pred.DeliveredGained)
	fmt.Fprintf(out, "  frames: %d delivered, %d stale, %d duplicate, %d dropped\n",
		live.TotalFrames, live.TotalStale, live.TotalDuplicates, live.TotalDropped)
	fmt.Fprintf(out, "  maintenance phases: construct %.1f ms, batch-apply %.1f ms, route-rebuild %.1f ms\n",
		live.Phases.ConstructMs, live.Phases.BatchApplyMs, live.Phases.RouteRebuildMs)
	if live.Failovers > 0 {
		fmt.Fprintf(out, "  failover: %d membership shard(s) recovered, slowest in %.1f ms\n",
			live.Failovers, live.FailoverRecoveryMs)
	}
	if live.ChaosEvents > 0 {
		fmt.Fprintf(out, "  chaos: %d fault(s) injected (%s), worst recovery %.1f ms, %d redial attempts\n",
			live.ChaosEvents, chaosSchedule, live.ChaosRecoveryMs, live.Retries)
	}
}
