// Command ticluster boots a complete emulated N-site tele-immersive
// session in one process: a membership server plus N rendezvous points,
// with overlay costs derived from real geographic distances.
// Subscriptions are derived from per-display fields of view via the
// session package, so the whole Figure 3 pipeline runs end to end.
//
// Two fabrics are available. The default runs every connection over real
// loopback TCP (session.RunLive, no churn), which adds no modelled WAN
// latency. With -virtual the identical protocol stack runs over an
// in-memory transport fabric whose links carry those geographic
// latencies — no kernel sockets — through session.RunCluster, which
// scales to thousands of nodes in one process and unlocks the scenario
// library (-scenario): flash crowds, regional partitions, correlated
// churn and slow-link degradation, each replayed over the wire with
// disruption latency measured from real deliveries and cross-checked
// against the event-driven simulator. -tenants / -tenantspec serve several tenant
// sessions over the one fabric with shared uplink admission. Virtual
// runs emit the same CSV/JSONL records as tisweep (-csv/-jsonl), one
// per tenant, so both tools feed one analysis pipeline. A virtual-only
// flag given without -virtual is an error, not silently ignored.
//
// Examples:
//
//	ticluster -n 4 -duration 3s -algo CO-RJ
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

	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/overlay"
	reclib "github.com/tele3d/tele3d/internal/record"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
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
	opt, err := parseOptions(os.Args[1:], flag.ExitOnError)
	if err == nil {
		// Mirror tisweep's stream split: the human summary goes to
		// stderr, records (including "-" sinks) to real stdout, so
		// `-csv - | ...` pipes clean CSV.
		if opt.virtual {
			err = runVirtual(opt, os.Stderr, os.Stdout)
		} else {
			err = runTCP(opt, os.Stderr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// virtualOnly names the flags only the virtual fabric reads; TCP mode
// rejects them instead of dropping them.
var virtualOnly = map[string]bool{
	"nodes": true, "scenario": true, "chaos": true, "churnrate": true, "churnmix": true,
	"shards": true, "flush": true, "maxdisruption": true, "csv": true, "jsonl": true,
	"tenants": true, "tenantspec": true, "uplink": true,
}

// parseOptions parses the command line and rejects virtual-only flags
// given without -virtual.
func parseOptions(args []string, handling flag.ErrorHandling) (options, error) {
	var opt options
	fs := flag.NewFlagSet("ticluster", handling)
	fs.IntVar(&opt.n, "n", 4, "number of sites (TCP mode; virtual mode uses -nodes)")
	fs.IntVar(&opt.cameras, "cameras", 8, "cameras per site")
	fs.IntVar(&opt.displays, "displays", 2, "displays per site")
	fs.StringVar(&opt.algo, "algo", "RJ", "overlay algorithm: RJ, CO-RJ, LTF, STF, MCTF")
	fs.Int64Var(&opt.seed, "seed", 42, "session seed")
	fs.DurationVar(&opt.duration, "duration", 3*time.Second, "streaming duration")
	fs.BoolVar(&opt.virtual, "virtual", false, "run on the in-memory virtual fabric instead of TCP")
	fs.IntVar(&opt.nodes, "nodes", 0, "cluster size in virtual mode; 0 means -n")
	fs.StringVar(&opt.scenario, "scenario", session.ScenarioSteadyChurn,
		"virtual-mode scenario: "+scenarioNames())
	fs.StringVar(&opt.chaos, "chaos", "",
		"virtual mode: declarative fault schedule, e.g. '300:rp-crash:rand;900:rp-rejoin:last;1200:latency-storm:5:400' (required by -scenario chaos)")
	fs.Float64Var(&opt.churnRate, "churnrate", 2, "virtual mode: base churn events/sec for the scenario")
	fs.Float64Var(&opt.churnMix, "churnmix", 0.7, "virtual mode: view-change fraction of base churn")
	fs.IntVar(&opt.shards, "shards", 1, "virtual mode: membership control-plane shard count")
	fs.Float64Var(&opt.flushMs, "flush", 0, "virtual mode: membership delta batching interval in ms; 0 pushes per event")
	fs.Float64Var(&opt.maxDisruption, "maxdisruption", 0,
		"virtual mode: fail the run if live max disruption (of premium tenants, with tenants) exceeds this many ms; 0 disables")
	fs.StringVar(&opt.csvPath, "csv", "", "virtual mode: CSV record path (tisweep schema); - for stdout")
	fs.StringVar(&opt.jsonlPath, "jsonl", "", "virtual mode: JSONL record path; - for stdout")
	fs.IntVar(&opt.tenants, "tenants", 0,
		"virtual mode: serve this many concurrent tenant sessions over one fabric (1 premium, 1 standard when >= 3, rest besteffort); 0 runs single-tenant")
	fs.StringVar(&opt.tenantSpec, "tenantspec", "",
		"virtual mode: explicit tenant classes, e.g. 1xpremium:50,3xbesteffort:25 (overrides -tenants)")
	fs.IntVar(&opt.uplinkCap, "uplink", 0,
		"multi-tenant mode: shared non-premium admission capacity per PoP uplink in stream units; 0 means unlimited")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if opt.virtual {
		return opt, nil
	}
	var dropped []string
	fs.Visit(func(f *flag.Flag) {
		if virtualOnly[f.Name] {
			dropped = append(dropped, "-"+f.Name)
		}
	})
	if len(dropped) > 0 {
		return opt, fmt.Errorf("ticluster: without -virtual these flags would be ignored: %s", strings.Join(dropped, ", "))
	}
	return opt, nil
}

// scenarioNames joins the shipped scenario names for the flag usage line.
func scenarioNames() string {
	var names []string
	for _, sc := range session.Scenarios() {
		names = append(names, sc.Name)
	}
	return strings.Join(names, ", ")
}

// runVirtual drives session.RunCluster on the virtual fabric — one
// tenant, or K tenants sharing the PoP uplinks when -tenants or
// -tenantspec is given — and emits a human summary (to out) plus one
// shared-schema record per tenant; "-" record sinks resolve to stdout.
// -maxdisruption gates the single tenant, or the premium tenants of a
// multi-tenant run (lower classes absorb overload by design).
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
	multi := opt.tenants > 0 || opt.tenantSpec != ""
	switch {
	case multi:
		if opt.tenantSpec != "" {
			cfg.Tenants, err = workload.ParseTenantSpec(opt.tenantSpec)
		} else {
			cfg.Tenants, err = workload.DefaultTenantSpec(opt.tenants, nodes)
		}
		if err != nil {
			return err
		}
		cfg.Spec.N = 0
		cfg.UplinkCapacity = opt.uplinkCap
		fmt.Fprintf(out, "ticluster: multi-tenant virtual cluster, %d tenants over %d sites, uplink capacity %d, %d membership shard(s), %v\n",
			cfg.Tenants.NumTenants(), cfg.Tenants.TotalSites(), opt.uplinkCap, opt.shards, opt.duration)
	case opt.uplinkCap != 0:
		return fmt.Errorf("ticluster: without -tenants or -tenantspec -uplink would be ignored")
	default:
		fmt.Fprintf(out, "ticluster: virtual cluster, %d sites, %d membership shard(s), scenario %s, %v\n",
			nodes, opt.shards, opt.scenario, opt.duration)
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

// runTCP plans the session and runs it over real loopback TCP — a
// membership server plus one RP per site, streaming for the duration
// with no churn — then prints the same live summary the virtual path
// does.
func runTCP(opt options, out io.Writer) error {
	alg, err := parseAlgo(opt.algo)
	if err != nil {
		return err
	}
	s, err := session.Build(session.Spec{
		N: opt.n, CamerasPerSite: opt.cameras, DisplaysPerSite: opt.displays,
		Algorithm: alg, Seed: opt.seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ticluster: %d sites:", opt.n)
	for _, node := range s.Sites.Nodes {
		fmt.Fprintf(out, " %s;", node.City.Name)
	}
	fmt.Fprintf(out, "\n  planned forest: %d trees, rejection %.3f, bound %.0f ms\n",
		s.Forest.NumTrees(), metrics.Rejection(s.Forest), s.Problem.Bcost)
	live, err := s.RunLive(context.Background(), session.LiveConfig{
		Profile:    stream.Profile{Width: 160, Height: 120, FPS: 15, CompressionRatio: 26},
		DurationMs: float64(opt.duration.Milliseconds()),
		DrainMs:    300,
		Algorithm:  alg,
		Seed:       opt.seed,
	}, nil)
	if err != nil {
		return err
	}
	printLive(out, live, nil, "")
	return nil
}

// printLive writes the human summary of one live run; pred, when
// non-nil, is the simulator's prediction for the same trace.
func printLive(out io.Writer, live *session.LiveResult, pred *sim.EventResult, chaosSchedule string) {
	fmt.Fprintf(out, "  %d control events over the wire, final epoch %d\n",
		len(live.Events), live.FinalEpoch)
	fmt.Fprintf(out, "  disruption latency: live mean %.1f ms max %.1f ms (%d/%d gains delivered)\n",
		live.MeanDisruptionMs, live.MaxDisruptionMs,
		live.DeliveredGained, live.DeliveredGained+live.UndeliveredGained)
	if pred != nil {
		fmt.Fprintf(out, "  sim prediction:     mean %.1f ms max %.1f ms (%d delivered)\n",
			pred.MeanDisruptionMs, pred.MaxDisruptionMs, pred.DeliveredGained)
	}
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
