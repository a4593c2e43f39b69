// Command tisim regenerates the paper's evaluation figures on the
// reconstructed simulation substrates.
//
// Usage:
//
//	tisim -fig 8a|8b|8c|8d|9|10|11|all [-samples 200] [-seed 1] [-parallel 0] [-csv]
//	tisim -fig ablation    # reservation-mode and join-policy ablations
//	tisim -fig capacity    # the §1 capacity back-of-envelope table
//	tisim -churn [-churnrate 4] [-churnmix 0.7]   # event-driven churn sweep
//	tisim -fig 8a -cpuprofile cpu.prof -memprofile mem.prof  # pprof capture (see `make profile`)
//
// The -churn mode runs the event-driven simulator over FOV-driven
// sessions under seeded mid-session churn (view changes, joins, leaves)
// and reports disruption latency — the time from a view change to the
// first delivered frame of each newly needed stream — versus session
// size. ticluster replays such churn over the real networked plane.
//
// Output is an aligned text table per figure (or CSV with -csv).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/tele3d/tele3d/internal/experiments"
	"github.com/tele3d/tele3d/internal/metrics"
	"github.com/tele3d/tele3d/internal/stream"
)

// options is the parsed command line.
type options struct {
	fig        string
	samples    int
	seed       int64
	parallel   int
	csv        bool
	churn      bool
	churnRate  float64
	churnMix   float64
	cpuprofile string
	memprofile string
}

// parseFlags parses the command line into options, writing usage and
// error text to errW. Positional arguments are rejected: every knob is a
// flag. A -h/-help request surfaces as flag.ErrHelp with the usage
// already printed.
func parseFlags(args []string, errW io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("tisim", flag.ContinueOnError)
	fs.SetOutput(errW)
	fs.StringVar(&o.fig, "fig", "all", "figure to regenerate: 8a, 8b, 8c, 8d, 9, 10, 11, ablation, capacity, all")
	fs.IntVar(&o.samples, "samples", 200, "workload samples per data point (paper: 200)")
	fs.Int64Var(&o.seed, "seed", 1, "base random seed")
	fs.IntVar(&o.parallel, "parallel", 0, "sample-evaluation workers; 0 = GOMAXPROCS (results are seed-deterministic at any setting)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&o.churn, "churn", false, "run the event-driven churn sweep instead of a figure")
	fs.Float64Var(&o.churnRate, "churnrate", 4, "churn events per second (with -churn; spelled as tisweep's axis)")
	fs.Float64Var(&o.churnMix, "churnmix", 0.7, "fraction of churn events that are view changes (with -churn)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (view with `go tool pprof`)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.samples < 1 {
		return o, fmt.Errorf("-samples %d < 1", o.samples)
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tisim:", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tisim:", err)
		os.Exit(2)
	}
	runErr := run(os.Stdout, opts)
	profErr := stopProfiles()
	for _, err := range []error{runErr, profErr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "tisim:", err)
		}
	}
	if runErr != nil || profErr != nil {
		os.Exit(1)
	}
}

// startProfiles starts the requested pprof captures and returns the
// finalizer that stops the CPU profile and snapshots the heap. Profiling
// is how every perf change to the overlay core starts: `make profile`
// produces the flame-graph inputs for the calibrated Fig. 8a workload.
func startProfiles(opts options) (stop func() error, err error) {
	var cpuFile *os.File
	if opts.cpuprofile != "" {
		cpuFile, err = os.Create(opts.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if opts.memprofile != "" {
			f, err := os.Create(opts.memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run(w io.Writer, opts options) error {
	r, err := experiments.NewRunner(experiments.Config{
		Samples: opts.samples, Seed: opts.seed, Parallelism: opts.parallel,
	})
	if err != nil {
		return err
	}
	emit := func(title, xLabel string, series []metrics.Series) error {
		if opts.csv {
			return experiments.WriteCSV(w, xLabel, series)
		}
		if err := experiments.WriteTable(w, title, xLabel, series); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if opts.churn {
		series, err := r.ChurnSweep(opts.churnRate, opts.churnMix)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Churn: disruption latency under view dynamics (rate=%g/s, view-change mix=%g)",
			opts.churnRate, opts.churnMix)
		return emit(title, "N", series)
	}
	figures := []string{opts.fig}
	if opts.fig == "all" {
		figures = []string{"8a", "8b", "8c", "8d", "9", "10", "11", "ablation", "capacity"}
	}
	for _, f := range figures {
		switch f {
		case "8a", "8b", "8c", "8d":
			series, err := r.Fig8(experiments.Fig8Variant(f))
			if err != nil {
				return err
			}
			if err := emit("Figure "+f+": average rejection ratio vs number of sites", "N", series); err != nil {
				return err
			}
		case "9":
			s, err := r.Fig9()
			if err != nil {
				return err
			}
			if err := emit("Figure 9: impact of granularity on rejection ratio (N=10)", "g", []metrics.Series{s}); err != nil {
				return err
			}
		case "10":
			series, err := r.Fig10()
			if err != nil {
				return err
			}
			if err := emit("Figure 10: average out-degree utilization (RJ)", "N", series); err != nil {
				return err
			}
		case "11":
			series, err := r.Fig11()
			if err != nil {
				return err
			}
			if err := emit("Figure 11: weighted rejection ratio X' (Eq. 3), RJ vs CO-RJ", "N", series); err != nil {
				return err
			}
		case "ablation":
			dyn, err := r.AblationDynamic()
			if err != nil {
				return err
			}
			if err := emit("Ablation: incremental churn vs full rebuild (N=8, 30% churn)", "x", dyn); err != nil {
				return err
			}
			res, err := r.AblationReservation()
			if err != nil {
				return err
			}
			if err := emit("Ablation: reservation mode (x: 0=rank-only 1=blocking 2=off), N=10", "mode", res); err != nil {
				return err
			}
			pol, err := r.AblationJoinPolicy()
			if err != nil {
				return err
			}
			if err := emit("Ablation: join policy (max-rfc vs relay-first), N=10", "x", pol); err != nil {
				return err
			}
		case "capacity":
			if err := capacityTable(w); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	return nil
}

// capacityTable prints the §1 back-of-envelope numbers that motivate the
// publish-subscribe model: raw and reduced stream bandwidth, the per-
// display rendering budget, and the all-to-all bandwidth demand that makes
// three-site full-mesh collaboration infeasible.
func capacityTable(w io.Writer) error {
	p := stream.DefaultProfile()
	rawMbps := float64(stream.RawStreamBps) / 1e6
	redMbps := p.Bps() / 1e6
	fmt.Fprintf(w, "# Capacity table (paper §1)\n")
	fmt.Fprintf(w, "raw 3D stream (640x480x15fps x 5B/px)   %8.1f Mbps\n", rawMbps)
	fmt.Fprintf(w, "reduced stream (paper pipeline)          %8.1f Mbps\n", redMbps)
	fmt.Fprintf(w, "render cost per stream                       10.0 ms\n")
	fmt.Fprintf(w, "render budget per display @15fps             66.7 ms -> max 6 streams\n")
	for _, n := range []int{2, 3, 4} {
		// All-to-all: each site sends its ~10 streams to N-1 others.
		const streamsPerSite = 10
		demand := float64((n-1)*streamsPerSite) * redMbps
		fmt.Fprintf(w, "all-to-all egress per site, N=%d, 10 streams/site: %7.1f Mbps (Internet2 sites measured 40-150 Mbps)\n", n, demand)
	}
	fmt.Fprintln(w)
	return nil
}
