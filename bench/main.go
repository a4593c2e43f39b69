// Command bench (tibench) is the repository's system benchmark: six
// workloads over the live stack and the Monte-Carlo engine, driven only
// through public functions, every output checked, every metric printed by
// name and unit. See README.md in this directory.
//
//	go run ./bench                      one untraced pass of all six workloads
//	go run ./bench -trace               an untraced pass, then a traced one (per-layer ladder)
//	go run ./bench -workload NAME       one workload; the last stdout line is the result object
//	go run ./bench -passes 3 -out A.json
//	go run ./bench -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// nominalSeconds is the -seconds value the workload sizes in the README
// are stated for; other values scale the measured work linearly.
const nominalSeconds = 15

// workloadTimeout bounds one workload at the nominal scale; a child that
// overruns is killed and reported as failed instead of hanging the pass.
const workloadTimeout = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	passes   int
	compare  bool
	child    bool
}

// splitBoolValue rewrites "-trace 1" (how the benchmark driver passes it)
// into "-trace=1": the flag package does not take a boolean's value from
// the next argument.
func splitBoolValue(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; every workload's inputs are a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", nominalSeconds, "work scale: the measured work is sized for about this many seconds per workload on the reference box")
	fs.BoolVar(&o.trace, "trace", false, "after the untraced run, repeat each workload traced and report the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the passes as JSON to this file")
	fs.IntVar(&o.passes, "passes", 1, "number of passes (a set is 3)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments; exit 1 on any worse verdict")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result")
	if err := fs.Parse(splitBoolValue(args, "trace")); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds <= 0 || o.passes < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -passes must be positive")
		return 2
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// childResult is what a child process prints on stdout: one workload's
// outcome, traced or not.
type childResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []check            `json:"checks"`
	Digest    string             `json:"input_digest"`
	Counts    map[string]int64   `json:"counts"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// runChild executes one workload in this process. GOMAXPROCS is pinned so
// timings do not depend on how many cores the box happens to have beyond
// four.
func runChild(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	wl, _ := workloadByName(o.workload)
	cfg := runCfg{seed: o.seed, scale: o.seconds / nominalSeconds}
	if o.trace {
		cfg.tr = newTracer()
	}
	res := childResult{Workload: wl.name, Traced: o.trace}
	w, err := wl.run(context.Background(), cfg)
	if err == nil && o.trace {
		err = checkSpans(cfg.tr.spans)
	}
	if err != nil {
		res.Error = err.Error()
		res.Attempted, res.Failed = 1, 1
	} else {
		res.Correct = w.correct()
		res.Attempted, res.Failed = w.attempted, w.failed
		res.Checks, res.Digest, res.Counts = w.checks, w.digest, w.counts
		res.WallS = w.overheadWallS()
		res.Metrics = endToEndMetrics(w)
		res.Layers = w.layers
	}
	if err == nil && o.trace {
		res.SelfMs = make(map[string]float64)
		for name, d := range selfTimes(cfg.tr.spans) {
			res.SelfMs[name] = float64(d) / float64(time.Millisecond)
		}
		if res.TraceFile, err = cfg.tr.write("bench/out", wl.name); err != nil {
			res.Error, res.Correct = "write spans: "+err.Error(), false
		}
	}
	if err := json.NewEncoder(stdout).Encode(&res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.Error != "" || !res.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process, so heap, GC state and
// ru_maxrss are the workload's own. A child that fails or overruns still
// yields a result — marked incorrect.
func spawn(o options, name string, traced bool, stderr io.Writer) childResult {
	failed := func(msg string) childResult {
		return childResult{Workload: name, Traced: traced, Attempted: 1, Failed: 1, Error: msg}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err.Error())
	}
	timeout := time.Duration(float64(workloadTimeout) * max(1, o.seconds/nominalSeconds))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(traced))
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	if ctx.Err() != nil {
		return failed(fmt.Sprintf("timed out after %v", timeout))
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return failed(fmt.Sprintf("child: %v (output %q)", runErr, truncate(string(out), 200)))
	}
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return failed(runErr.Error())
	}
	return res
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// environment stamps a results file.
type environment struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
	Fabric     string  `json:"fabric"`
}

func stampEnvironment(o options) environment {
	env := environment{
		GoMaxProcs: min(runtime.NumCPU(), 4), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: o.seed, Seconds: o.seconds,
		Fabric: "in-memory transport.VirtualNetwork; no TCP, no kernel sockets",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

// passResult is one pass: every selected workload once, untraced, plus
// the traced repeat when asked for.
type passResult struct {
	Untraced []childResult `json:"untraced"`
	Traced   []childResult `json:"traced,omitempty"`
}

// resultsFile is the -out document. Claim is always null: the benchmark
// reports, it does not claim.
type resultsFile struct {
	Env    environment  `json:"env"`
	Passes []passResult `json:"passes"`
	Claim  *string      `json:"claim"`
}

// passSummary is the last line of a run over all workloads.
type passSummary struct {
	Correct   bool    `json:"correct"`
	Passes    int     `json:"passes"`
	Workloads int     `json:"workloads"`
	Out       string  `json:"out,omitempty"`
	Claim     *string `json:"claim"`
}

func runParent(o options, stdout, stderr io.Writer) int {
	env := stampEnvironment(o)
	fmt.Fprintf(stdout, "tibench: gomaxprocs=%d numcpu=%d %s commit=%s seed=%d seconds=%g loadavg=%.2f\nfabric: %s\n",
		env.GoMaxProcs, env.NumCPU, env.GoVersion, env.Commit, env.Seed, env.Seconds, env.LoadAvg1, env.Fabric)
	selected := workloads
	if o.workload != "" {
		wl, _ := workloadByName(o.workload)
		selected = []workloadSpec{wl}
	}
	file := resultsFile{Env: env}
	ok := true
	for p := 0; p < o.passes; p++ {
		var pass passResult
		for _, wl := range selected {
			res := spawn(o, wl.name, false, stderr)
			printResult(stdout, wl, res, nil)
			ok = ok && res.Correct
			pass.Untraced = append(pass.Untraced, res)
		}
		// The traced pass follows the whole untraced one, so tracing
		// never shares a process or a warm cache with the numbers that
		// count.
		for i, wl := range selected {
			if !o.trace {
				break
			}
			res := spawn(o, wl.name, true, stderr)
			if res.Layers != nil && pass.Untraced[i].WallS > 0 {
				res.Layers["trace.overhead_fraction"] = (res.WallS - pass.Untraced[i].WallS) / pass.Untraced[i].WallS
			}
			printResult(stdout, wl, res, &pass.Untraced[i])
			ok = ok && res.Correct
			pass.Traced = append(pass.Traced, res)
		}
		file.Passes = append(file.Passes, pass)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// One workload ends with the result object the benchmark contract
	// reads; a whole pass ends with a short summary (-out has the rest).
	last := file.Passes[len(file.Passes)-1]
	var line any = passSummary{Correct: ok, Passes: len(file.Passes), Workloads: len(selected), Out: o.out}
	if o.workload != "" {
		if o.trace {
			line = contractLine(last.Traced[0], true)
		} else {
			line = contractLine(last.Untraced[0], false)
		}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// contractValue is one metric in the single-workload result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the object a single-workload run ends with: exactly
// these four keys, the metrics being every end-to-end metric (untraced)
// or every per-layer metric (traced).
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func contractLine(res childResult, traced bool) contractResult {
	out := contractResult{
		Correct: res.Correct, Attempted: max(1, res.Attempted), Failed: res.Failed,
		Metrics: make(map[string]contractValue),
	}
	if traced {
		for _, m := range perLayer {
			// A layer the workload does not exercise reads 0.
			out.Metrics[m.name] = contractValue{Value: res.Layers[m.name], Unit: m.unit}
		}
		return out
	}
	for _, m := range endToEnd {
		out.Metrics[m.name] = contractValue{Value: res.Metrics[m.name], Unit: m.unit}
	}
	return out
}

// printResult writes one workload's block: inputs, checks, then every
// metric by name and unit.
func printResult(w io.Writer, wl workloadSpec, res childResult, untraced *childResult) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) — loop: %s; operation: %s\nwhy: %s\n", wl.name, kind, wl.loop, wl.op, wl.why)
	if res.Error != "" {
		fmt.Fprintf(w, "FAILED: %s\n", res.Error)
		return
	}
	fmt.Fprintf(w, "input: %s\n", res.Digest)
	for _, name := range sortedKeys(res.Counts) {
		fmt.Fprintf(w, "count: %s = %d\n", name, res.Counts[name])
	}
	passed := 0
	for _, c := range res.Checks {
		if c.OK {
			passed++
		} else {
			fmt.Fprintf(w, "CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "checks: %d/%d ok; attempted %d, failed %d\n", passed, len(res.Checks), res.Attempted, res.Failed)
	if !res.Traced {
		for _, m := range endToEnd {
			mark := ""
			if !slices.Contains(m.home, wl.name) {
				mark = "  (over this workload's operation)"
			}
			fmt.Fprintf(w, "  %-24s %14.4f %-6s%s\n", m.name, res.Metrics[m.name], m.unit, mark)
		}
		return
	}
	for _, m := range perLayer {
		if v, ok := res.Layers[m.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	if untraced != nil {
		fmt.Fprintf(w, "  wall: traced %.3f s, untraced %.3f s\n", res.WallS, untraced.WallS)
	}
	fmt.Fprintf(w, "  where the time goes (self time per span name, ms):\n")
	for _, name := range sortedKeys(res.SelfMs) {
		fmt.Fprintf(w, "    %-36s %12.3f\n", name, res.SelfMs[name])
	}
	fmt.Fprintf(w, "  spans: %s\n", res.TraceFile)
}
