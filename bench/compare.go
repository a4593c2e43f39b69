package main

// compare.go is -compare: two result files (sets of passes of one seed)
// judged metric by metric against the bounds fixed in this benchmark. It
// is how "two sets of one commit agree" is checked and how a later change
// shows it made nothing worse.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) pair.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// comparison is the judged difference between two samples of one metric.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// delta is how much worse B's median is than A's, as a share of A's
	// (negative when better); spread the wider of the two interquartile
	// ranges on the same scale.
	delta, spread float64
	verdict       string
}

// judge compares runs b against runs a. A difference counts only beyond
// the bound; where the run-to-run spread is itself wider than the bound
// the pair is unresolved, unless every run of one side beats every run of
// the other.
func judge(a, b []float64, better string, bound float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	scale := math.Abs(c.medA)
	if scale == 0 {
		scale = 1
	}
	c.delta = (c.medB - c.medA) / scale
	if better == "higher" {
		c.delta = -c.delta
	}
	c.spread = math.Max(c.q3A-c.q1A, c.q3B-c.q1B) / scale
	switch {
	case c.spread > bound && !separable(a, b):
		c.verdict = verdictUnresolved
	case c.delta > bound:
		c.verdict = verdictWorse
	case c.delta < -bound:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictSame
	}
	return c
}

// separable reports whether every value of one sample lies strictly on
// one side of every value of the other.
func separable(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Passes) == 0 {
		return nil, fmt.Errorf("%s: no passes", path)
	}
	return &f, nil
}

// sample gathers one workload's untraced results across a file's passes.
type sample struct {
	values            map[string][]float64
	attempted, failed int64
	inputs            map[string]bool // distinct digest+counts renderings
}

func (f *resultsFile) sample(workload string) *sample {
	s := &sample{values: make(map[string][]float64), inputs: make(map[string]bool)}
	for _, p := range f.Passes {
		for _, r := range p.Untraced {
			if r.Workload != workload {
				continue
			}
			s.attempted += max(1, r.Attempted)
			s.failed += r.Failed
			if r.Error != "" {
				continue
			}
			for name, v := range r.Metrics {
				s.values[name] = append(s.values[name], v)
			}
			s.inputs[fmt.Sprint(r.Digest, r.Counts)] = true
		}
	}
	return s
}

func (s *sample) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// compareFiles prints the verdict table and returns 1 if anything is
// worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *resultsFile, w io.Writer) int {
	fmt.Fprintf(w, "A: commit %s seed %d, %d passes; B: commit %s seed %d, %d passes\n",
		a.Env.Commit, a.Env.Seed, len(a.Passes), b.Env.Commit, b.Env.Seed, len(b.Passes))
	fmt.Fprintf(w, "%-14s %-22s %-6s %14s %14s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "better", "A median", "A q1..q3", "B median", "B q1..q3", "worse%", "spread%", "bound%", "verdict")
	tally := make(map[string]int)
	for _, wl := range workloads {
		sa, sb := a.sample(wl.name), b.sample(wl.name)
		if sa.attempted == 0 || sb.attempted == 0 {
			continue
		}
		for _, m := range endToEnd {
			va, vb := sa.values[m.name], sb.values[m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(va, vb, m.better, m.bound)
			tally[c.verdict]++
			fmt.Fprintf(w, "%-14s %-22s %-6s %14.4f %14s %14.4f %14s %8.2f %8.2f %6.0f  %s\n",
				wl.name, m.name, m.better, c.medA, fmt.Sprintf("%.4g..%.4g", c.q1A, c.q3A),
				c.medB, fmt.Sprintf("%.4g..%.4g", c.q1B, c.q3B), 100*c.delta, 100*c.spread, 100*m.bound, c.verdict)
		}
		v := verdictSame
		switch fa, fb := sa.failedShare(), sb.failedShare(); {
		case fb > fa:
			v = verdictWorse
		case fb < fa:
			v = verdictBetter
		}
		tally[v]++
		fmt.Fprintf(w, "%-14s %-22s %-6s %14.6f %14s %14.6f %14s %8s %8s %6s  %s\n",
			wl.name, "failed/attempted", "lower", sa.failedShare(), "", sb.failedShare(), "", "", "", "", v)
		if a.Env.Seed == b.Env.Seed && a.Env.Seconds == b.Env.Seconds {
			// One seed, one scale: inputs and exactly repeating counts
			// must be one and the same across every pass of both files.
			for k := range sb.inputs {
				sa.inputs[k] = true
			}
			if len(sa.inputs) > 1 {
				tally[verdictWorse]++
				fmt.Fprintf(w, "%-14s %-22s inputs or exact counts differ between passes: worse\n", wl.name, "inputs")
			}
		}
	}
	fmt.Fprintf(w, "verdicts: %d same, %d better, %d worse, %d unresolved\n",
		tally[verdictSame], tally[verdictBetter], tally[verdictWorse], tally[verdictUnresolved])
	if tally[verdictWorse] > 0 {
		return 1
	}
	return 0
}
