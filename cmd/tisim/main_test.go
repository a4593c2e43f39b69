package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.fig != "all" || o.samples != 200 || o.seed != 1 || o.parallel != 0 || o.csv || o.churn {
		t.Errorf("defaults = %+v", o)
	}
	if o.churnRate != 4 || o.churnMix != 0.7 {
		t.Errorf("churn defaults = %+v", o)
	}
}

func TestParseFlagsCustom(t *testing.T) {
	o, err := parseFlags([]string{
		"-fig", "9", "-samples", "25", "-seed", "7", "-parallel", "3", "-csv",
		"-churn", "-churnrate", "2.5", "-churnmix", "0.4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{fig: "9", samples: 25, seed: 7, parallel: 3, csv: true,
		churn: true, churnRate: 2.5, churnMix: 0.4, liveN: 4, liveMs: 2000}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
}

func TestParseFlagsLive(t *testing.T) {
	o, err := parseFlags([]string{"-churn", "-live", "-liven", "6", "-livems", "900"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.live || o.liveN != 6 || o.liveMs != 900 {
		t.Errorf("live options = %+v", o)
	}
	// -live is a churn mode; bare -live is a usage error, as are
	// degenerate session parameters.
	for _, args := range [][]string{
		{"-live"},
		{"-churn", "-live", "-liven", "1"},
		{"-churn", "-live", "-livems", "0"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseFlagsErrors(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"-samples", "abc"},
		{"-samples", "0"},
		{"positional"},
		{"-fig", "9", "leftover"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseFlagsHelpPrintsUsage(t *testing.T) {
	var usage bytes.Buffer
	_, err := parseFlags([]string{"-h"}, &usage)
	if err != flag.ErrHelp {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	for _, want := range []string{"-fig", "-churn", "-churnrate", "-churnmix", "-parallel"} {
		if !strings.Contains(usage.String(), want) {
			t.Errorf("usage missing %s:\n%s", want, usage.String())
		}
	}
}

func TestRunCapacityTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{fig: "capacity", samples: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Capacity table", "raw 3D stream", "all-to-all egress"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{fig: "42", samples: 1}); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestRunFigureDeterministicAcrossParallelism is the -parallel smoke: the
// same figure at the same seed renders byte-identical output at worker
// counts 1 and 8.
func TestRunFigureDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		var buf bytes.Buffer
		if err := run(&buf, options{fig: "8a", samples: 3, seed: 5, parallel: parallel, csv: true}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("figure output diverges across -parallel:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "RJ") {
		t.Errorf("figure output missing RJ series:\n%s", serial)
	}
}

func TestRunChurnMode(t *testing.T) {
	var buf bytes.Buffer
	opts := options{samples: 3, seed: 2, parallel: 2, churn: true, churnRate: 5, churnMix: 0.7}
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Churn: disruption latency", "mean disruption (ms)", "final rejection ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}

	// The churn sweep is deterministic across -parallel too.
	var second bytes.Buffer
	opts.parallel = 7
	if err := run(&second, opts); err != nil {
		t.Fatal(err)
	}
	if second.String() != out {
		t.Errorf("churn output diverges across -parallel:\n%s\nvs\n%s", out, second.String())
	}
}

func TestRunChurnBadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{samples: 1, churn: true, churnRate: 0, churnMix: 0.5}); err == nil {
		t.Error("zero churn rate accepted")
	}
}

// TestRunLive drives -churn -live end to end: one seeded churn trace
// replayed over TCP loopback next to its sim prediction. It asserts the
// report's shape (header, one row per trace event, summary lines), not
// wall-clock figures.
func TestRunLive(t *testing.T) {
	opts, err := parseFlags([]string{"-churn", "-live", "-liven", "3", "-livems", "1000", "-churnrate", "6"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	var sites, events int
	var ms float64
	if _, err := fmt.Sscanf(lines[0], "# Live churn: %d sites, %d events over %fms", &sites, &events, &ms); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	if sites != 3 || ms != 1000 || events == 0 {
		t.Fatalf("header %q: want 3 sites, a non-empty trace over 1000ms", lines[0])
	}
	if !strings.HasPrefix(strings.TrimSpace(lines[1]), "event") {
		t.Fatalf("column header %q", lines[1])
	}
	if len(lines) < 2+events+4 {
		t.Fatalf("%d lines for %d events:\n%s", len(lines), events, buf.String())
	}
	for i := 0; i < events; i++ {
		var idx int
		if _, err := fmt.Sscanf(lines[2+i], "%d", &idx); err != nil || idx != i {
			t.Fatalf("row %d is %q", i, lines[2+i])
		}
	}
	rest := lines[2+events:]
	if rest[0] != "" || !strings.HasPrefix(rest[1], "mean disruption: live ") ||
		!strings.HasPrefix(rest[2], "frames delivered live: ") || rest[3] != "" {
		t.Fatalf("summary after %d rows:\n%s", events, strings.Join(rest, "\n"))
	}
}
