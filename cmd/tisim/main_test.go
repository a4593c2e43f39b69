package main

import (
	"bytes"
	"flag"
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
		churn: true, churnRate: 2.5, churnMix: 0.4}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"-samples", "abc"},
		{"-samples", "0"},
		{"positional"},
		{"-fig", "9", "leftover"},
		{"-churn", "-live"},
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
