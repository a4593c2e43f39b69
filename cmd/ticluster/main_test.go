package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	reclib "github.com/tele3d/tele3d/internal/record"
	"github.com/tele3d/tele3d/internal/session"
)

// TestRunVirtualEndToEnd drives a small virtual cluster through the CLI
// path and checks the summary and the tisweep-schema records.
func TestRunVirtualEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opt := options{
		nodes: 8, cameras: 2, displays: 1,
		algo: "RJ", seed: 21,
		duration: 1200 * time.Millisecond,
		virtual:  true, scenario: session.ScenarioFlashCrowd,
		churnRate: 4, churnMix: 0.7,
		csvPath:   filepath.Join(dir, "cluster.csv"),
		jsonlPath: filepath.Join(dir, "cluster.jsonl"),
	}
	var out, stdout bytes.Buffer
	if err := run(opt, &out, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"virtual cluster, 8 sites", "scenario flash-crowd", "disruption latency", "sim prediction"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("file sinks must not write to stdout, got %q", stdout.String())
	}

	// CSV: the shared tisweep schema, header + one record.
	data, err := os.ReadFile(opt.csvPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("csv has %d rows, want header + 1", len(rows))
	}
	if strings.Join(rows[0], ",") != strings.Join(reclib.CSVHeader, ",") {
		t.Errorf("csv header = %v, want shared schema", rows[0])
	}
	if len(rows[1]) != len(reclib.CSVHeader) {
		t.Fatalf("record has %d columns, want %d", len(rows[1]), len(reclib.CSVHeader))
	}

	// JSONL: one record with the scenario axes filled in.
	f, err := os.Open(opt.jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scanner := bufio.NewScanner(f)
	if !scanner.Scan() {
		t.Fatal("empty jsonl")
	}
	var rec reclib.Record
	if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.N != 8 || rec.Scenario != session.ScenarioFlashCrowd || rec.Algorithm != "RJ" {
		t.Errorf("record axes: %+v", rec)
	}
	if rec.Capacity != "fov" || rec.Popularity != "fov" {
		t.Errorf("record should carry the fov sentinel: %+v", rec)
	}
	if rec.ChurnEvents <= 0 || rec.DisruptionMeanMs <= 0 || rec.DeliveredFraction <= 0 {
		t.Errorf("record missing cluster metrics: %+v", rec)
	}
	if rec.ElapsedMs <= 0 {
		t.Errorf("record missing elapsed time: %+v", rec)
	}
	if rec.FramesDelivered <= 0 || rec.FramesDropped != 0 {
		t.Errorf("record frame ledger: %d delivered, %d dropped; want some delivered, none dropped",
			rec.FramesDelivered, rec.FramesDropped)
	}
	if rec.Tenant != 0 || rec.SLOClass != "" || rec.Admitted != 0 || rec.Rejections != 0 {
		t.Errorf("single-tenant record carries tenant columns: %+v", rec)
	}
	if scanner.Scan() {
		t.Error("more than one jsonl record")
	}
}

// TestRunVirtualStdoutSink checks "-csv -" streams clean records to the
// stdout writer while the human summary stays on the summary writer.
func TestRunVirtualStdoutSink(t *testing.T) {
	opt := options{
		nodes: 4, cameras: 1, displays: 1,
		algo: "RJ", seed: 3,
		duration: 800 * time.Millisecond,
		virtual:  true, scenario: session.ScenarioSteadyChurn,
		churnRate: 4, churnMix: 0.7,
		csvPath: "-",
	}
	var out, stdout bytes.Buffer
	if err := run(opt, &out, &stdout); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatalf("stdout is not clean CSV: %v", err)
	}
	if len(rows) != 2 || strings.Join(rows[0], ",") != strings.Join(reclib.CSVHeader, ",") {
		t.Errorf("stdout rows = %v", rows)
	}
	if strings.Contains(out.String(), rows[0][0]+",") {
		t.Error("records leaked into the summary stream")
	}
}

// TestRunVirtualRejectsBadFlags covers the CLI error paths.
func TestRunVirtualRejectsBadFlags(t *testing.T) {
	var out, stdout bytes.Buffer
	if err := run(options{
		nodes: 4, virtual: true, algo: "nope", scenario: session.ScenarioSteadyChurn,
		cameras: 1, displays: 1, duration: time.Second, churnRate: 2, churnMix: 0.7,
	}, &out, &stdout); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(options{
		nodes: 4, virtual: true, algo: "RJ", scenario: "no-such-scenario",
		cameras: 1, displays: 1, duration: time.Second, churnRate: 2, churnMix: 0.7,
	}, &out, &stdout); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunMultiTenantEndToEnd drives the multi-tenant CLI path: four
// tenants over one fabric with capped uplinks must emit one record per
// tenant carrying the per-tenant columns, with the premium tenant free
// of rejections and at least one besteffort tenant absorbing them.
func TestRunMultiTenantEndToEnd(t *testing.T) {
	dir := t.TempDir()
	opt := options{
		nodes: 40, cameras: 2, displays: 1,
		algo: "RJ", seed: 21,
		duration:  1000 * time.Millisecond,
		virtual:   true,
		churnRate: 4, churnMix: 0.7,
		tenants:   4,
		uplinkCap: 2,
		jsonlPath: filepath.Join(dir, "tenants.jsonl"),
	}
	var out, stdout bytes.Buffer
	if err := run(opt, &out, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"multi-tenant virtual cluster, 4 tenants over 40 sites", "premium-0", "besteffort-1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}

	f, err := os.Open(opt.jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []reclib.Record
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		var rec reclib.Record
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("emitted %d records, want one per tenant", len(recs))
	}
	besteffortRejections := 0
	for i, rec := range recs {
		if rec.Tenant != i || rec.SLOClass == "" {
			t.Errorf("record %d tenant columns: %+v", i, rec)
		}
		switch rec.SLOClass {
		case "premium":
			if rec.Rejections != 0 {
				t.Errorf("premium record carries %d rejections", rec.Rejections)
			}
			if rec.Admitted == 0 {
				t.Errorf("premium record admitted nothing: %+v", rec)
			}
		case "besteffort":
			besteffortRejections += rec.Rejections
		}
	}
	if besteffortRejections == 0 {
		t.Error("capped uplinks produced no besteffort rejections in the records")
	}
}

// TestRunMultiTenantRejectsBadSpec covers the multi-tenant error paths.
func TestRunMultiTenantRejectsBadSpec(t *testing.T) {
	var out, stdout bytes.Buffer
	base := options{
		nodes: 4, virtual: true, algo: "RJ", cameras: 1, displays: 1,
		duration: time.Second, churnRate: 2, churnMix: 0.7,
	}
	bad := base
	bad.tenantSpec = "1xgold:4"
	if err := run(bad, &out, &stdout); err == nil {
		t.Error("unknown SLO class accepted")
	}
	bad = base
	bad.tenants = 9 // 9 tenants cannot fit 4 sites at >= 2 each
	if err := run(bad, &out, &stdout); err == nil {
		t.Error("oversubscribed tenant count accepted")
	}
}

// TestRejectsDroppedFlags pins that no flag is silently ignored:
// multi-tenant runs reject the scenario, chaos and uplink settings they
// cannot honour, and -uplink needs tenants.
func TestRejectsDroppedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-virtual", "-tenants", "2", "-scenario", "partition"}, "scenario"},
		{[]string{"-virtual", "-tenantspec", "2xbesteffort:4", "-chaos", "300:latency-storm:2:100"}, "chaos"},
		{[]string{"-virtual", "-tenants", "2", "-uplink", "-1"}, "uplink"},
		{[]string{"-virtual", "-uplink", "4"}, "-uplink"},
	} {
		opt, err := parseOptions(tc.args, flag.ContinueOnError)
		if err == nil {
			var out, stdout bytes.Buffer
			err = run(opt, &out, &stdout)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want one naming %q", tc.args, err, tc.want)
		}
	}
	// The same flags are accepted where they apply.
	if _, err := parseOptions([]string{"-virtual", "-nodes", "8", "-shards", "2", "-csv", "x.csv"}, flag.ContinueOnError); err != nil {
		t.Errorf("virtual flags rejected with -virtual: %v", err)
	}
}

// TestRunTCP drives the default fabric, loopback TCP, end to end: a
// 4-site session churns, prints the live summary next to the sim
// prediction and writes one JSONL record.
func TestRunTCP(t *testing.T) {
	opt, err := parseOptions([]string{"-cameras", "2", "-displays", "1", "-duration", "1200ms",
		"-churnrate", "4", "-seed", "7", "-jsonl", filepath.Join(t.TempDir(), "tcp.jsonl")}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var out, stdout bytes.Buffer
	if err := run(opt, &out, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loopback TCP cluster, 4 sites", "control events over the wire", "sim prediction", "frames:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(opt.jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("wrote %d records, want 1:\n%s", len(lines), data)
	}
	var rec reclib.Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.N != 4 || rec.ChurnEvents <= 0 || rec.Scenario != session.ScenarioSteadyChurn {
		t.Errorf("record axes: %+v", rec)
	}
}

// TestScenarioNamesMatchLibrary keeps the flag usage string in sync with
// the scenario library.
func TestScenarioNamesMatchLibrary(t *testing.T) {
	names := scenarioNames()
	for _, sc := range session.Scenarios() {
		if !strings.Contains(names, sc.Name) {
			t.Errorf("usage string %q misses scenario %q", names, sc.Name)
		}
	}
}
