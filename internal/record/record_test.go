package record

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sentinelRecord fills every field with a distinct non-zero value via
// reflection, so a CSVRow entry bound to the wrong field cannot go
// unnoticed. String fields get "s<i>", numeric fields get i (the field
// index offset by one so nothing is zero).
func sentinelRecord(t *testing.T) Record {
	t.Helper()
	var r Record
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) + 0.5)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i+1))
		default:
			t.Fatalf("field %s has unhandled kind %s — extend the round-trip test", v.Type().Field(i).Name, f.Kind())
		}
	}
	return r
}

// jsonTags returns the Record struct's json column names in field order.
func jsonTags(t *testing.T) []string {
	t.Helper()
	var tags []string
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			t.Fatalf("field %s has no usable json tag", rt.Field(i).Name)
		}
		tags = append(tags, tag)
	}
	return tags
}

// TestSchemaRoundTrip pins the schema three ways: the CSV header names
// are exactly the struct's json tags in field order (so the CSV and
// JSONL writers can never drift apart), CSVRow emits one value per
// header, and each emitted value round-trips back to the field that
// produced it.
func TestSchemaRoundTrip(t *testing.T) {
	tags := jsonTags(t)
	if !reflect.DeepEqual(tags, CSVHeader) {
		t.Fatalf("CSVHeader diverged from the struct's json tags:\n header: %v\n struct: %v", CSVHeader, tags)
	}

	// The wall-clock columns stay last: determinism checks strip them as
	// one tail.
	wallClock := []string{"construct_ms", "batch_apply_ms", "route_rebuild_ms", "heap_delta_bytes", "elapsed_ms"}
	if tail := CSVHeader[len(CSVHeader)-len(wallClock):]; !reflect.DeepEqual(tail, wallClock) {
		t.Errorf("CSV tail %v, want the wall-clock columns %v", tail, wallClock)
	}

	r := sentinelRecord(t)
	row := r.CSVRow()
	if len(row) != len(CSVHeader) {
		t.Fatalf("CSVRow emits %d values for %d header columns", len(row), len(CSVHeader))
	}

	v := reflect.ValueOf(r)
	for i, cell := range row {
		f := v.Field(i)
		name := CSVHeader[i]
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			got, err := strconv.ParseInt(cell, 10, 64)
			if err != nil || got != f.Int() {
				t.Errorf("column %s: CSV cell %q does not round-trip int %d (%v)", name, cell, f.Int(), err)
			}
		case reflect.Float64:
			got, err := strconv.ParseFloat(cell, 64)
			if err != nil || got != f.Float() {
				t.Errorf("column %s: CSV cell %q does not round-trip float %v (%v)", name, cell, f.Float(), err)
			}
		case reflect.String:
			if cell != f.String() {
				t.Errorf("column %s: CSV cell %q does not match string %q", name, cell, f.String())
			}
		}
	}
}

// TestSinkColumnsAgree writes one sentinel record through a real Sink
// and checks the CSV and JSONL outputs carry the same values under the
// same column names — the writer-level half of the round trip.
func TestSinkColumnsAgree(t *testing.T) {
	var out bytes.Buffer
	s, err := NewSink("-", "-", &out)
	if err != nil {
		t.Fatal(err)
	}
	r := sentinelRecord(t)
	if err := s.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink emitted %d lines, want header+row+jsonl", len(lines))
	}
	cr := csv.NewReader(strings.NewReader(lines[0] + "\n" + lines[1] + "\n"))
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &fromJSON); err != nil {
		t.Fatal(err)
	}

	for i, name := range rows[0] {
		jv, ok := fromJSON[name]
		if !ok {
			t.Errorf("column %s present in CSV but missing from JSONL", name)
			continue
		}
		csvCell := rows[1][i]
		switch jv := jv.(type) {
		case string:
			if csvCell != jv {
				t.Errorf("column %s: CSV %q vs JSONL %q", name, csvCell, jv)
			}
		case float64:
			got, err := strconv.ParseFloat(csvCell, 64)
			if err != nil || got != jv {
				t.Errorf("column %s: CSV %q vs JSONL %v", name, csvCell, jv)
			}
		default:
			t.Errorf("column %s: unhandled JSONL type %T", name, jv)
		}
	}
	// Per-tenant, chaos and frame-ledger columns must be present by
	// name: the smoke jobs grep for them in JSONL output.
	for _, name := range []string{
		"tenant", "slo_class", "admitted", "rejections",
		"chaos_schedule", "chaos_events", "chaos_recovery_ms", "retries",
		"frames_delivered", "frames_dropped", "frames_stale", "frames_duplicate",
	} {
		if _, ok := fromJSON[name]; !ok {
			t.Errorf("column %s missing from JSONL output", name)
		}
	}
}
