package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutput pins the example's report: it is deterministic in the
// built-in seed, so any change to placement, workload or construction
// shows as a diff against testdata/output.txt.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/output.txt:\n%s", got.Bytes())
	}
}
