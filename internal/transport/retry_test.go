package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffDelayDeterministic pins that the same Backoff value always
// yields the same jittered schedule — chaos runs must be reproducible —
// and that the schedule is the package's exponential, capped one.
func TestBackoffDelayDeterministic(t *testing.T) {
	b := Backoff{Seed: 42}
	// The unjittered schedule: 25 ms doubling per attempt, capped at 1 s.
	want := DefaultBackoffBase
	for attempt := 0; attempt < 10; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		lo := time.Duration(float64(want) * (1 - DefaultBackoffJitter))
		hi := time.Duration(float64(want) * (1 + DefaultBackoffJitter))
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside the ±20%% band [%v, %v] around %v", attempt, d1, lo, hi, want)
		}
		want = min(2*want, DefaultBackoffMax)
	}
	if want != DefaultBackoffMax {
		t.Fatalf("schedule never reached the %v cap", DefaultBackoffMax)
	}
}

// TestDefaultBackoffHorizon pins the figure the package doc states: the
// default policy sleeps 25+50+100+200+400+800+1000 ms = 2.575 s between
// its 8 attempts, ±20% jitter, whatever the seed.
func TestDefaultBackoffHorizon(t *testing.T) {
	const horizon = 2575 * time.Millisecond
	lo := time.Duration(float64(horizon) * (1 - DefaultBackoffJitter))
	hi := time.Duration(float64(horizon) * (1 + DefaultBackoffJitter))
	for seed := int64(1); seed <= 1000; seed++ {
		b := Backoff{Seed: seed}
		var total time.Duration
		for attempt := 0; attempt < DefaultBackoffAttempts-1; attempt++ {
			total += b.Delay(attempt)
		}
		if total < lo || total > hi {
			t.Fatalf("seed %d: %d attempts sleep %v, outside [%v, %v]", seed, DefaultBackoffAttempts, total, lo, hi)
		}
	}
}

// TestBackoffDifferentSeedsDecorrelate checks the jitter actually varies
// with the seed — retry herds after a shard kill must spread out.
func TestBackoffDifferentSeedsDecorrelate(t *testing.T) {
	a := Backoff{Seed: 1}
	b := Backoff{Seed: 2}
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if a.Delay(attempt) == b.Delay(attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two seeds produced identical 8-delay schedules; jitter is not seeded")
	}
}

// flakyNetwork fails the first n dials, then succeeds over a loopback
// in-memory pipe.
type flakyNetwork struct {
	failures int32
	dials    atomic.Int32
}

func (f *flakyNetwork) Listen(string) (net.Listener, error) { return nil, errors.New("not used") }
func (f *flakyNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if f.dials.Add(1) <= f.failures {
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
	c, s := net.Pipe()
	go func() { <-ctx.Done(); s.Close() }()
	return c, nil
}

// TestDialWithRetryRecoversAndCounts pins that transient dial failures
// are retried under the policy and that exactly the retries (not the
// first attempt) land in the shared stats counter.
func TestDialWithRetryRecoversAndCounts(t *testing.T) {
	nw := &flakyNetwork{failures: 3}
	var stats RetryStats
	conn, err := DialWithRetry(context.Background(), nw, "x", Backoff{}, &stats)
	if err != nil {
		t.Fatalf("DialWithRetry: %v", err)
	}
	conn.Close()
	if got := nw.dials.Load(); got != 4 {
		t.Fatalf("dials = %d, want 4 (3 failures + 1 success)", got)
	}
	if got := stats.Total(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

// TestDialWithRetryExhausts pins the cap: a permanently dead address
// fails after exactly Attempts dials with a wrapped error.
func TestDialWithRetryExhausts(t *testing.T) {
	nw := &flakyNetwork{failures: 1 << 30}
	_, err := DialWithRetry(context.Background(), nw, "x", Backoff{Attempts: 3}, nil)
	if err == nil {
		t.Fatal("DialWithRetry succeeded against a dead network")
	}
	if !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Fatalf("error %q does not carry the attempt count", err)
	}
	if got := nw.dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want exactly Attempts=3", got)
	}
}

// TestDialWithRetrySingleAttempt pins that Attempts < 0 degrades to a
// plain one-shot dial returning the unwrapped error — the mode failover
// uses to probe each directory address quickly.
func TestDialWithRetrySingleAttempt(t *testing.T) {
	nw := &flakyNetwork{failures: 1 << 30}
	_, err := DialWithRetry(context.Background(), nw, "x", Backoff{Attempts: -1}, nil)
	if err == nil {
		t.Fatal("single-attempt dial succeeded against a dead network")
	}
	if strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("single-attempt error %q should not be wrapped", err)
	}
	if got := nw.dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// TestDialWithRetryHonoursContext pins that cancellation interrupts the
// backoff sleep promptly instead of draining the whole schedule: the
// deadline lands in the third sleep of a schedule ~2.6 s long.
func TestDialWithRetryHonoursContext(t *testing.T) {
	nw := &flakyNetwork{failures: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DialWithRetry(ctx, nw, "x", Backoff{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled dial took %v; backoff sleep ignored the context", elapsed)
	}
}

// TestNoBareDialOutsideTransport is the production dial guard: every
// dial in non-test code outside this package must go through
// transport.DialWithRetry, so no control- or data-plane path is a
// one-shot attempt. The scan allows ".DialContext(" only in this
// package (the Network implementations and the retry helper itself).
func TestNoBareDialOutsideTransport(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	var offenders []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(rel, filepath.Join("internal", "transport")+string(filepath.Separator)) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, ".DialContext(") || strings.Contains(line, "net.Dial(") {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("bare one-shot dials outside internal/transport (use transport.DialWithRetry):\n  %s",
			strings.Join(offenders, "\n  "))
	}
}
