package transport

// retry.go is the one shared retry/backoff policy for every production
// dial in the networked plane. RP registration, control-plane failover
// redial and peer-link (re)connection all go through DialWithRetry, so a
// transient fault — a restarted membership shard whose successor has not
// yet re-bound its address, a peer RP riding out a crash/rejoin window,
// a storm-degraded control link — is ridden out with bounded, jittered
// exponential backoff instead of failing the session on the first
// refused connection. A test in retry_test.go pins that no production
// package dials around this helper.

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Default backoff parameters. The default 8 attempts sleep 7 times, on
// the schedule 25, 50, 100, 200, 400, 800, 1000 ms (±20% jitter), for
// 2.575s ± 20% in all (TestDefaultBackoffHorizon): long enough to ride out an RP crash/rejoin window or a
// membership restart, short enough that a permanently dead peer surfaces
// as an error while the session is still watching.
const (
	// DefaultBackoffBase is the delay before the first retry.
	DefaultBackoffBase = 25 * time.Millisecond
	// DefaultBackoffMax caps the exponential growth of the delay.
	DefaultBackoffMax = time.Second
	// DefaultBackoffAttempts is the total number of dial attempts
	// (the first try plus retries).
	DefaultBackoffAttempts = 8
	// DefaultBackoffJitter is the ± fraction of each delay drawn as
	// jitter, decorrelating retry herds after a shard kill.
	DefaultBackoffJitter = 0.2
)

// Backoff is the capped, jittered exponential backoff policy: delays
// start at DefaultBackoffBase, double per attempt up to
// DefaultBackoffMax, and carry ±DefaultBackoffJitter of seeded jitter.
// The zero value is the package default.
type Backoff struct {
	// Attempts is the total number of tries. 0 means
	// DefaultBackoffAttempts; negative means a single attempt.
	Attempts int
	// Seed drives the jitter draws deterministically. 0 means 1.
	Seed int64
}

// attempts resolves the policy's attempt budget.
func (b Backoff) attempts() int {
	switch {
	case b.Attempts == 0:
		return DefaultBackoffAttempts
	case b.Attempts < 0:
		return 1
	}
	return b.Attempts
}

// Delay returns the backoff delay after failed attempt number `attempt`
// (0-based): DefaultBackoffBase doubled per attempt, capped at
// DefaultBackoffMax, with the jitter drawn deterministically from Seed
// and the attempt number — the same Backoff value always produces the
// same schedule.
func (b Backoff) Delay(attempt int) time.Duration {
	d := DefaultBackoffBase
	for i := 0; i < attempt && d < DefaultBackoffMax; i++ {
		d *= 2
	}
	d = min(d, DefaultBackoffMax)
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	rng := prng(seed+int64(attempt))*2 + 1
	frac := rng.float64()*2 - 1 // uniform in [-1, 1)
	return d + time.Duration(frac*DefaultBackoffJitter*float64(d))
}

// Sleep blocks for the backoff delay after failed attempt `attempt`,
// returning early with the context's error if it is cancelled first.
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryStats counts retries (not first attempts) across any number of
// concurrent DialWithRetry calls; the live session aggregates one shared
// counter across all its nodes into the record schema's retries column.
// The zero value is ready to use; nil receivers are safe no-ops.
type RetryStats struct {
	retries atomic.Int64
}

// Add records n retries.
func (s *RetryStats) Add(n int64) {
	if s != nil {
		s.retries.Add(n)
	}
}

// Total returns the number of retries recorded so far.
func (s *RetryStats) Total() int64 {
	if s == nil {
		return 0
	}
	return s.retries.Load()
}

// DialWithRetry dials addr through the network, retrying refused or
// failed dials under the backoff policy until an attempt succeeds, the
// policy's attempts are exhausted (the last error is returned, wrapped
// with the attempt count), or the context is cancelled. Each retry —
// never the first attempt — is counted into stats (nil is allowed).
func DialWithRetry(ctx context.Context, nw Network, addr string, b Backoff, stats *RetryStats) (net.Conn, error) {
	attempts := b.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := b.Sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
			stats.Add(1)
		}
		conn, err := nw.DialContext(ctx, addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
	}
	if attempts == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("dial %s: %d attempts exhausted: %w", addr, attempts, lastErr)
}
