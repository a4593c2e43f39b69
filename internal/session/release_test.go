package session

// release_test.go pins what a live run owes at any length: every
// display feed is drained, so the run holds no delivered frame, reports
// no drop the plane never made, and leaves no goroutine behind.

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// countingFabric wraps a fabric and counts, per host, the frame
// messages read off the connections that host's listener accepted: the
// frames each RP received on its peer links. It keeps no bytes.
type countingFabric struct {
	transport.Fabric
	mu     sync.Mutex
	frames map[string]*atomic.Int64
}

func (f *countingFabric) Host(name string) transport.Network {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frames[name] == nil {
		f.frames[name] = new(atomic.Int64)
	}
	return countingNetwork{Network: f.Fabric.Host(name), frames: f.frames[name]}
}

// counts returns the total frames read and the most any one host read.
func (f *countingFabric) counts() (total, busiest int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.frames {
		total += c.Load()
		busiest = max(busiest, c.Load())
	}
	return total, busiest
}

type countingNetwork struct {
	transport.Network
	frames *atomic.Int64
}

func (n countingNetwork) Listen(addr string) (net.Listener, error) {
	ln, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, frames: n.frames}, nil
}

type countingListener struct {
	net.Listener
	frames *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, frames: l.frames}, nil
}

// countingConn walks the wire framing of everything read through it —
// each message is a 4-byte big-endian length covering the type byte and
// the payload, then the type byte — and counts the MsgFrame messages.
type countingConn struct {
	net.Conn
	frames *atomic.Int64
	hdr    [5]byte
	have   int // bytes of the current message's prefix seen
	skip   int // bytes of the current message's payload still to pass
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	for p := b[:n]; len(p) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(p))
			c.skip, p = c.skip-k, p[k:]
			continue
		}
		k := copy(c.hdr[c.have:], p)
		c.have, p = c.have+k, p[k:]
		if c.have == len(c.hdr) {
			if transport.MsgType(c.hdr[4]) == transport.MsgFrame {
				c.frames.Add(1)
			}
			c.skip, c.have = int(binary.BigEndian.Uint32(c.hdr[:4]))-1, 0
		}
	}
	return n, err
}

// peakLiveHeap samples the live heap — HeapAlloc right after a forced
// collection — every 100 ms until stop is closed, and returns the peak.
func peakLiveHeap(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}()
	return out
}

// TestLiveRunReleasesDeliveredFrames runs one small session at a high
// frame rate, so that its busiest site receives more frames than an
// 8,192-slot display queue would hold, and requires what a live run
// owes at any length: no display drop, every gain the simulator delivers
// delivered, a frame ledger in which Frames + Dropped is exactly the
// frames the RPs read and accepted, and a live heap that does not grow
// when the run is twice as long.
func TestLiveRunReleasesDeliveredFrames(t *testing.T) {
	spec := Spec{N: 4, CamerasPerSite: 5, DisplaysPerSite: 1, Algorithm: overlay.RJ{}, Seed: 21}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	profile := stream.Profile{Width: 16, Height: 12, FPS: 500, CompressionRatio: 10}

	// Both runs replay one trace over their common first 1.5 s, so the
	// longer run differs only in frames: churn that opens peer links
	// cannot pass for retained frames, and every gain has time to
	// deliver in both planes.
	const shortMs, longMs = 2000, 4000
	trace, err := s.ChurnTrace(workload.ChurnProfile{RatePerSec: 8, ViewChangeMix: 0.7},
		shortMs-500, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	// run plays durationMs of the session and returns the live result,
	// the simulator's, the fabric's frame counts and the run's peak live
	// heap.
	run := func(durationMs float64) (live *LiveResult, pred *sim.EventResult, fab *countingFabric, heap uint64) {
		t.Helper()
		cfg := LiveConfig{Profile: profile, DurationMs: durationMs, Algorithm: overlay.RJ{}, Seed: spec.Seed}
		var err error
		if pred, err = s.SimPrediction(cfg, trace); err != nil {
			t.Fatal(err)
		}
		fab = &countingFabric{
			Fabric: transport.NewVirtualNetwork(transport.VirtualConfig{
				Seed:  spec.Seed,
				Links: transport.TenantSiteLinks([][][]float64{s.Sites.Cost}),
			}),
			frames: make(map[string]*atomic.Int64),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stop := make(chan struct{})
		peak := peakLiveHeap(stop)
		live, err = s.runLive(ctx, cfg, fab, trace)
		close(stop)
		heap = <-peak
		if err != nil {
			t.Fatal(err)
		}
		return live, pred, fab, heap
	}

	live, pred, fab, longHeap := run(longMs)
	read, busiest := fab.counts()
	if busiest <= 8192 {
		t.Fatalf("busiest site read %d frames; the run must overflow an 8,192-frame queue", busiest)
	}
	if live.TotalDropped != 0 {
		t.Errorf("%d frames dropped at display queues that are drained", live.TotalDropped)
	}
	if live.DeliveredGained != pred.DeliveredGained || live.UndeliveredGained != 0 {
		t.Errorf("live delivered %d gains (%d undelivered), sim %d",
			live.DeliveredGained, live.UndeliveredGained, pred.DeliveredGained)
	}
	if pred.DeliveredGained == 0 {
		t.Error("the trace gained nothing; pick a churn seed that does")
	}
	accepted := int(read) - live.TotalStale - live.TotalDuplicates
	if live.TotalFrames+live.TotalDropped != accepted {
		t.Errorf("Frames %d + Dropped %d = %d, want the %d frames accepted (%d read, %d stale, %d duplicate)",
			live.TotalFrames, live.TotalDropped, live.TotalFrames+live.TotalDropped,
			accepted, read, live.TotalStale, live.TotalDuplicates)
	}
	t.Logf("%d ms: %d frames read (busiest site %d), %d delivered; gains %d live, %d sim; peak live heap %d B",
		longMs, read, busiest, live.TotalFrames, live.DeliveredGained, pred.DeliveredGained, longHeap)

	if raceEnabled {
		return // race instrumentation dominates the heap; the comparison means nothing there
	}
	_, _, _, shortHeap := run(shortMs)
	t.Logf("%d ms: peak live heap %d B", shortMs, shortHeap)
	if float64(longHeap) > 1.2*float64(shortHeap) {
		t.Errorf("peak live heap %d B over %d ms, %d B over %d ms: it grows with the run",
			longHeap, longMs, shortHeap, shortMs)
	}
}

// TestRunClusterLeavesNoGoroutines runs a steady-churn cluster, then a
// chaos run whose crashed site rejoins — a node built mid-run, with its
// own display drain — and requires the goroutine count to return to its
// starting value after each.
func TestRunClusterLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, sc := range []struct{ scenario, chaos string }{
		{ScenarioSteadyChurn, ""},
		{ScenarioChaos, "300:rp-crash:rand;700:rp-rejoin:last"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err := RunCluster(ctx, ClusterConfig{
			Spec: ClusterSpec{Spec: Spec{
				N: 8, CamerasPerSite: 2, DisplaysPerSite: 1,
				Algorithm: overlay.RJ{}, Seed: 23,
			}},
			Profile:       stream.Profile{Width: 32, Height: 24, FPS: 15, CompressionRatio: 8},
			DurationMs:    1200,
			Scenario:      sc.scenario,
			Churn:         workload.ChurnProfile{RatePerSec: 4, ViewChangeMix: 0.7},
			ChaosSchedule: sc.chaos,
		})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", sc.scenario, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after the run, %d before:\n%s",
				sc.scenario, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}
