package main

// layers.go is the per-layer ladder of a traced run: the list of layer
// metrics, and the isolated timings of single layers' public functions on
// the same generated inputs the workload used. Layers are measured from
// outside; nothing here reaches into a package.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// layerSpec names one per-layer metric and the direction an optimisation
// should move it. A workload reports the layers it exercises; the others
// read 0 in its result line.
type layerSpec struct{ name, unit, better string }

// perLayer is the contract's per_layer list, in BENCHMARK.json order.
var perLayer = []layerSpec{
	{"stream.tick_large_us", "us", "lower"},
	{"stream.tick_small_us", "us", "lower"},
	{"stream.encode_large_ns", "ns", "lower"},
	{"stream.decode_large_ns", "ns", "lower"},
	{"stream.encode_small_ns", "ns", "lower"},
	{"stream.decode_small_ns", "ns", "lower"},
	{"transport.frame_large_rt_us", "us", "lower"},
	{"transport.frame_small_rt_us", "us", "lower"},
	{"transport.frame_large_alloc_bytes", "B", "lower"},
	{"transport.frame_allocs", "count", "lower"},
	{"transport.routes1000_rt_us", "us", "lower"},
	{"transport.routes1000_bytes", "B", "lower"},
	{"transport.resub_rt_us", "us", "lower"},
	{"transport.vpipe_small_chunk_us", "us", "lower"},
	{"transport.vpipe_large_mbps", "MB/s", "higher"},
	{"transport.vpipe_dial_us", "us", "lower"},
	{"rp.publish_tick_us_p50", "us", "lower"},
	{"rp.publish_tick_us_p99", "us", "lower"},
	{"rp.tick_fanout_ms_p50", "ms", "lower"},
	{"rp.hop_unloaded_us_small", "us", "lower"},
	{"rp.hop_unloaded_us_large", "us", "lower"},
	{"rp.tree_depth", "count", "lower"},
	{"rp.relay_nodes", "count", "lower"},
	{"rp.stale", "count", "lower"},
	{"rp.duplicates", "count", "lower"},
	{"rp.dropped", "count", "lower"},
	{"rp.start_ms_p50", "ms", "lower"},
	{"membership.boot_s", "s", "lower"},
	{"membership.construct_ms", "ms", "lower"},
	{"membership.batch_apply_ms_per_resub", "ms", "lower"},
	{"membership.route_rebuild_ms_per_resub", "ms", "lower"},
	{"membership.residual_ms_per_resub", "ms", "lower"},
	{"membership.resubs_per_flush", "count", "higher"},
	{"membership.flushes", "count", "lower"},
	{"overlay.construct_n1000_ms", "ms", "lower"},
	{"overlay.construct_n10_us", "us", "lower"},
	{"overlay.apply_batch_us_per_op", "us", "lower"},
	{"session.build_cluster_s", "s", "lower"},
	{"session.churn_trace_s", "s", "lower"},
	{"session.plan_ms", "ms", "lower"},
	{"sim.prediction_ms", "ms", "lower"},
	{"session.live_minus_sim_ms", "ms", "lower"},
	{"session.frames_delivered", "count", "higher"},
	{"session.delivered_gain_fraction", "ratio", "higher"},
	{"session.retries", "count", "lower"},
	{"experiments.fig8a_serial_ms", "ms", "lower"},
	{"experiments.fig8a_parallel_ms", "ms", "lower"},
	{"experiments.parallel_speedup", "ratio", "higher"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.goroutines_peak", "count", "lower"},
	{"trace.overhead_fraction", "ratio", "lower"},
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// prober runs isolated layer timings under one parent span and files the
// results as layer metrics.
type prober struct {
	tr     *tracer
	parent int32
	layers map[string]float64
}

// per returns the mean duration of n repetitions in the given unit.
func per(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(n) / float64(unit)
}

// stream times frame generation and the binary codec for one
// profile: Rig.Tick per frame, Encode and Decode per call.
func (p prober) stream(prof stream.Profile, size string, seed int64) {
	reps := 200
	if size == "small" {
		reps = 4000
	}
	rig, err := stream.NewRig(0, relayCameras, prof, seed)
	if err != nil {
		return
	}
	var frames []*stream.Frame
	d := p.tr.time(p.parent, "stream.Rig.Tick", func() {
		for i := 0; i < reps; i++ {
			frames = rig.Tick()
		}
	})
	p.layers["stream.tick_"+size+"_us"] = per(d, reps*relayCameras, time.Microsecond)

	f := frames[0]
	var wire []byte
	d = p.tr.time(p.parent, "stream.Encode", func() {
		for i := 0; i < reps; i++ {
			wire, _ = stream.Encode(f)
		}
	})
	p.layers["stream.encode_"+size+"_ns"] = per(d, reps, time.Nanosecond)
	d = p.tr.time(p.parent, "stream.Decode", func() {
		for i := 0; i < reps; i++ {
			_, _, _ = stream.Decode(wire)
		}
	})
	p.layers["stream.decode_"+size+"_ns"] = per(d, reps, time.Nanosecond)
}

// roundTrip writes m into a buffer and reads it back reps times, and
// returns the mean time, wire size, and heap allocated per round trip.
func (p prober) roundTrip(name string, m *transport.Message, reps int) (d time.Duration, wireBytes int, allocs, allocBytes float64, err error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	total := p.tr.time(p.parent, name, func() {
		for i := 0; i < reps && err == nil; i++ {
			buf.Reset()
			if err = transport.WriteMessage(&buf, m); err != nil {
				return
			}
			wireBytes = buf.Len()
			_, err = transport.ReadMessage(&buf)
		}
	})
	runtime.ReadMemStats(&after)
	return total / time.Duration(reps), wireBytes,
		float64(after.Mallocs-before.Mallocs) / float64(reps),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), err
}

// transportFrame times the length-prefixed wire codec on one frame.
func (p prober) transportFrame(prof stream.Profile, size string, seed int64) {
	rig, err := stream.NewRig(0, 1, prof, seed)
	if err != nil {
		return
	}
	reps := 500
	if size == "small" {
		reps = 10000
	}
	m := &transport.Message{Type: transport.MsgFrame, Frame: rig.Tick()[0]}
	d, _, allocs, allocBytes, err := p.roundTrip("transport.frame_roundtrip", m, reps)
	if err != nil {
		return
	}
	p.layers["transport.frame_"+size+"_rt_us"] = float64(d) / float64(time.Microsecond)
	p.layers["transport.frame_allocs"] = allocs
	if size == "large" {
		p.layers["transport.frame_large_alloc_bytes"] = allocBytes
	}
}

// control times the JSON control codec on a real 1,000-site routing
// table and on a resubscribe from the trace.
func (p prober) control(routes *transport.Routes, ev sim.Event) error {
	d, n, _, _, err := p.roundTrip("transport.routes_roundtrip",
		&transport.Message{Type: transport.MsgRoutes, Routes: routes}, 50)
	if err != nil {
		return err
	}
	p.layers["transport.routes1000_rt_us"] = float64(d) / float64(time.Microsecond)
	p.layers["transport.routes1000_bytes"] = float64(n)
	d, _, _, _, err = p.roundTrip("transport.resub_roundtrip", &transport.Message{
		Type:        transport.MsgResubscribe,
		Resubscribe: &transport.Resubscribe{Site: ev.Node, ID: 1, Gained: ev.Gained, Lost: ev.Lost},
	}, 5000)
	p.layers["transport.resub_rt_us"] = float64(d) / float64(time.Microsecond)
	return err
}

// vpipe measures the virtual fabric alone: dial cost, and one
// listener/dialer pair carrying frame-sized writes to a draining reader.
func (p prober) vpipe(ctx context.Context, prof stream.Profile, size string, seed int64) error {
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{Seed: seed})
	ln, err := fabric.Host("probe-a").Listen("")
	if err != nil {
		return err
	}
	defer ln.Close()
	dialer := fabric.Host("probe-b")

	const dials = 200
	var dialErr error
	d := p.tr.time(p.parent, "transport.vpipe_dial", func() {
		for i := 0; i < dials && dialErr == nil; i++ {
			c, err := transport.DialWithRetry(ctx, dialer, ln.Addr().String(), transport.Backoff{}, nil)
			if err != nil {
				dialErr = err
				return
			}
			peer, err := ln.Accept()
			if err != nil {
				dialErr = err
				return
			}
			c.Close()
			peer.Close()
		}
	})
	if dialErr != nil {
		return fmt.Errorf("vpipe dial: %w", dialErr)
	}
	p.layers["transport.vpipe_dial_us"] = per(d, dials, time.Microsecond)

	chunk := make([]byte, prof.FrameBytes())
	reps := 2000
	if size == "small" {
		reps = 50000
	}
	c, err := transport.DialWithRetry(ctx, dialer, ln.Addr().String(), transport.Backoff{}, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	peer, err := ln.Accept()
	if err != nil {
		return err
	}
	defer peer.Close()
	read := make(chan error, 1)
	var writeErr error
	d = p.tr.time(p.parent, "transport.vpipe_stream", func() {
		go func() {
			_, err := io.CopyN(io.Discard, peer, int64(reps)*int64(len(chunk)))
			read <- err
		}()
		for i := 0; i < reps && writeErr == nil; i++ {
			_, writeErr = c.Write(chunk)
		}
		if err := <-read; writeErr == nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		return fmt.Errorf("vpipe stream: %w", writeErr)
	}
	if size == "small" {
		p.layers["transport.vpipe_small_chunk_us"] = per(d, reps, time.Microsecond)
	} else {
		p.layers["transport.vpipe_large_mbps"] = float64(reps) * float64(len(chunk)) / 1e6 / d.Seconds()
	}
	return nil
}

// construct times Algorithm.Construct on a problem and returns the
// last forest built.
func (p prober) construct(problem *overlay.Problem, seed int64, reps int) (*overlay.Forest, time.Duration, error) {
	var f *overlay.Forest
	var err error
	d := p.tr.time(p.parent, "overlay.Construct", func() {
		for i := 0; i < reps && err == nil; i++ {
			f, err = overlay.RJ{}.Construct(problem, rand.New(rand.NewSource(seed)))
		}
	})
	return f, d / time.Duration(reps), err
}

// applyBatch replays the trace's operations onto a private forest in
// windows of 200 events — the overlay's share of a membership flush.
func (p prober) applyBatch(f *overlay.Forest, events []sim.Event) (usPerOp float64) {
	var b overlay.Batch
	ops := 0
	d := p.tr.time(p.parent, "overlay.ApplyBatch", func() {
		for lo := 0; lo < len(events); lo += 200 {
			b.Reset()
			for _, e := range events[lo:min(lo+200, len(events))] {
				for _, id := range e.Lost {
					b.Unsubscribe(overlay.Request{Node: e.Node, Stream: id})
				}
				for _, id := range e.Gained {
					b.Subscribe(overlay.Request{Node: e.Node, Stream: id})
				}
			}
			ops += b.Len()
			f.ApplyBatch(&b)
		}
	})
	if ops == 0 {
		return 0
	}
	return per(d, ops, time.Microsecond)
}
