package main

// measure.go reads what the process cost from outside the system under
// test: wall clock, getrusage CPU and peak RSS, and the runtime's
// allocation and GC counters. A meter brackets one measured window.

import (
	"runtime"
	"syscall"
	"time"
)

// processStart anchors setup_s: package initialisation runs within a
// millisecond of exec, before any input is generated.
var processStart = time.Now()

// rusage returns the CPU (user+system) the process has consumed and its
// peak RSS in MB (Linux reports ru_maxrss in KB).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// meter is the start-of-window snapshot.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

// usage is what one measured window consumed.
type usage struct {
	setupS     float64 // process start → window start
	wallS      float64
	cpuS       float64
	mallocs    float64
	allocBytes float64
	gcPauseMs  float64
	gcCycles   float64
	peakRSSMB  float64 // ru_maxrss when the window closed
}

// startMeter opens a measured window. It collects garbage first, so every
// window starts at the same point of the collector's cycle — otherwise
// whether one more collection of a large set-up heap lands inside a short
// window is a coin toss that moves CPU and allocation figures by a tenth.
// ReadMemStats stops the world, so it is called only at window edges, and
// before the clock is read.
func startMeter() *meter {
	m := &meter{}
	runtime.GC()
	runtime.ReadMemStats(&m.mem)
	m.cpu, _ = rusage()
	m.start = time.Now()
	return m
}

// stop closes the window.
func (m *meter) stop() usage {
	end := time.Now()
	cpu, rss := rusage()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		setupS:     m.start.Sub(processStart).Seconds(),
		wallS:      end.Sub(m.start).Seconds(),
		cpuS:       (cpu - m.cpu).Seconds(),
		mallocs:    float64(mem.Mallocs - m.mem.Mallocs),
		allocBytes: float64(mem.TotalAlloc - m.mem.TotalAlloc),
		gcPauseMs:  float64(mem.PauseTotalNs-m.mem.PauseTotalNs) / 1e6,
		gcCycles:   float64(mem.NumGC - m.mem.NumGC),
		peakRSSMB:  rss,
	}
}

// goroutineWatch samples runtime.NumGoroutine on a ticker and reports the
// peak. Only traced runs watch; nil is the watch of an untraced one.
type goroutineWatch struct {
	stopc chan struct{}
	done  chan int
}

func watchGoroutines(tr *tracer) *goroutineWatch {
	if tr == nil {
		return nil
	}
	w := &goroutineWatch{stopc: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		peak := runtime.NumGoroutine()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				w.done <- peak
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return w
}

// stop ends the sampler and returns the peak goroutine count it saw.
func (w *goroutineWatch) stop() int {
	if w == nil {
		return 0
	}
	close(w.stopc)
	return <-w.done
}

// procLayers adds the process-level layer metrics of a measured window.
func procLayers(layers map[string]float64, use usage, goroutinesPeak int) {
	layers["proc.gc_pause_ms"] = use.gcPauseMs
	layers["proc.gc_cycles"] = use.gcCycles
	layers["proc.goroutines_peak"] = float64(goroutinesPeak)
}
