// Package sim is a discrete-event simulator for the 3DTI data plane: it
// plays a frame schedule over a constructed overlay forest with per-edge
// latencies and reports per-subscriber delivery latency and rate. It
// validates, at frame granularity and for arbitrary session lengths, the
// property the overlay construction only guarantees statically: every
// accepted subscription receives its stream within the latency bound.
//
// RunEvents is the one entry point. A nil trace replays the frame
// schedule over the static forest; a control trace also reconfigures
// the forest mid-session.
package sim

import (
	"fmt"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

// Config parameterizes a simulation run.
type Config struct {
	// Forest is the constructed overlay to simulate.
	Forest *overlay.Forest
	// Profile provides the frame cadence.
	Profile stream.Profile
	// DurationMs is the simulated session length.
	DurationMs float64
	// HopOverheadMs is added per overlay hop for forwarding/processing;
	// the paper measures ~10 ms/stream rendering cost at the display but
	// treats relay forwarding as cheap. Default 0.
	HopOverheadMs float64
}

// DeliveryStats summarizes one (subscriber, stream) pair.
type DeliveryStats struct {
	Node      int
	Stream    stream.ID
	Frames    int
	MeanLatMs float64
	MaxLatMs  float64
	// Hops is the overlay path length from the source.
	Hops int
}

// VerifyLatencyBound checks that every simulated delivery respects the
// forest's latency bound plus the per-hop overhead allowance.
func VerifyLatencyBound(cfg Config, res *EventResult) error {
	bcost := cfg.Forest.Problem().Bcost
	for _, st := range res.PerSubscription {
		allowance := bcost + cfg.HopOverheadMs*float64(st.Hops)
		if st.MaxLatMs >= allowance {
			return fmt.Errorf("sim: node %d stream %s max latency %.2fms >= bound %.2fms",
				st.Node, st.Stream, st.MaxLatMs, allowance)
		}
	}
	return nil
}
