package session

import (
	"testing"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
)

// TestSessionForestSatisfiesBoundAtFrameLevel closes the loop between the
// static overlay construction and the data plane: for FOV-driven sessions
// of several sizes, every accepted subscription receives every frame
// within the latency bound over a simulated two-second run.
func TestSessionForestSatisfiesBoundAtFrameLevel(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		for _, alg := range []overlay.Algorithm{overlay.RJ{}, overlay.CORJ{}} {
			s, err := Build(Spec{N: n, Algorithm: alg, Seed: int64(n * 7)})
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, alg.Name(), err)
			}
			cfg := sim.Config{
				Forest:        s.Forest,
				Profile:       stream.DefaultProfile(),
				DurationMs:    2000,
				HopOverheadMs: 1,
			}
			res, err := sim.RunEvents(cfg, nil)
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, alg.Name(), err)
			}
			if len(s.Forest.Accepted()) > 0 && res.TotalFrames == 0 {
				t.Fatalf("N=%d %s: no frames delivered", n, alg.Name())
			}
			if err := sim.VerifyLatencyBound(cfg, res); err != nil {
				t.Errorf("N=%d %s: %v", n, alg.Name(), err)
			}
			// Delivered frame rate must equal the capture rate for every
			// accepted subscription (lossless overlay, by construction).
			want := int(2000 / stream.DefaultProfile().FrameIntervalMs())
			for _, st := range res.PerSubscription {
				if st.Frames != want {
					t.Errorf("N=%d %s: node %d stream %s: %d frames, want %d",
						n, alg.Name(), st.Node, st.Stream, st.Frames, want)
				}
			}
		}
	}
}
