package stream

import (
	"fmt"
	"math/rand"
)

// Generator synthesizes the frame sequence of one 3D camera. It stands in
// for the capture + reduction pipeline of a real tele-immersive site: each
// call to Next produces the next encoded frame at the profile's cadence.
//
// The payload is pseudo-random but seeded per stream, so two generators
// constructed with the same stream ID and seed produce identical frames —
// useful for end-to-end integrity checks across the data plane.
type Generator struct {
	id      ID
	profile Profile
	rng     *rand.Rand
	seq     uint64
}

// NewGenerator returns a generator for the given stream.
func NewGenerator(id ID, profile Profile, seed int64) (*Generator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Generator{
		id:      id,
		profile: profile,
		rng:     rand.New(rand.NewSource(seed ^ int64(id.Site)<<32 ^ int64(id.Index))),
	}, nil
}

// ID returns the stream identity.
func (g *Generator) ID() ID { return g.id }

// Profile returns the encoding profile.
func (g *Generator) Profile() Profile { return g.profile }

// Next produces the next frame. CaptureMs is derived from the sequence
// number and the profile frame rate, so frame k is captured at
// k * frameInterval.
//
// The payload is written once, into a buffer with room in front for the
// frame header and the framing prefix, so Seal can freeze the frame into
// its wire form without copying it.
func (g *Generator) Next() *Frame {
	buf := make([]byte, payloadOffset+g.profile.FrameBytes())
	payload := buf[payloadOffset:]
	// Fill with a cheap deterministic pattern: a seeded xorshift over the
	// payload. Using rng.Read would also work but costs more.
	x := g.rng.Uint64()
	for i := range payload {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		payload[i] = byte(x)
	}
	f := &Frame{
		Stream:    g.id,
		Seq:       g.seq,
		CaptureMs: int64(float64(g.seq) * g.profile.FrameIntervalMs()),
		Payload:   payload,
		room:      buf,
	}
	g.seq++
	return f
}

// Rig is the set of generators for all cameras at one site — the synthetic
// equivalent of the site's 3D camera array.
type Rig struct {
	site       int
	generators []*Generator
}

// NewRig creates numCameras generators for the given site.
func NewRig(site, numCameras int, profile Profile, seed int64) (*Rig, error) {
	if numCameras <= 0 {
		return nil, fmt.Errorf("stream: site %d: numCameras %d <= 0", site, numCameras)
	}
	r := &Rig{site: site}
	for q := 0; q < numCameras; q++ {
		g, err := NewGenerator(ID{Site: site, Index: q}, profile, seed)
		if err != nil {
			return nil, err
		}
		r.generators = append(r.generators, g)
	}
	return r, nil
}

// Site returns the site index.
func (r *Rig) Site() int { return r.site }

// NumCameras returns the camera count.
func (r *Rig) NumCameras() int { return len(r.generators) }

// Streams lists the IDs of all streams the rig produces, in index order.
func (r *Rig) Streams() []ID {
	out := make([]ID, len(r.generators))
	for i, g := range r.generators {
		out[i] = g.ID()
	}
	return out
}

// NextSeq returns the sequence number the next Tick will stamp (all
// cameras advance in lockstep).
func (r *Rig) NextSeq() uint64 { return r.generators[0].seq }

// AdvanceTo fast-forwards every camera so the next frame carries at
// least seq. A node rejoining after a crash resumes above its
// predecessor's sequence numbers; otherwise receivers' duplicate
// watermarks — already at the crashed node's high-water mark — would
// silently swallow every fresh frame.
func (r *Rig) AdvanceTo(seq uint64) {
	for _, g := range r.generators {
		if g.seq < seq {
			g.seq = seq
		}
	}
}

// Tick captures one frame from every camera, in camera order.
func (r *Rig) Tick() []*Frame {
	out := make([]*Frame, len(r.generators))
	for i, g := range r.generators {
		out[i] = g.Next()
	}
	return out
}
