// Package stream models the 3D video streams a tele-immersive site
// produces: stream identity, frame structure, a synthetic frame generator
// standing in for a real 3D camera array, and a compact binary codec used
// by the RP data plane.
//
// The paper's streams are depth+color macroblock streams of roughly
// 5-10 Mbps after background subtraction, resolution reduction and
// real-time 3D compression (§5.1); a raw stream is ~180 Mbps
// (640x480 x 15 fps x 5 B/pixel, §1). The generator reproduces those
// rates with synthetic payloads so the data plane moves realistic volumes.
package stream

import (
	"cmp"
	"fmt"
	"slices"
)

// ID identifies one 3D video stream globally: the stream with local camera
// index Index originating from site Site. This is the paper's s_j^q with
// j=Site and q=Index.
type ID struct {
	Site  int // originating site index, 0-based
	Index int // local camera index within the site, 0-based
}

// String renders the ID in the paper's s_j^q notation, e.g. "s3^1".
func (id ID) String() string { return fmt.Sprintf("s%d^%d", id.Site, id.Index) }

// Less orders IDs lexicographically by (Site, Index); used to make
// iteration deterministic.
func (id ID) Less(other ID) bool {
	if id.Site != other.Site {
		return id.Site < other.Site
	}
	return id.Index < other.Index
}

// Compare is Less as a three-way comparison, for the slices package's
// sorted-slice functions.
func Compare(a, b ID) int {
	if c := cmp.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// SortIDs sorts ids in place by Compare.
func SortIDs(ids []ID) { slices.SortFunc(ids, Compare) }

// Raw capture constants from the paper's §1 back-of-envelope.
const (
	RawWidth         = 640
	RawHeight        = 480
	RawFPS           = 15
	RawBytesPerPixel = 5 // depth + RGB + metadata

	// RawStreamBps is the uncompressed stream bandwidth: ~184 Mbps.
	RawStreamBps = RawWidth * RawHeight * RawFPS * RawBytesPerPixel * 8
)

// Profile describes the encoding profile of a generated stream.
type Profile struct {
	// Width and Height of the (reduced) depth/color grid.
	Width, Height int
	// FPS is frames per second.
	FPS int
	// CompressionRatio divides the raw per-frame payload; the paper's
	// pipeline (background subtraction + resolution reduction + 3D
	// compression) brings 180 Mbps to 5-10 Mbps, i.e. a ratio of ~20-35.
	CompressionRatio float64
}

// DefaultProfile matches the paper's reduced streams: ~7 Mbps at 15 fps.
func DefaultProfile() Profile {
	return Profile{Width: RawWidth, Height: RawHeight, FPS: RawFPS, CompressionRatio: 26}
}

// FrameBytes returns the encoded payload size per frame, excluding header.
func (p Profile) FrameBytes() int {
	if p.Width <= 0 || p.Height <= 0 || p.CompressionRatio < 1 {
		return 0
	}
	raw := p.Width * p.Height * RawBytesPerPixel
	return int(float64(raw) / p.CompressionRatio)
}

// Bps returns the stream bandwidth in bits per second, excluding headers.
func (p Profile) Bps() float64 {
	return float64(p.FrameBytes()*p.FPS) * 8
}

// FrameIntervalMs returns the inter-frame spacing in milliseconds.
func (p Profile) FrameIntervalMs() float64 {
	if p.FPS <= 0 {
		return 0
	}
	return 1000.0 / float64(p.FPS)
}

// Validate checks the profile for usable values.
func (p Profile) Validate() error {
	switch {
	case p.Width <= 0 || p.Height <= 0:
		return fmt.Errorf("stream: invalid dimensions %dx%d", p.Width, p.Height)
	case p.FPS <= 0:
		return fmt.Errorf("stream: invalid fps %d", p.FPS)
	case p.CompressionRatio < 1:
		return fmt.Errorf("stream: compression ratio %v < 1", p.CompressionRatio)
	}
	return nil
}

// Frame is one encoded 3D video frame.
//
// A frame that has been published, or that came out of the data plane
// (rp.Delivery), is read-only, Payload included: its bytes are the wire
// bytes, shared by every connection the frame is relayed on. Clone it to
// get a frame that may be changed.
type Frame struct {
	Stream    ID
	Seq       uint64 // per-stream sequence number, starting at 0
	CaptureMs int64  // capture timestamp, session-relative milliseconds
	Payload   []byte // encoded macroblocks (synthetic)

	// room is the buffer Payload sits at the end of when there is free
	// space in front of it for the header and the framing prefix; Seal
	// consumes it. nil for frames built by hand or decoded.
	room []byte
}

// Clone returns a deep copy of the frame; the copy is private to the
// caller and may be mutated.
func (f *Frame) Clone() *Frame {
	p := make([]byte, len(f.Payload))
	copy(p, f.Payload)
	return &Frame{Stream: f.Stream, Seq: f.Seq, CaptureMs: f.CaptureMs, Payload: p}
}
