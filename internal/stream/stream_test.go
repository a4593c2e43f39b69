package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestIDStringAndLess(t *testing.T) {
	id := ID{Site: 3, Index: 1}
	if got, want := id.String(), "s3^1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	tests := []struct {
		a, b ID
		want bool
	}{
		{ID{0, 0}, ID{0, 1}, true},
		{ID{0, 1}, ID{0, 0}, false},
		{ID{1, 0}, ID{2, 0}, true},
		{ID{2, 0}, ID{1, 9}, false},
		{ID{1, 1}, ID{1, 1}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRawStreamBandwidthMatchesPaper(t *testing.T) {
	// §1: 640x480 x 15fps x 5B/pixel ≈ 180 Mbps.
	mbps := float64(RawStreamBps) / 1e6
	if mbps < 175 || mbps < 0 || mbps > 190 {
		t.Errorf("raw stream = %.1f Mbps, want ≈180", mbps)
	}
}

func TestDefaultProfileBandwidthInPaperRange(t *testing.T) {
	// §5.1: reduced streams are approximately 5-10 Mbps.
	p := DefaultProfile()
	mbps := p.Bps() / 1e6
	if mbps < 5 || mbps > 10 {
		t.Errorf("default profile = %.2f Mbps, want 5..10", mbps)
	}
	if p.FrameIntervalMs() != 1000.0/15 {
		t.Errorf("frame interval = %v", p.FrameIntervalMs())
	}
}

func TestProfileValidate(t *testing.T) {
	good := DefaultProfile()
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{Width: 0, Height: 480, FPS: 15, CompressionRatio: 20},
		{Width: 640, Height: -1, FPS: 15, CompressionRatio: 20},
		{Width: 640, Height: 480, FPS: 0, CompressionRatio: 20},
		{Width: 640, Height: 480, FPS: 15, CompressionRatio: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestProfileDegenerateFrameBytes(t *testing.T) {
	p := Profile{Width: 0, Height: 480, FPS: 15, CompressionRatio: 20}
	if p.FrameBytes() != 0 {
		t.Errorf("FrameBytes() = %d for invalid profile, want 0", p.FrameBytes())
	}
	zero := Profile{}
	if zero.FrameIntervalMs() != 0 {
		t.Errorf("FrameIntervalMs() = %v for zero profile", zero.FrameIntervalMs())
	}
}

func TestGeneratorSequenceAndTimestamps(t *testing.T) {
	g, err := NewGenerator(ID{Site: 1, Index: 2}, DefaultProfile(), 99)
	if err != nil {
		t.Fatal(err)
	}
	interval := DefaultProfile().FrameIntervalMs()
	for i := 0; i < 5; i++ {
		f := g.Next()
		if f.Seq != uint64(i) {
			t.Errorf("frame %d has seq %d", i, f.Seq)
		}
		want := int64(float64(i) * interval)
		if f.CaptureMs != want {
			t.Errorf("frame %d captureMs = %d, want %d", i, f.CaptureMs, want)
		}
		if len(f.Payload) != DefaultProfile().FrameBytes() {
			t.Errorf("frame %d payload %d bytes, want %d", i, len(f.Payload), DefaultProfile().FrameBytes())
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) *Frame {
		g, err := NewGenerator(ID{Site: 4, Index: 7}, DefaultProfile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		g.Next()
		return g.Next()
	}
	a, b := mk(5), mk(5)
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("same seed produced different payloads")
	}
	c := mk(6)
	if bytes.Equal(a.Payload, c.Payload) {
		t.Error("different seeds produced identical payloads")
	}
}

func TestGeneratorFramesAreIndependent(t *testing.T) {
	g, err := NewGenerator(ID{}, DefaultProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f1 := g.Next()
	snapshot := make([]byte, len(f1.Payload))
	copy(snapshot, f1.Payload)
	g.Next() // must not clobber f1's payload
	if !bytes.Equal(f1.Payload, snapshot) {
		t.Error("Next() mutated a previously returned frame")
	}
}

func TestGeneratorRejectsBadProfile(t *testing.T) {
	if _, err := NewGenerator(ID{}, Profile{}, 0); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestRig(t *testing.T) {
	r, err := NewRig(2, 8, DefaultProfile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Site() != 2 || r.NumCameras() != 8 {
		t.Fatalf("rig = site %d, %d cameras", r.Site(), r.NumCameras())
	}
	ids := r.Streams()
	for q, id := range ids {
		if id.Site != 2 || id.Index != q {
			t.Errorf("stream %d = %v", q, id)
		}
	}
	frames := r.Tick()
	if len(frames) != 8 {
		t.Fatalf("Tick produced %d frames", len(frames))
	}
	for q, f := range frames {
		if f.Stream.Index != q || f.Seq != 0 {
			t.Errorf("frame %d = %v seq %d", q, f.Stream, f.Seq)
		}
	}
	if g := r.generators[3]; g.ID().Index != 3 {
		t.Errorf("camera 3 generator has stream %v", g.ID())
	}
}

func TestNewRigRejectsZeroCameras(t *testing.T) {
	if _, err := NewRig(0, 0, DefaultProfile(), 0); err == nil {
		t.Error("zero cameras accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := &Frame{Stream: ID{Site: 9, Index: 4}, Seq: 12345, CaptureMs: 678, Payload: []byte("hello 3dti")}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != EncodedSize(f) {
		t.Errorf("encoded %d bytes, EncodedSize says %d", len(b), EncodedSize(f))
	}
	got, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("Decode consumed %d, want %d", n, len(b))
	}
	if got.Stream != f.Stream || got.Seq != f.Seq || got.CaptureMs != f.CaptureMs || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	fn := func(site, index uint16, seq uint64, capture int64, payload []byte) bool {
		f := &Frame{Stream: ID{Site: int(site), Index: int(index)}, Seq: seq, CaptureMs: capture, Payload: payload}
		b, err := Encode(f)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return got.Stream == f.Stream && got.Seq == seq && got.CaptureMs == capture && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	f := &Frame{Stream: ID{1, 1}, Payload: []byte("abcdef")}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := Decode(b[:cut]); !errors.Is(err, io.ErrShortBuffer) {
			t.Fatalf("Decode of %d/%d bytes: err = %v, want ErrShortBuffer", cut, len(b), err)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	b := make([]byte, frameHeaderSize)
	if _, _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeOversizedPayloadRejected(t *testing.T) {
	f := &Frame{Stream: ID{0, 0}, Payload: []byte{1, 2, 3}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// Forge an absurd length prefix.
	b[24], b[25], b[26], b[27] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := Decode(b); err == nil || errors.Is(err, io.ErrShortBuffer) {
		t.Errorf("oversized payload: err = %v, want hard error", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := Encode(&Frame{Stream: ID{Site: 70000}}); err == nil {
		t.Error("site out of uint16 range accepted")
	}
	if _, err := Encode(&Frame{Stream: ID{Index: -1}}); err == nil {
		t.Error("negative index accepted")
	}
}

// TestSealInPlace pins the zero-copy source path: a generated frame is
// sealed into the buffer its payload was written into, and the sealed
// bytes decode back to the same frame, aliasing that same buffer.
func TestSealInPlace(t *testing.T) {
	g, err := NewGenerator(ID{Site: 2, Index: 3}, DefaultProfile(), 17)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Next()
	f.CaptureMs = 1234567 // stamped after generation, before sealing
	want := append([]byte(nil), f.Payload...)
	buf, err := f.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != Headroom+EncodedSize(f) {
		t.Fatalf("sealed %d bytes, want %d", len(buf), Headroom+EncodedSize(f))
	}
	if &buf[payloadOffset] != &f.Payload[0] {
		t.Error("Seal copied a generated payload")
	}
	enc, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[Headroom:], enc) {
		t.Error("sealed bytes differ from Encode")
	}
	got, err := DecodeSealed(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != f.Stream || got.Seq != f.Seq || got.CaptureMs != 1234567 || !bytes.Equal(got.Payload, want) {
		t.Errorf("sealed round trip mismatch: %v seq %d capture %d", got.Stream, got.Seq, got.CaptureMs)
	}
	if &got.Payload[0] != &buf[payloadOffset] {
		t.Error("DecodeSealed copied the payload")
	}

	// The room is spent: sealing again must not rewrite bytes that may
	// already be on a wire.
	again, err := f.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] == &buf[0] {
		t.Error("second Seal reused the published buffer")
	}
	if !bytes.Equal(again[Headroom:], buf[Headroom:]) {
		t.Error("second Seal produced different bytes")
	}
}

// TestSealCopiesForeignPayload checks the fallback: a frame built by
// hand, or one whose Payload was swapped after generation, is sealed
// into a fresh buffer.
func TestSealCopiesForeignPayload(t *testing.T) {
	hand := &Frame{Stream: ID{Site: 1, Index: 1}, Seq: 9, Payload: []byte("abc")}
	buf, err := hand.Seal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSealed(buf)
	if err != nil || got.Seq != 9 || string(got.Payload) != "abc" {
		t.Fatalf("hand-built frame: %+v, %v", got, err)
	}

	g, err := NewGenerator(ID{}, Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Next()
	f.Payload = []byte("swapped")
	buf, err = f.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeSealed(buf); err != nil || string(got.Payload) != "swapped" {
		t.Fatalf("swapped payload: %+v, %v", got, err)
	}
	if _, err := (&Frame{Stream: ID{Site: 70000}}).Seal(); err == nil {
		t.Error("unencodable frame sealed")
	}
}

// TestDecodeSealedStrict covers what the copying Decode tolerates and a
// relay must not: trailing bytes, a short buffer, a non-zero reserved
// field.
func TestDecodeSealedStrict(t *testing.T) {
	buf, err := (&Frame{Stream: ID{Site: 1, Index: 2}, Payload: []byte("abcdef")}).Seal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSealed(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSealed(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeSealed(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	for cut := 0; cut < payloadOffset; cut++ {
		if _, err := DecodeSealed(buf[:cut]); !errors.Is(err, io.ErrShortBuffer) {
			t.Fatalf("DecodeSealed of %d bytes: err = %v, want ErrShortBuffer", cut, err)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[Headroom+7] = 1
	if _, err := DecodeSealed(bad); err == nil {
		t.Error("non-zero reserved field accepted by DecodeSealed")
	}
	if _, _, err := Decode(bad[Headroom:]); err == nil {
		t.Error("non-zero reserved field accepted by Decode")
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{Stream: ID{1, 1}, Seq: 5, CaptureMs: 10, Payload: []byte{1, 2, 3}}
	c := f.Clone()
	c.Payload[0] = 99
	if f.Payload[0] == 99 {
		t.Error("Clone shares payload with original")
	}
	if c.Stream != f.Stream || c.Seq != f.Seq || c.CaptureMs != f.CaptureMs {
		t.Error("Clone lost metadata")
	}
}

func TestRenderBudget(t *testing.T) {
	// §1: rendering costs ~10 ms/stream; at 15 fps a display has a 66.7 ms
	// budget, so at most 6 streams render in real time per display. This
	// pins the constant used by the session package.
	perStream := 10.0
	budget := DefaultProfile().FrameIntervalMs()
	if max := int(math.Floor(budget / perStream)); max != 6 {
		t.Errorf("renderable streams per display = %d, want 6", max)
	}
}
