package transport

// frame_test.go covers the frame hot path — SealFrame, WriteSealed,
// FrameReader — and the strictness of the frame decoder, which matters
// more now that a relay forwards the bytes it read verbatim.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// frameMessage returns the wire bytes WriteMessage produces for f.
func frameMessage(t testing.TB, f *stream.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgFrame, Frame: f}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSealedFrameIsTheMessage checks the two writers agree byte for byte
// (SealFrame in place, WriteMessage by copy), that the sealed bytes are
// the generator's own buffer, and that FrameReader hands back a frame
// aliasing the buffer it read — and skips messages that are not frames.
func TestSealedFrameIsTheMessage(t *testing.T) {
	rig, err := stream.NewRig(3, 1, stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := rig.Tick()[0]
	f.CaptureMs = 987654
	want := frameMessage(t, f)
	msg, err := SealFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, want) {
		t.Fatal("SealFrame and WriteMessage disagree on the wire bytes")
	}
	if &msg[len(msg)-1] != &f.Payload[len(f.Payload)-1] {
		t.Error("SealFrame copied a generated payload")
	}

	var wire bytes.Buffer
	if err := WriteMessage(&wire, &Message{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSealed(&wire, msg); err != nil {
		t.Fatal(err)
	}
	got, raw, err := NewFrameReader(&wire).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, msg) {
		t.Error("FrameReader's message differs from what was written")
	}
	if got.Stream != f.Stream || got.Seq != f.Seq || got.CaptureMs != 987654 || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("frame = %v seq %d capture %d", got.Stream, got.Seq, got.CaptureMs)
	}
	if &got.Payload[0] != &raw[len(raw)-len(got.Payload)] {
		t.Error("FrameReader copied the payload out of its read buffer")
	}
}

// TestWriteSealedSharesBytesOnVirtualFabric pins the one-copy-per-hop
// rule: the virtual pipe queues the sealed slice itself, while a plain
// Write still takes a private copy.
func TestWriteSealedSharesBytesOnVirtualFabric(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 1})
	dialer, acceptor := pair(t, v, "site-0", "site-1")
	msg, err := SealFrame(&stream.Frame{Stream: stream.ID{Site: 0, Index: 1}, Seq: 7, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	pipe := dialer.(*virtualConn).wr
	if err := WriteSealed(dialer, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := dialer.Write(msg); err != nil {
		t.Fatal(err)
	}
	pipe.mu.Lock()
	shared, copied := pipe.segs[pipe.head].data, pipe.segs[pipe.head+1].data
	pipe.mu.Unlock()
	if &shared[0] != &msg[0] {
		t.Error("WriteSealed copied the sealed bytes")
	}
	if &copied[0] == &msg[0] {
		t.Error("Write queued the caller's slice")
	}
	frames := NewFrameReader(acceptor)
	for i := 0; i < 2; i++ {
		f, raw, err := frames.Next()
		if err != nil || f.Seq != 7 || string(f.Payload) != "payload" {
			t.Fatalf("frame %d: %+v, %v", i, f, err)
		}
		if &raw[0] == &msg[0] {
			t.Error("reader was handed the writer's buffer")
		}
	}
}

// TestFrameDecoderStrict: a frame message whose inner payload length
// disagrees with the outer length, or whose reserved field is set, is
// rejected with a wrapped decode error by both readers.
func TestFrameDecoderStrict(t *testing.T) {
	good := frameMessage(t, &stream.Frame{Stream: stream.ID{Site: 1, Index: 2}, Seq: 3, Payload: []byte("abcdef")})
	if _, err := ReadMessage(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	trailing := append(append([]byte(nil), good...), 0xEE, 0xEE)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	short := append([]byte(nil), good[:len(good)-1]...)
	binary.BigEndian.PutUint32(short, uint32(len(short)-4))
	reserved := append([]byte(nil), good...)
	reserved[prefixSize+6] = 0x80
	for name, msg := range map[string][]byte{"trailing bytes": trailing, "short payload": short, "reserved set": reserved} {
		_, err := ReadMessage(bytes.NewReader(msg))
		if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("ReadMessage, %s: err = %v, want a decode error", name, err)
		}
		if _, _, err := NewFrameReader(bytes.NewReader(msg)).Next(); err == nil {
			t.Errorf("FrameReader, %s: accepted", name)
		}
	}
}

// FuzzReadMessage feeds arbitrary bytes to the message decoder: it must
// never panic, must refuse a length prefix above MaxMessage before
// allocating for it, and any frame it accepts must re-serialise to
// exactly the bytes it was read from (nothing dropped, nothing invented
// — a relay forwards those bytes unread).
func FuzzReadMessage(f *testing.F) {
	valid := []*Message{
		{Type: MsgHello, Hello: &Hello{Site: 3, Addr: "a:1", In: 2, Out: 2, NumStreams: 1}},
		{Type: MsgSubscribe, Subscribe: &Subscribe{Site: 1, Streams: []stream.ID{{Site: 0, Index: 1}}}},
		{Type: MsgRoutes, Routes: &Routes{Site: 1, Epoch: 2, Peers: map[int]string{0: "a:1"}}},
		{Type: MsgFrame, Frame: &stream.Frame{Stream: stream.ID{Site: 2, Index: 1}, Seq: 9, CaptureMs: 5, Payload: []byte("payload")}},
		{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 4}},
		{Type: MsgResubscribe, Resubscribe: &Resubscribe{Site: 1, ID: 7, Gained: []stream.ID{{Site: 2}}}},
		{Type: MsgRoutesUpdate, Update: &RoutesUpdate{Site: 1, Epoch: 3, AddAccepted: []stream.ID{{Site: 2}}}},
		{Type: MsgError, Error: &ProtocolError{Msg: "no"}},
	}
	for _, m := range valid {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1]) // truncated
	}
	frame := frameMessage(f, valid[3].Frame)
	oversize := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(oversize, MaxMessage+1)
	f.Add(oversize)
	badMagic := append([]byte(nil), frame...)
	badMagic[prefixSize] ^= 0xFF
	f.Add(badMagic)
	mismatch := append(append([]byte(nil), frame...), 1, 2, 3) // inner length < outer length
	binary.BigEndian.PutUint32(mismatch, uint32(len(mismatch)-4))
	f.Add(mismatch)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := ReadMessage(r)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxMessage && !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("length prefix %d above MaxMessage: err = %v", binary.BigEndian.Uint32(data), err)
		}
		if err != nil {
			return
		}
		read := data[:len(data)-r.Len()]
		if binary.BigEndian.Uint32(read) != uint32(len(read)-4) {
			t.Fatalf("consumed %d bytes for a length prefix of %d", len(read), binary.BigEndian.Uint32(read))
		}
		if m.Type != MsgFrame {
			return
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, m); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted frame re-serialises to %d bytes, read %d", out.Len(), len(read))
		}
		// The relay path must agree with the generic one.
		f2, raw, err := NewFrameReader(bytes.NewReader(read)).Next()
		if err != nil || !bytes.Equal(raw, read) || f2.Seq != m.Frame.Seq {
			t.Fatalf("FrameReader disagrees with ReadMessage: %v", err)
		}
	})
}
