package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary frame layout (big endian):
//
//	magic     uint16  0x3D71 ("3DTI")
//	site      uint16
//	index     uint16
//	reserved  uint16  must be zero
//	seq       uint64
//	captureMs int64
//	payload   uint32 length-prefixed bytes
const (
	frameMagic      = 0x3D71
	frameHeaderSize = 2 + 2 + 2 + 2 + 8 + 8 + 4
)

// Headroom is the number of bytes a sealed frame's buffer keeps free in
// front of the frame header. They belong to the framing layer (the
// transport's length‖type message prefix), which fills them in before
// the buffer goes on a wire — so a frame travels as one contiguous
// slice without being copied behind a prefix.
const Headroom = 5

// payloadOffset is where the payload starts in a sealed buffer.
const payloadOffset = Headroom + frameHeaderSize

// MaxPayload bounds the payload length a decoder will accept, protecting
// the data plane from corrupt length prefixes. 16 MiB is far above any
// real frame (~60 KiB at the default profile).
const MaxPayload = 16 << 20

// ErrBadMagic is returned when a decoded frame does not start with the
// frame magic number.
var ErrBadMagic = errors.New("stream: bad frame magic")

// EncodedSize returns the wire size of the frame. A nil frame has size 0.
func EncodedSize(f *Frame) int {
	if f == nil {
		return 0
	}
	return frameHeaderSize + len(f.Payload)
}

// encodable reports why f cannot be put on the wire, if it cannot.
func encodable(f *Frame) error {
	if f == nil {
		return errors.New("stream: nil frame")
	}
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("stream: payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	if f.Stream.Site < 0 || f.Stream.Site > 0xFFFF || f.Stream.Index < 0 || f.Stream.Index > 0xFFFF {
		return fmt.Errorf("stream: id %v out of range for wire format", f.Stream)
	}
	return nil
}

// putHeader writes the header of an encodable frame into hdr
// (frameHeaderSize bytes).
func putHeader(hdr []byte, f *Frame) {
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	binary.BigEndian.PutUint16(hdr[2:], uint16(f.Stream.Site))
	binary.BigEndian.PutUint16(hdr[4:], uint16(f.Stream.Index))
	binary.BigEndian.PutUint16(hdr[6:], 0)
	binary.BigEndian.PutUint64(hdr[8:], f.Seq)
	binary.BigEndian.PutUint64(hdr[16:], uint64(f.CaptureMs))
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(f.Payload)))
}

// AppendEncode appends the wire form of f to dst and returns the extended
// slice.
func AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	if err := encodable(f); err != nil {
		return dst, err
	}
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], f)
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// Encode returns the wire form of f.
func Encode(f *Frame) ([]byte, error) {
	return AppendEncode(make([]byte, 0, EncodedSize(f)), f)
}

// Seal freezes f into its wire form and returns the sealed buffer:
// Headroom bytes for the framing layer, the frame header, the payload.
// A frame whose payload already sits behind enough free room (the
// generator builds them that way) is sealed in place — the header is
// written in front of the payload, nothing is copied and Payload aliases
// the returned buffer. Any other frame is copied into a fresh buffer.
//
// The returned bytes and the frame are read-only from here on: relays
// share them across connections. Sealing uses the room up, so sealing a
// frame again copies it instead of touching bytes already handed out;
// Clone yields a frame that may be mutated.
func (f *Frame) Seal() ([]byte, error) {
	if err := encodable(f); err != nil {
		return nil, err
	}
	buf := f.room
	f.room = nil
	inPlace := len(buf) == payloadOffset+len(f.Payload) &&
		(len(f.Payload) == 0 || &buf[payloadOffset] == &f.Payload[0])
	if !inPlace {
		buf = make([]byte, payloadOffset+len(f.Payload))
		copy(buf[payloadOffset:], f.Payload)
	}
	putHeader(buf[Headroom:payloadOffset], f)
	return buf, nil
}

// parseHeader validates the header at the front of b and returns the
// frame's fields (Payload unset) and its payload length.
// io.ErrShortBuffer means b does not yet hold a whole header.
func parseHeader(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderSize {
		return Frame{}, 0, io.ErrShortBuffer
	}
	if binary.BigEndian.Uint16(b[0:]) != frameMagic {
		return Frame{}, 0, ErrBadMagic
	}
	if r := binary.BigEndian.Uint16(b[6:]); r != 0 {
		return Frame{}, 0, fmt.Errorf("stream: reserved header field is %#x, want 0", r)
	}
	plen := binary.BigEndian.Uint32(b[24:])
	if plen > MaxPayload {
		return Frame{}, 0, fmt.Errorf("stream: payload length %d exceeds max %d", plen, MaxPayload)
	}
	return Frame{
		Stream:    ID{Site: int(binary.BigEndian.Uint16(b[2:])), Index: int(binary.BigEndian.Uint16(b[4:]))},
		Seq:       binary.BigEndian.Uint64(b[8:]),
		CaptureMs: int64(binary.BigEndian.Uint64(b[16:])),
	}, int(plen), nil
}

// Decode parses one frame from b and returns the frame plus the number of
// bytes consumed. io.ErrShortBuffer is returned when b does not yet hold a
// complete frame (callers accumulating from a socket should read more).
// The payload is copied out of b.
func Decode(b []byte) (*Frame, int, error) {
	f, plen, err := parseHeader(b)
	if err != nil {
		return nil, 0, err
	}
	total := frameHeaderSize + plen
	if len(b) < total {
		return nil, 0, io.ErrShortBuffer
	}
	f.Payload = make([]byte, plen)
	copy(f.Payload, b[frameHeaderSize:total])
	return &f, total, nil
}

// DecodeSealed parses a sealed buffer — Headroom bytes (not inspected),
// then exactly one frame — without copying: the returned frame's Payload
// aliases buf, so both are read-only for as long as either is in use.
// Unlike Decode it is strict about length: a buffer that is shorter or
// longer than its header announces is an error, because a relay forwards
// buf verbatim and must not pass on bytes no decoder accounted for.
func DecodeSealed(buf []byte) (*Frame, error) {
	if len(buf) < Headroom {
		return nil, io.ErrShortBuffer
	}
	f, plen, err := parseHeader(buf[Headroom:])
	if err != nil {
		return nil, err
	}
	if got := len(buf) - payloadOffset; got != plen {
		return nil, fmt.Errorf("stream: frame holds %d payload bytes, header says %d", got, plen)
	}
	f.Payload = buf[payloadOffset:]
	return &f, nil
}
