package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Type != m.Type {
		t.Fatalf("type = %d, want %d", got.Type, m.Type)
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{Type: MsgHello, Hello: &Hello{Site: 3, Addr: "127.0.0.1:9", In: 20, Out: 18, NumStreams: 10}})
	if *m.Hello != (Hello{Site: 3, Addr: "127.0.0.1:9", In: 20, Out: 18, NumStreams: 10}) {
		t.Errorf("hello = %+v", m.Hello)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	subs := []stream.ID{{Site: 1, Index: 2}, {Site: 2, Index: 0}}
	m := roundTrip(t, &Message{Type: MsgSubscribe, Subscribe: &Subscribe{Site: 0, Streams: subs}})
	if m.Subscribe.Site != 0 || len(m.Subscribe.Streams) != 2 || m.Subscribe.Streams[1] != subs[1] {
		t.Errorf("subscribe = %+v", m.Subscribe)
	}
}

func TestPeerHelloRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 7}})
	if m.PeerHello.Site != 7 {
		t.Errorf("peer hello = %+v", m.PeerHello)
	}
}

func TestRoutesRoundTrip(t *testing.T) {
	r := &Routes{
		Site:     1,
		Peers:    map[int]string{0: "a:1", 2: "c:3"},
		Forward:  []Route{{Stream: stream.ID{Site: 1, Index: 0}, Children: []int{0, 2}}},
		Accepted: []stream.ID{{Site: 0, Index: 4}},
		Rejected: []stream.ID{{Site: 2, Index: 9}},
	}
	m := roundTrip(t, &Message{Type: MsgRoutes, Routes: r})
	if m.Routes.Peers[2] != "c:3" {
		t.Errorf("routes = %+v", m.Routes)
	}
	if len(m.Routes.Forward) != 1 || len(m.Routes.Forward[0].Children) != 2 {
		t.Errorf("forward = %+v", m.Routes.Forward)
	}
	if len(m.Routes.Accepted) != 1 || len(m.Routes.Rejected) != 1 {
		t.Errorf("accepted/rejected = %+v / %+v", m.Routes.Accepted, m.Routes.Rejected)
	}
}

func TestResubscribeRoundTrip(t *testing.T) {
	r := &Resubscribe{
		Site:   2,
		ID:     41,
		Gained: []stream.ID{{Site: 0, Index: 1}},
		Lost:   []stream.ID{{Site: 1, Index: 3}, {Site: 3, Index: 0}},
	}
	m := roundTrip(t, &Message{Type: MsgResubscribe, Resubscribe: r})
	if m.Resubscribe.Site != 2 || m.Resubscribe.ID != 41 {
		t.Errorf("resubscribe = %+v", m.Resubscribe)
	}
	if len(m.Resubscribe.Gained) != 1 || len(m.Resubscribe.Lost) != 2 || m.Resubscribe.Lost[1] != r.Lost[1] {
		t.Errorf("gained/lost = %+v / %+v", m.Resubscribe.Gained, m.Resubscribe.Lost)
	}
}

func TestRoutesUpdateRoundTrip(t *testing.T) {
	u := &RoutesUpdate{
		Site:  0,
		Epoch: 7,
		Acks:  []Ack{{ID: 41}},
		SetForward: []Route{
			{Stream: stream.ID{Site: 0, Index: 1}, Children: []int{2}},
			{Stream: stream.ID{Site: 0, Index: 0}}, // clears the duty
		},
		AddAccepted: []stream.ID{{Site: 1, Index: 0}},
		DelAccepted: []stream.ID{{Site: 2, Index: 2}},
		AddRejected: []stream.ID{{Site: 3, Index: 1}},
		Peers:       map[int]string{3: "d:4"},
	}
	m := roundTrip(t, &Message{Type: MsgRoutesUpdate, Update: u})
	got := m.Update
	if got.Epoch != 7 || len(got.Acks) != 1 || got.Acks[0].ID != 41 || got.Site != 0 {
		t.Errorf("update = %+v", got)
	}
	if len(got.SetForward) != 2 || len(got.SetForward[1].Children) != 0 {
		t.Errorf("setForward = %+v", got.SetForward)
	}
	if len(got.AddAccepted) != 1 || len(got.DelAccepted) != 1 || len(got.AddRejected) != 1 || len(got.DelRejected) != 0 {
		t.Errorf("accept/reject deltas = %+v", got)
	}
	if got.Peers[3] != "d:4" {
		t.Errorf("peers = %v", got.Peers)
	}
}

// TestDiffRoutes: the delta between two tables is nil when only list
// order or the mesh differs, and otherwise carries every change class —
// a changed, new and cleared forwarding duty, accepted and rejected
// additions and removals — with sorted lists and no Peers.
func TestDiffRoutes(t *testing.T) {
	id := func(site, q int) stream.ID { return stream.ID{Site: site, Index: q} }
	old := &Routes{
		Site:     3,
		Peers:    map[int]string{0: "a:1"},
		Forward:  []Route{{Stream: id(3, 0), Children: []int{1, 2}}, {Stream: id(3, 1), Children: []int{0}}},
		Accepted: []stream.ID{id(1, 0), id(0, 0)},
		Rejected: []stream.ID{id(2, 0)},
	}
	same := &Routes{
		Site:     3,
		Peers:    map[int]string{0: "b:2"},
		Forward:  []Route{{Stream: id(3, 1), Children: []int{0}}, {Stream: id(3, 0), Children: []int{1, 2}}},
		Accepted: []stream.ID{id(0, 0), id(1, 0)},
		Rejected: []stream.ID{id(2, 0)},
	}
	if u := DiffRoutes(old, same); u != nil {
		t.Errorf("reordered table diffs to %+v, want nil", u)
	}
	next := &Routes{
		Site:     3,
		Peers:    map[int]string{0: "b:2"},
		Forward:  []Route{{Stream: id(3, 2), Children: []int{4}}, {Stream: id(3, 0), Children: []int{1}}},
		Accepted: []stream.ID{id(2, 1), id(1, 0), id(0, 1)},
		Rejected: []stream.ID{id(0, 0), id(1, 1)},
	}
	want := &RoutesUpdate{
		Site: 3,
		SetForward: []Route{
			{Stream: id(3, 0), Children: []int{1}},
			{Stream: id(3, 1)}, // clears the duty
			{Stream: id(3, 2), Children: []int{4}},
		},
		AddAccepted: []stream.ID{id(0, 1), id(2, 1)},
		DelAccepted: []stream.ID{id(0, 0)},
		AddRejected: []stream.ID{id(0, 0), id(1, 1)},
		DelRejected: []stream.ID{id(2, 0)},
	}
	if got := DiffRoutes(old, next); !reflect.DeepEqual(got, want) {
		t.Errorf("DiffRoutes =\n%+v\nwant\n%+v", got, want)
	}
}

// TestPatchRouteMatchesDiffRoutes: patching every stream of one random
// table toward another, in ascending stream order, turns the first into
// the second and yields exactly DiffRoutes of the two.
func TestPatchRouteMatchesDiffRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ids []stream.ID
	for site := 0; site < 4; site++ {
		for q := 0; q < 3; q++ {
			ids = append(ids, stream.ID{Site: site, Index: q})
		}
	}
	children := func() []int {
		var ch []int
		for c := 0; c < 5; c++ {
			if rng.Intn(3) == 0 {
				ch = append(ch, c)
			}
		}
		return ch
	}
	table := func() *Routes {
		r := &Routes{Site: 2}
		for _, id := range ids {
			if ch := children(); len(ch) > 0 && rng.Intn(2) == 0 {
				r.Forward = append(r.Forward, Route{Stream: id, Children: ch})
			}
			switch rng.Intn(3) {
			case 0:
				r.Accepted = append(r.Accepted, id)
			case 1:
				r.Rejected = append(r.Rejected, id)
			}
		}
		return r
	}
	entry := func(r *Routes, id stream.ID) (ch []int, accepted, rejected bool) {
		for _, e := range r.Forward {
			if e.Stream == id {
				ch = e.Children
			}
		}
		return ch, slices.Contains(r.Accepted, id), slices.Contains(r.Rejected, id)
	}
	for trial := 0; trial < 500; trial++ {
		old, next := table(), table()
		if trial%5 == 0 {
			next = old // no change: an empty delta
		}
		want := DiffRoutes(old, next)
		if want == nil {
			want = &RoutesUpdate{Site: 2}
		}
		patched := &Routes{Site: 2, Accepted: slices.Clone(old.Accepted), Rejected: slices.Clone(old.Rejected)}
		for _, e := range old.Forward {
			patched.Forward = append(patched.Forward, Route{Stream: e.Stream, Children: slices.Clone(e.Children)})
		}
		got := &RoutesUpdate{Site: 2}
		for _, id := range ids {
			ch, acc, rej := entry(next, id)
			PatchRoute(patched, got, id, ch, acc, rej)
		}
		if got.Empty() != (DiffRoutes(old, next) == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: patch delta\n%+v\nwant DiffRoutes\n%+v", trial, got, want)
		}
		if u := DiffRoutes(patched, next); u != nil {
			t.Fatalf("trial %d: patched table differs from the target by %+v", trial, u)
		}
		if !slices.IsSortedFunc(patched.Forward, func(a, b Route) int { return stream.Compare(a.Stream, b.Stream) }) ||
			!slices.IsSortedFunc(patched.Accepted, stream.Compare) || !slices.IsSortedFunc(patched.Rejected, stream.Compare) {
			t.Fatalf("trial %d: patched table lists out of order: %+v", trial, patched)
		}
	}
}

func TestProtocolErrorRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{Type: MsgError, Error: &ProtocolError{Msg: "duplicate registration for site 3"}})
	if m.Error.Msg != "duplicate registration for site 3" {
		t.Errorf("error = %+v", m.Error)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &stream.Frame{Stream: stream.ID{Site: 2, Index: 5}, Seq: 99, CaptureMs: 1234, Payload: []byte{1, 2, 3, 4}}
	m := roundTrip(t, &Message{Type: MsgFrame, Frame: f})
	if m.Frame.Stream != f.Stream || m.Frame.Seq != 99 || !bytes.Equal(m.Frame.Payload, f.Payload) {
		t.Errorf("frame = %+v", m.Frame)
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 1}},
		{Type: MsgFrame, Frame: &stream.Frame{Stream: stream.ID{Site: 1, Index: 0}, Payload: []byte("x")}},
		{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 2}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("message %d type = %d, want %d", i, got.Type, want.Type)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("after last message: err = %v, want EOF", err)
	}
}

func TestWriteUnknownType(t *testing.T) {
	if err := WriteMessage(&bytes.Buffer{}, &Message{Type: 99}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestReadUnknownType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 99})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("unknown wire type accepted")
	}
}

func TestReadZeroLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("zero-length message accepted")
	}
}

func TestReadOversized(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(MaxMessage+1))
	buf.Write(lenBuf[:])
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteMessage(&full, &Message{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 1}}); err != nil {
		t.Fatal(err)
	}
	b := full.Bytes()
	for cut := 1; cut < len(b); cut++ {
		_, err := ReadMessage(bytes.NewReader(b[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}
}

func TestCorruptControlPayload(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("{not json")
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)+1))
	buf.Write(lenBuf[:])
	buf.WriteByte(byte(MsgHello))
	buf.Write(payload)
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("corrupt JSON accepted")
	}
}
