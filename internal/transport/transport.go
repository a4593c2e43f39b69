// Package transport defines the wire protocol of the 3DTI data plane:
// length-prefixed messages over TCP carrying either JSON control payloads
// (registration, subscription, epoch-versioned routing tables and their
// mid-session deltas) or binary 3D video frames.
//
// Message layout (big endian):
//
//	length uint32   // length of type + payload
//	type   uint8
//	payload [length-1]byte
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/tele3d/tele3d/internal/stream"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types.
const (
	// MsgHello registers an RP with the membership server.
	MsgHello MsgType = 1
	// MsgSubscribe carries an RP's aggregated stream subscriptions.
	MsgSubscribe MsgType = 2
	// MsgRoutes delivers the computed routing table to an RP.
	MsgRoutes MsgType = 3
	// MsgFrame carries one encoded 3D video frame between RPs.
	MsgFrame MsgType = 4
	// MsgPeerHello identifies the dialing RP on an RP-to-RP connection.
	MsgPeerHello MsgType = 5
	// MsgResubscribe carries a mid-session subscription diff from an RP
	// to the membership server (a view change, join, or leave).
	MsgResubscribe MsgType = 6
	// MsgRoutesUpdate carries an incremental, epoch-versioned routing
	// delta from the membership server to one affected RP.
	MsgRoutesUpdate MsgType = 7
	// MsgError reports a control-plane protocol error to the peer (e.g.
	// a duplicate site registration) before the connection is closed.
	MsgError MsgType = 8
)

// MaxMessage bounds a single wire message (a frame plus slack).
const MaxMessage = stream.MaxPayload + 4096

// Hello is the registration control message. Epoch and LastResub are
// zero on a session's first registration; a re-registration after a
// membership failover carries the site's last-seen routing epoch for the
// shard (so the successor resumes the epoch sequence above it) and the
// highest resubscribe request ID the site has issued (so retried diffs
// are recognized as duplicates instead of double-applied).
type Hello struct {
	Site       int    `json:"site"`
	Addr       string `json:"addr"` // the RP's peer-facing listen address
	In         int    `json:"in"`   // inbound capacity, streams
	Out        int    `json:"out"`  // outbound capacity, streams
	NumStreams int    `json:"numStreams"`
	// Epoch is the highest routing-table epoch the site has seen from
	// this shard (0 on first registration).
	Epoch uint64 `json:"epoch,omitempty"`
	// LastResub is the highest resubscribe request ID the site has issued
	// (0 on first registration).
	LastResub uint64 `json:"lastResub,omitempty"`
}

// Subscribe carries the site's aggregated subscription set.
type Subscribe struct {
	Site    int         `json:"site"`
	Streams []stream.ID `json:"streams"`
}

// PeerHello identifies the dialing site on a data connection.
type PeerHello struct {
	Site int `json:"site"`
}

// Route describes the forwarding duty for one stream at one RP.
type Route struct {
	Stream   stream.ID `json:"stream"`
	Children []int     `json:"children"` // sites to forward the stream to
}

// Resubscribe is an RP's mid-session subscription diff: streams its
// displays newly need and streams they no longer need. ID is a per-RP
// request counter echoed back in the requester's RoutesUpdate, so the
// RP can match the server's acknowledgement to the request.
type Resubscribe struct {
	Site   int         `json:"site"`
	ID     uint64      `json:"id"`
	Gained []stream.ID `json:"gained,omitempty"`
	Lost   []stream.ID `json:"lost,omitempty"`
}

// Ack is one acknowledged resubscribe request inside a RoutesUpdate: the
// request's ID echoed back with the admission decision for each gained
// stream. A coalesced (batched) update carries one Ack per request it
// folded in, so every requester learns its own outcome even when many
// diffs share a single epoch bump.
type Ack struct {
	ID       uint64      `json:"id"`
	Accepted []stream.ID `json:"accepted,omitempty"`
	Rejected []stream.ID `json:"rejected,omitempty"`
}

// RoutesUpdate is an incremental routing-table delta for one RP. Epoch
// is the shard's table version after the change: an RP applies an
// update only if its epoch is newer than the table it currently runs
// for that shard, so reordered or replayed updates are handled
// deterministically (dropped). Acks lists every resubscribe request the
// update acknowledges.
type RoutesUpdate struct {
	Site  int    `json:"site"`
	Epoch uint64 `json:"epoch"`
	Shard int    `json:"shard,omitempty"`
	Acks  []Ack  `json:"acks,omitempty"`
	// SetForward replaces the forwarding duty for each listed stream; an
	// entry with no children clears the duty for that stream.
	SetForward []Route `json:"setForward,omitempty"`
	// AddAccepted/DelAccepted adjust the set of remote streams this RP
	// receives; AddRejected/DelRejected adjust the unsatisfiable set.
	AddAccepted []stream.ID `json:"addAccepted,omitempty"`
	DelAccepted []stream.ID `json:"delAccepted,omitempty"`
	AddRejected []stream.ID `json:"addRejected,omitempty"`
	DelRejected []stream.ID `json:"delRejected,omitempty"`
	// Peers merges new or changed peer addresses into the RP's table
	// (normally empty mid-session; a rejoined peer's new address). It
	// carries addresses only: link latency is the fabric's.
	Peers map[int]string `json:"peers,omitempty"`
}

// ProtocolError is the server's explanation for rejecting a control
// connection.
type ProtocolError struct {
	Msg string `json:"msg"`
}

// Routes is a membership server's routing directive for one RP. In a
// sharded control plane each shard server sends the directive for the
// trees it owns (streams s with TenantStreamShard(tenant, s, Shards) ==
// Shard); the RP's effective table is the disjoint union across shards.
type Routes struct {
	Site int `json:"site"`
	// Epoch versions the table; RoutesUpdate deltas carry the epochs
	// that follow. Epochs are per shard.
	Epoch uint64 `json:"epoch"`
	// Shard and Shards identify the sending server's slice of the stream
	// space; 0/1 (or 0/0, legacy) means the whole forest.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Peers maps site index to its RP dial address.
	Peers map[int]string `json:"peers"`
	// Forward lists forwarding duties for streams this RP sources or
	// receives.
	Forward []Route `json:"forward"`
	// Accepted lists the remote streams this RP will receive.
	Accepted []stream.ID `json:"accepted"`
	// Rejected lists the subscriptions the overlay could not satisfy.
	Rejected []stream.ID `json:"rejected"`
}

// DiffRoutes returns the delta that turns table old into table new, or
// nil when their forwarding duties, accepted and rejected sets agree.
// The lists in old and new may come in any order; the delta's lists are
// sorted. Site is new's; Epoch, Shard and Acks are left for the caller,
// and Peers is never compared or carried (the mesh is registration-time
// state that only changes through an explicit Peers patch).
func DiffRoutes(old, new *Routes) *RoutesUpdate {
	u := &RoutesUpdate{Site: new.Site}
	oldFw := make(map[stream.ID][]int, len(old.Forward))
	for _, r := range old.Forward {
		oldFw[r.Stream] = r.Children
	}
	newFw := make(map[stream.ID]bool, len(new.Forward))
	for _, r := range new.Forward {
		newFw[r.Stream] = true
		if !slices.Equal(oldFw[r.Stream], r.Children) {
			u.SetForward = append(u.SetForward, r)
		}
	}
	for id := range oldFw {
		if !newFw[id] {
			u.SetForward = append(u.SetForward, Route{Stream: id})
		}
	}
	slices.SortFunc(u.SetForward, func(a, b Route) int { return stream.Compare(a.Stream, b.Stream) })
	u.AddAccepted, u.DelAccepted = diffIDs(old.Accepted, new.Accepted)
	u.AddRejected, u.DelRejected = diffIDs(old.Rejected, new.Rejected)
	if u.Empty() {
		return nil
	}
	return u
}

// Empty reports whether the delta changes no forwarding duty and no
// admission outcome (Acks and Peers are not table changes).
func (u *RoutesUpdate) Empty() bool {
	return len(u.SetForward)+len(u.AddAccepted)+len(u.DelAccepted)+len(u.AddRejected)+len(u.DelRejected) == 0
}

// PatchRoute sets table r's entry for stream id in place — its
// forwarding duty (children, sorted; none clears it) and whether id is
// accepted and rejected there — and appends the change, if any, to u in
// DiffRoutes' terms. r's Forward, Accepted and Rejected must be sorted
// and stay so. Patching a table's changed streams in ascending order into
// an empty u yields exactly DiffRoutes of the tables before and after.
// children is copied, never retained.
func PatchRoute(r *Routes, u *RoutesUpdate, id stream.ID, children []int, accepted, rejected bool) {
	k, had := slices.BinarySearchFunc(r.Forward, id, func(e Route, id stream.ID) int { return stream.Compare(e.Stream, id) })
	var old []int
	if had {
		old = r.Forward[k].Children
	}
	if !slices.Equal(old, children) {
		switch {
		case len(children) == 0:
			r.Forward = slices.Delete(r.Forward, k, k+1)
			u.SetForward = append(u.SetForward, Route{Stream: id})
		case had:
			r.Forward[k].Children = append(old[:0], children...)
			u.SetForward = append(u.SetForward, r.Forward[k])
		default:
			r.Forward = slices.Insert(r.Forward, k, Route{Stream: id, Children: slices.Clone(children)})
			u.SetForward = append(u.SetForward, r.Forward[k])
		}
	}
	r.Accepted, u.AddAccepted, u.DelAccepted = patchID(r.Accepted, id, accepted, u.AddAccepted, u.DelAccepted)
	r.Rejected, u.AddRejected, u.DelRejected = patchID(r.Rejected, id, rejected, u.AddRejected, u.DelRejected)
}

// patchID makes id's presence in the sorted list match want, appending
// an insertion to add or a removal to del.
func patchID(list []stream.ID, id stream.ID, want bool, add, del []stream.ID) ([]stream.ID, []stream.ID, []stream.ID) {
	k, has := slices.BinarySearchFunc(list, id, stream.Compare)
	switch {
	case want && !has:
		return slices.Insert(list, k, id), append(add, id), del
	case !want && has:
		return slices.Delete(list, k, k+1), add, append(del, id)
	}
	return list, add, del
}

// diffIDs returns new-minus-old (added) and old-minus-new (removed),
// each sorted.
func diffIDs(old, new []stream.ID) (added, removed []stream.ID) {
	oldSet := make(map[stream.ID]bool, len(old))
	for _, id := range old {
		oldSet[id] = true
	}
	newSet := make(map[stream.ID]bool, len(new))
	for _, id := range new {
		newSet[id] = true
		if !oldSet[id] {
			added = append(added, id)
		}
	}
	for _, id := range old {
		if !newSet[id] {
			removed = append(removed, id)
		}
	}
	stream.SortIDs(added)
	stream.SortIDs(removed)
	return added, removed
}

// Message is one decoded wire message. Exactly one payload field is set,
// according to Type.
type Message struct {
	Type        MsgType
	Hello       *Hello
	Subscribe   *Subscribe
	PeerHello   *PeerHello
	Routes      *Routes
	Frame       *stream.Frame
	Resubscribe *Resubscribe
	Update      *RoutesUpdate
	Error       *ProtocolError
}

// ErrMessageTooLarge is returned when a length prefix exceeds MaxMessage.
var ErrMessageTooLarge = errors.New("transport: message exceeds size bound")

// prefixSize is the length of the message prefix: length uint32, type
// uint8. A sealed frame's buffer starts with exactly this much room.
const prefixSize = 5

// A sealed frame buffer reserves stream.Headroom bytes for the prefix;
// the index is out of range at compile time if the two ever disagree.
var _ = [1]struct{}{}[stream.Headroom-prefixSize]

// putPrefix writes the message prefix for a payload of n bytes.
func putPrefix(b []byte, t MsgType, n int) {
	binary.BigEndian.PutUint32(b, uint32(n+1))
	b[4] = byte(t)
}

// WriteMessage encodes and writes one message. The message is neither
// retained nor modified: a frame is copied into the written buffer
// (SealFrame + WriteSealed is the path that does not copy).
func WriteMessage(w io.Writer, m *Message) error {
	var payload []byte
	var err error
	switch m.Type {
	case MsgHello:
		payload, err = json.Marshal(m.Hello)
	case MsgSubscribe:
		payload, err = json.Marshal(m.Subscribe)
	case MsgPeerHello:
		payload, err = json.Marshal(m.PeerHello)
	case MsgRoutes:
		payload, err = json.Marshal(m.Routes)
	case MsgResubscribe:
		payload, err = json.Marshal(m.Resubscribe)
	case MsgRoutesUpdate:
		payload, err = json.Marshal(m.Update)
	case MsgError:
		payload, err = json.Marshal(m.Error)
	case MsgFrame:
		payload, err = stream.Encode(m.Frame)
	default:
		return fmt.Errorf("transport: unknown message type %d", m.Type)
	}
	if err != nil {
		return fmt.Errorf("transport: encode type %d: %w", m.Type, err)
	}
	if len(payload)+1 > MaxMessage {
		return ErrMessageTooLarge
	}
	msg := make([]byte, prefixSize, prefixSize+len(payload))
	putPrefix(msg, m.Type, len(payload))
	_, err = w.Write(append(msg, payload...))
	return err
}

// SealFrame freezes f (stream.Frame.Seal) into one complete MsgFrame
// message and returns its bytes. A generated frame is sealed where its
// payload was written, so this copies nothing. The frame and the
// returned bytes are immutable from here on: WriteSealed and every
// relay downstream share them.
func SealFrame(f *stream.Frame) ([]byte, error) {
	msg, err := f.Seal()
	if err != nil {
		return nil, fmt.Errorf("transport: seal frame: %w", err)
	}
	putPrefix(msg, MsgFrame, len(msg)-prefixSize)
	return msg, nil
}

// WriteSealed writes one sealed message — bytes from SealFrame or
// FrameReader.Next, which nothing will ever modify — to w in a single
// Write. On the virtual fabric the bytes are queued by reference, so the
// only copy a hop makes is the reader's, into its own buffer.
func WriteSealed(w io.Writer, msg []byte) error {
	var err error
	if c, ok := w.(*virtualConn); ok {
		_, err = c.wr.enqueue(msg)
	} else {
		_, err = w.Write(msg)
	}
	return err
}

// readFull fills b from the inside of a message, where the stream
// ending is never a clean EOF.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readPrefix reads one message prefix into p (prefixSize bytes of
// scratch) and returns the message's type and payload length. It is one
// Read in the common case; the length is judged as soon as its four
// bytes are in, before the type byte is waited for.
func readPrefix(r io.Reader, p []byte) (MsgType, int, error) {
	got, err := io.ReadAtLeast(r, p, 4)
	if err != nil {
		return 0, 0, err
	}
	n := binary.BigEndian.Uint32(p)
	if n < 1 {
		return 0, 0, errors.New("transport: zero-length message")
	}
	if n > MaxMessage {
		return 0, 0, ErrMessageTooLarge
	}
	if got < prefixSize {
		if err := readFull(r, p[4:]); err != nil {
			return 0, 0, err
		}
	}
	return MsgType(p[4]), int(n) - 1, nil
}

// readFrame reads the n payload bytes of a MsgFrame message whose prefix
// is in p, into one fresh buffer holding the message exactly as it was
// on the wire, and decodes it. The frame's Payload aliases that buffer.
// The frame must fill the message exactly: the buffer is what a relay
// forwards, so bytes the decoder did not account for are rejected here.
func readFrame(r io.Reader, p []byte, n int) (*stream.Frame, []byte, error) {
	msg := make([]byte, prefixSize+n)
	copy(msg, p)
	if err := readFull(r, msg[prefixSize:]); err != nil {
		return nil, nil, err
	}
	f, err := stream.DecodeSealed(msg)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: decode frame: %w", err)
	}
	return f, msg, nil
}

// ReadMessage reads and decodes one message.
func ReadMessage(r io.Reader) (*Message, error) {
	var prefix [prefixSize]byte
	t, n, err := readPrefix(r, prefix[:])
	if err != nil {
		return nil, err
	}
	m := &Message{Type: t}
	if t == MsgFrame {
		if m.Frame, _, err = readFrame(r, prefix[:], n); err != nil {
			return nil, err
		}
		return m, nil
	}
	payload := make([]byte, n)
	if err := readFull(r, payload); err != nil {
		return nil, err
	}
	switch t {
	case MsgHello:
		m.Hello = &Hello{}
		return m, unmarshal(payload, m.Hello)
	case MsgSubscribe:
		m.Subscribe = &Subscribe{}
		return m, unmarshal(payload, m.Subscribe)
	case MsgPeerHello:
		m.PeerHello = &PeerHello{}
		return m, unmarshal(payload, m.PeerHello)
	case MsgRoutes:
		m.Routes = &Routes{}
		return m, unmarshal(payload, m.Routes)
	case MsgResubscribe:
		m.Resubscribe = &Resubscribe{}
		return m, unmarshal(payload, m.Resubscribe)
	case MsgRoutesUpdate:
		m.Update = &RoutesUpdate{}
		return m, unmarshal(payload, m.Update)
	case MsgError:
		m.Error = &ProtocolError{}
		return m, unmarshal(payload, m.Error)
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", t)
	}
}

// FrameReader reads the frames of one data connection: the RP's receive
// path, where a relay needs the message bytes as well as the decoded
// frame and where a per-message Message would be garbage.
type FrameReader struct {
	r      io.Reader
	prefix [prefixSize]byte
}

// NewFrameReader returns a reader of the frames arriving on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame and the sealed message it arrived in, read
// into one fresh buffer that the frame's Payload aliases. Both are
// immutable: the message is what WriteSealed forwards to every child.
// Messages of other types are skipped.
func (fr *FrameReader) Next() (*stream.Frame, []byte, error) {
	for {
		t, n, err := readPrefix(fr.r, fr.prefix[:])
		if err != nil {
			return nil, nil, err
		}
		if t == MsgFrame {
			return readFrame(fr.r, fr.prefix[:], n)
		}
		if _, err := io.CopyN(io.Discard, fr.r, int64(n)); err != nil {
			return nil, nil, err
		}
	}
}

func unmarshal(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("transport: decode control payload: %w", err)
	}
	return nil
}
