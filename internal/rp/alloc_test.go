package rp

// alloc_test.go pins the data plane's allocation behaviour the way
// internal/overlay/alloc_test.go pins the core's: a relay hop allocates
// the buffer it reads a frame into and the Frame it delivers, and
// nothing on the forward side — the children's writers are handed the
// bytes that were read; a publishing tick allocates one buffer and one
// Frame per camera, plus the slice Rig.Tick returns them in.

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// relayRig is one unstarted node with live links to three children on a
// perfect virtual fabric: the real peer(), peerLink.run and pipe code,
// with the children's ends of the connections held by the test.
type relayRig struct {
	node     *Node
	children []net.Conn
	buf      []byte
}

func newRelayRig(t *testing.T, cameras int, forward []transport.Route, accepted []stream.ID) *relayRig {
	t.Helper()
	fabric := transport.NewVirtualNetwork(transport.VirtualConfig{Seed: 1})
	node, err := New(Config{
		Site: 1, Cameras: cameras, Profile: testProfile(), Seed: 9,
		Network: fabric.Host(transport.SiteHost(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	node.ctx, node.cancel = context.WithCancel(context.Background())
	r := &relayRig{node: node, buf: make([]byte, 64<<10)}
	peers := make(map[int]string)
	for _, child := range []int{2, 3, 4} {
		ln, err := fabric.Host(transport.SiteHost(child)).Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		peers[child] = ln.Addr().String()
		link := node.peer(child, &routingTable{peers: peers})
		if link == nil {
			t.Fatalf("no link to child %d", child)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if m, err := transport.ReadMessage(conn); err != nil || m.Type != transport.MsgPeerHello {
			t.Fatalf("child %d handshake: %+v, %v", child, m, err)
		}
		r.children = append(r.children, conn)
	}
	t.Cleanup(func() {
		node.cancel()
		for _, c := range r.children {
			c.Close()
		}
		node.wg.Wait()
	})
	node.installShardRoutes([]*transport.Routes{{Site: 1, Epoch: 1, Peers: peers, Forward: forward, Accepted: accepted}})
	return r
}

// drain reads one frame message of the given size off every child
// connection, so the writers have finished before the caller returns.
func (r *relayRig) drain(t *testing.T, size, frames int) {
	for _, c := range r.children {
		if _, err := io.ReadFull(c, r.buf[:size*frames]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelayHopAllocs: receiving one frame and forwarding it to three
// children costs the read buffer and the Frame; forwarding alone costs
// nothing.
func TestRelayHopAllocs(t *testing.T) {
	src := stream.ID{Site: 0, Index: 0}
	r := newRelayRig(t, 1, []transport.Route{{Stream: src, Children: []int{2, 3, 4}}}, []stream.ID{src})
	n, tbl := r.node, r.node.table()

	rig, err := stream.NewRig(0, 1, testProfile(), 5)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var wire bytes.Buffer
	var size int
	for k := 0; k < runs+2; k++ { // AllocsPerRun adds a warm-up run
		msg, err := transport.SealFrame(rig.Tick()[0])
		if err != nil {
			t.Fatal(err)
		}
		size = len(msg)
		wire.Write(msg)
	}
	frames := transport.NewFrameReader(&wire)

	var last []byte
	hop := func() {
		f, msg, err := frames.Next()
		if err != nil {
			t.Fatal(err)
		}
		n.receive(f, msg, tbl)
		if d := <-n.Deliveries(); d.Frame != f {
			t.Fatal("delivered a different frame")
		}
		r.drain(t, size, 1)
		last = msg
	}
	hop() // reach the pipes' steady-state capacity
	if allocs := testing.AllocsPerRun(runs, hop); allocs != 2 {
		t.Errorf("relay hop allocates %.1f times per frame, want 2 (read buffer + Frame)", allocs)
	}
	forward := func() {
		n.dispatch(tbl.streams[src].children(), last, tbl)
		r.drain(t, size, 1)
	}
	if allocs := testing.AllocsPerRun(runs, forward); allocs != 0 {
		t.Errorf("forwarding to 3 children allocates %.1f times per frame, want 0", allocs)
	}
	if !bytes.Equal(r.buf[:size], last) {
		t.Error("a child read different bytes from the ones forwarded")
	}
	st := n.Stats()[src]
	if st.Frames != runs+2 || st.Stale+st.Duplicates+st.Dropped != 0 {
		t.Errorf("stats = %+v, want %d clean frames", st, runs+2)
	}
}

// TestPublishTickAllocs: a tick that fans every camera's frame out to
// three children allocates one buffer and one Frame per camera and the
// slice Rig.Tick returns — no encode buffer, no per-child copy.
func TestPublishTickAllocs(t *testing.T) {
	const cameras = 4
	var forward []transport.Route
	for q := 0; q < cameras; q++ {
		forward = append(forward, transport.Route{Stream: stream.ID{Site: 1, Index: q}, Children: []int{2, 3, 4}})
	}
	r := newRelayRig(t, cameras, forward, nil)
	size := stream.Headroom + stream.EncodedSize(&stream.Frame{Payload: make([]byte, testProfile().FrameBytes())})
	tick := func() {
		if err := r.node.PublishTick(); err != nil {
			t.Fatal(err)
		}
		r.drain(t, size, cameras)
	}
	tick()
	if allocs := testing.AllocsPerRun(200, tick); allocs != 2*cameras+1 {
		t.Errorf("PublishTick allocates %.1f times for %d cameras, want %d", allocs, cameras, 2*cameras+1)
	}
	if got := r.node.Published(); got != 202*cameras {
		t.Errorf("Published = %d, want %d", got, 202*cameras)
	}
}
