package rp

// integrity_test.go checks what relay-by-reference puts at risk and what
// the benchmark cannot see (it checks sequence and order, not bytes):
// that every delivered payload is byte for byte the published one, even
// while the application still holds many earlier deliveries, and that
// every frame a node reads off a connection lands in exactly one
// per-stream counter.

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

const (
	treeSites   = 13 // site 0 publishes, 1..12 subscribe
	treeCameras = 4
	treeSeed    = 4242 // site 0's generator seed
	treeWindow  = 16   // ticks the publisher may run ahead of the slowest subscriber
)

// teeNetwork records every byte the node reads from its inbound (data)
// connections, so a test can recount the frames the node was sent with
// the plain message decoder. Dialed connections are passed through
// untouched: the writers must see the fabric's own conn type.
type teeNetwork struct {
	transport.Network
	mu    sync.Mutex
	conns []*teeConn
}

func (t *teeNetwork) Listen(addr string) (net.Listener, error) {
	ln, err := t.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &teeListener{Listener: ln, net: t}, nil
}

type teeListener struct {
	net.Listener
	net *teeNetwork
}

func (l *teeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &teeConn{Conn: c}
	l.net.mu.Lock()
	l.net.conns = append(l.net.conns, tc)
	l.net.mu.Unlock()
	return tc, nil
}

type teeConn struct {
	net.Conn
	mu  sync.Mutex
	got bytes.Buffer
}

func (c *teeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.got.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// framesRead decodes everything the node has read so far and counts the
// frames per stream. whole is false while some connection's capture ends
// inside a message.
func (t *teeNetwork) framesRead(tb testing.TB) (perStream map[stream.ID]int, whole bool) {
	tb.Helper()
	t.mu.Lock()
	conns := append([]*teeConn(nil), t.conns...)
	t.mu.Unlock()
	perStream, whole = make(map[stream.ID]int), true
	for _, c := range conns {
		c.mu.Lock()
		r := bytes.NewReader(append([]byte(nil), c.got.Bytes()...))
		c.mu.Unlock()
		for {
			m, err := transport.ReadMessage(r)
			if err == io.EOF {
				break
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				whole = false
				break
			}
			if err != nil {
				tb.Fatalf("inbound byte stream does not decode: %v", err)
			}
			if m.Type == transport.MsgFrame {
				perStream[m.Frame.Stream]++
			}
		}
	}
	return perStream, whole
}

// relayTree is a booted 13-site session: depth 2, fan-out 3 per stream,
// every subscriber asking for all four of site 0's cameras.
type relayTree struct {
	srv   *membership.Server
	nodes []*Node
	tees  []*teeNetwork
	// want[q][k] is the hash of the payload site 0 publishes as frame k
	// of camera q, from an independent generator with the same seed.
	want [][]uint64
}

func payloadHash(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// bootRelayTree starts the session on the virtual fabric or, with
// virtual false, on loopback TCP.
func bootRelayTree(t *testing.T, virtual bool, ticks int) *relayTree {
	t.Helper()
	cost := make([][]float64, treeSites)
	for i := range cost {
		cost[i] = make([]float64, treeSites)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 1
			}
		}
	}
	host := tcpFabric.Host
	if virtual {
		host = transport.NewVirtualNetwork(transport.VirtualConfig{Seed: 3}).Host
	}
	var subs []stream.ID
	for q := 0; q < treeCameras; q++ {
		subs = append(subs, stream.ID{Site: 0, Index: q})
	}
	rt := &relayTree{tees: make([]*teeNetwork, treeSites)}
	var cleanup func()
	rt.srv, rt.nodes, cleanup = startSessionWith(t,
		membership.Config{
			N: treeSites, Cost: cost, Bcost: 2.5, Algorithm: overlay.RJ{}, Seed: 1,
			Network: host(transport.ShardServerHost(0)),
		},
		func(i int, membershipAddr string) Config {
			rt.tees[i] = &teeNetwork{Network: host(transport.SiteHost(i))}
			cfg := Config{
				Site: i, Membership: membershipAddr, In: treeCameras, Out: 3 * treeCameras,
				Cameras: treeCameras, Profile: testProfile(), Seed: treeSeed + int64(i),
				Network: rt.tees[i], DeliveryBuffer: 4096,
			}
			if i > 0 {
				cfg.Subscriptions = subs
			}
			return cfg
		})
	t.Cleanup(cleanup)
	if n := rt.srv.Forest().NumRejected(); n > 0 {
		t.Fatalf("overlay rejected %d subscriptions", n)
	}

	ref, err := stream.NewRig(0, treeCameras, testProfile(), treeSeed)
	if err != nil {
		t.Fatal(err)
	}
	rt.want = make([][]uint64, treeCameras)
	for k := 0; k < ticks; k++ {
		for q, f := range ref.Tick() {
			rt.want[q] = append(rt.want[q], payloadHash(f.Payload))
		}
	}
	return rt
}

// subscriber drains one node's display feed the way an application that
// buffers frames would: it keeps the last 64 deliveries and checks each
// only as it falls out of that window, so a payload overwritten after
// delivery (a reused or shared buffer) is caught.
type subscriber struct {
	t      *testing.T
	site   int
	want   [][]uint64
	held   []Delivery
	next   [treeCameras]uint64 // lowest sequence number still acceptable
	frames atomic.Int64        // deliveries taken off the feed
}

func (s *subscriber) verify(d Delivery) {
	f := d.Frame
	if f.Stream.Site != 0 || f.Stream.Index < 0 || f.Stream.Index >= treeCameras || f.Seq >= uint64(len(s.want[0])) {
		s.t.Errorf("site %d: delivered %v seq %d, which nobody published", s.site, f.Stream, f.Seq)
		return
	}
	if got := payloadHash(f.Payload); got != s.want[f.Stream.Index][f.Seq] {
		s.t.Errorf("site %d: %v seq %d: payload differs from the published one", s.site, f.Stream, f.Seq)
	}
}

func (s *subscriber) take(d Delivery) {
	q := d.Frame.Stream.Index
	if q >= 0 && q < treeCameras {
		if d.Frame.Seq < s.next[q] {
			s.t.Errorf("site %d: %v seq %d delivered after seq %d", s.site, d.Frame.Stream, d.Frame.Seq, s.next[q]-1)
		}
		s.next[q] = d.Frame.Seq + 1
	}
	s.held = append(s.held, d)
	if len(s.held) > 64 {
		s.verify(s.held[0])
		s.held = s.held[1:]
	}
	s.frames.Add(1)
}

// run consumes the feed until stop closes, then whatever is still
// queued, and verifies the held tail.
func (s *subscriber) run(feed <-chan Delivery, stop <-chan struct{}) {
	for running := true; running; {
		select {
		case d := <-feed:
			s.take(d)
		case <-stop:
			running = false
		}
	}
	for more := true; more; {
		select {
		case d := <-feed:
			s.take(d)
		default:
			more = false
		}
	}
	for _, d := range s.held {
		s.verify(d)
	}
}

// startSubscribers launches one subscriber per receiving site; the
// returned function stops them and waits for their final checks.
func (rt *relayTree) startSubscribers(t *testing.T) (subs []*subscriber, stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < treeSites; i++ {
		s := &subscriber{t: t, site: i, want: rt.want}
		subs = append(subs, s)
		wg.Add(1)
		go func(feed <-chan Delivery) {
			defer wg.Done()
			s.run(feed, done)
		}(rt.nodes[i].Deliveries())
	}
	return subs, func() { close(done); wg.Wait() }
}

func testPayloadIntegrity(t *testing.T, virtual bool) {
	const ticks = 240
	rt := bootRelayTree(t, virtual, ticks)
	subs, stop := rt.startSubscribers(t)
	slowest := func() int64 {
		low := subs[0].frames.Load()
		for _, s := range subs[1:] {
			low = min(low, s.frames.Load())
		}
		return low
	}
	for k := 0; k < ticks; k++ {
		pollUntil(t, 10*time.Second, "the slowest subscriber to come within the window", func() bool {
			return slowest() >= int64((k-treeWindow)*treeCameras)
		})
		if err := rt.nodes[0].PublishTick(); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, 10*time.Second, "every frame to reach every subscriber", func() bool {
		return slowest() == ticks*treeCameras
	})
	stop()
	for _, n := range rt.nodes[1:] {
		for id, st := range n.Stats() {
			if st.Frames != ticks || st.Stale+st.Duplicates+st.Dropped != 0 {
				t.Errorf("site %d %v: %+v, want %d clean frames", n.Site(), id, st, ticks)
			}
		}
		if err := n.Err(); err != nil {
			t.Errorf("site %d: %v", n.Site(), err)
		}
	}
}

// TestPayloadIntegrityVirtual runs the relay tree on the in-memory
// fabric, where sealed bytes cross a hop by reference.
func TestPayloadIntegrityVirtual(t *testing.T) { testPayloadIntegrity(t, true) }

// TestPayloadIntegrityTCP runs the same tree over loopback sockets, where
// every hop's sealed bytes cross a kernel socket.
func TestPayloadIntegrityTCP(t *testing.T) { testPayloadIntegrity(t, false) }

// TestEveryReceivedFrameCountedOnce publishes while three subscribers —
// relays and leaves — keep dropping and regaining a stream, so frames
// race routing-table swaps on every path: accepted, relay-only (stale),
// duplicate across a reroute, and the locked slow path of a stream the
// snapshot no longer knows. At a quiet moment afterwards each node's
// counters must add up, per stream, to the frames it actually read:
// Frames + Dropped + Stale + Duplicates, each frame in exactly one.
func TestEveryReceivedFrameCountedOnce(t *testing.T) {
	const ticks = 300
	rt := bootRelayTree(t, true, ticks)
	subs, stop := rt.startSubscribers(t)

	ctx, cancel := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	for i, site := range []int{2, 7, 11} {
		id := stream.ID{Site: 0, Index: i}
		churn.Add(1)
		go func(n *Node) {
			defer churn.Done()
			for ctx.Err() == nil {
				if _, err := n.Resubscribe(ctx, nil, []stream.ID{id}); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
				if _, err := n.Resubscribe(ctx, []stream.ID{id}, nil); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(rt.nodes[site])
	}
	for k := 0; k < ticks; k++ {
		if err := rt.nodes[0].PublishTick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	cancel()
	churn.Wait()

	// Quiescence: two looks 50 ms apart see the same frames read and the
	// books balanced.
	var last int
	deadline := time.Now().Add(10 * time.Second)
	for settled := false; !settled; {
		if time.Now().After(deadline) {
			t.Fatal("per-stream counters never added up to the frames read")
		}
		time.Sleep(50 * time.Millisecond)
		total, balanced := 0, true
		for i, n := range rt.nodes {
			read, whole := rt.tees[i].framesRead(t)
			stats := n.Stats()
			balanced = balanced && whole && len(stats) == len(read)
			for id, got := range read {
				st := stats[id]
				total += got
				balanced = balanced && st.Frames+st.Dropped+st.Stale+st.Duplicates == got
			}
		}
		settled = balanced && total == last && total > 0
		last = total
	}
	stop()

	delivered := 0
	for _, s := range subs {
		delivered += int(s.frames.Load())
	}
	accounted := 0
	for _, n := range rt.nodes {
		for id, st := range n.Stats() {
			if st.Dropped != 0 {
				t.Errorf("site %d %v: %d drops with a drained feed", n.Site(), id, st.Dropped)
			}
			accounted += st.Frames
		}
	}
	if delivered != accounted {
		t.Errorf("subscribers took %d deliveries, nodes count %d delivered frames", delivered, accounted)
	}
	if delivered < ticks*treeCameras {
		t.Errorf("only %d deliveries in total: the session barely ran", delivered)
	}
}
