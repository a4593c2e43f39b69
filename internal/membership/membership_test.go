package membership

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

func TestConfigValidation(t *testing.T) {
	cost := [][]float64{{0, 5}, {5, 0}}
	if _, err := New(Config{N: 1, Cost: cost[:1], Bcost: 10}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(Config{N: 2, Cost: cost[:1], Bcost: 10}); err == nil {
		t.Error("short cost matrix accepted")
	}
	if _, err := New(Config{N: 2, Cost: cost, Bcost: 0}); err == nil {
		t.Error("zero Bcost accepted")
	}
	srv, err := New(Config{N: 2, Cost: cost, Bcost: 10})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if srv.Addr() == "" {
		t.Error("no listen address")
	}
	if srv.Forest() != nil {
		t.Error("forest non-nil before registration")
	}
	srv.ln.Close()
}

// waitRegistered blocks until n sites hold a registration slot.
func waitRegistered(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		got := len(srv.sites)
		srv.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("registration count never reached %d", n)
}

// register performs the RP-side handshake manually.
func register(t *testing.T, addr string, hello transport.Hello, subs []stream.ID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteMessage(conn, &transport.Message{Type: transport.MsgHello, Hello: &hello}); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteMessage(conn, &transport.Message{
		Type: transport.MsgSubscribe, Subscribe: &transport.Subscribe{Site: hello.Site, Streams: subs},
	}); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServeComputesAndDistributesRoutes(t *testing.T) {
	cost := [][]float64{{0, 7}, {7, 0}}
	srv, err := New(Config{N: 2, Cost: cost, Bcost: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	c0 := register(t, srv.Addr(), transport.Hello{Site: 0, Addr: "127.0.0.1:1111", In: 10, Out: 10, NumStreams: 2}, nil)
	defer c0.Close()
	c1 := register(t, srv.Addr(), transport.Hello{Site: 1, Addr: "127.0.0.1:2222", In: 10, Out: 10, NumStreams: 2},
		[]stream.ID{{Site: 0, Index: 0}})
	defer c1.Close()

	m0, err := transport.ReadMessage(c0)
	if err != nil || m0.Type != transport.MsgRoutes {
		t.Fatalf("site 0 routes: %v %v", m0, err)
	}
	m1, err := transport.ReadMessage(c1)
	if err != nil || m1.Type != transport.MsgRoutes {
		t.Fatalf("site 1 routes: %v %v", m1, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Site 0 must forward its stream 0 to site 1.
	if len(m0.Routes.Forward) != 1 || m0.Routes.Forward[0].Stream != (stream.ID{Site: 0, Index: 0}) {
		t.Fatalf("site 0 forward = %+v", m0.Routes.Forward)
	}
	if ch := m0.Routes.Forward[0].Children; len(ch) != 1 || ch[0] != 1 {
		t.Errorf("children = %v", ch)
	}
	if m0.Routes.Peers[1] != "127.0.0.1:2222" {
		t.Errorf("peers = %v", m0.Routes.Peers)
	}
	if len(m1.Routes.Accepted) != 1 || len(m1.Routes.Rejected) != 0 {
		t.Errorf("site 1 accepted/rejected = %v / %v", m1.Routes.Accepted, m1.Routes.Rejected)
	}
	if srv.Forest() == nil {
		t.Error("forest not exposed after ready")
	}
}

func TestServeRejectsDuplicateSite(t *testing.T) {
	// A second registration for an already-taken site index must receive
	// an explicit protocol error — and the session must still assemble
	// once the legitimate remaining site shows up.
	cost := [][]float64{{0, 7}, {7, 0}}
	srv, err := New(Config{N: 2, Cost: cost, Bcost: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	c0 := register(t, srv.Addr(), transport.Hello{Site: 0, Addr: "a", In: 5, Out: 5, NumStreams: 1}, nil)
	defer c0.Close()
	waitRegistered(t, srv, 1)
	c0dup := register(t, srv.Addr(), transport.Hello{Site: 0, Addr: "b", In: 5, Out: 5, NumStreams: 1}, nil)
	defer c0dup.Close()

	m, err := transport.ReadMessage(c0dup)
	if err != nil {
		t.Fatalf("duplicate conn: %v", err)
	}
	if m.Type != transport.MsgError {
		t.Fatalf("duplicate got type %d, want MsgError", m.Type)
	}
	if !strings.Contains(m.Error.Msg, "duplicate") {
		t.Errorf("error msg = %q", m.Error.Msg)
	}
	// The duplicate's connection is closed after the error.
	if _, err := transport.ReadMessage(c0dup); err == nil {
		t.Error("duplicate connection left open")
	}

	c1 := register(t, srv.Addr(), transport.Hello{Site: 1, Addr: "c", In: 5, Out: 5, NumStreams: 1}, nil)
	defer c1.Close()
	if err := <-done; err != nil {
		t.Fatalf("session failed after rejecting duplicate: %v", err)
	}
	// The original site 0 registration keeps its routes (Addr "a").
	m0, err := transport.ReadMessage(c0)
	if err != nil || m0.Type != transport.MsgRoutes {
		t.Fatalf("site 0 routes: %v %v", m0, err)
	}
	if m0.Routes.Peers[0] != "a" {
		t.Errorf("site 0 addr = %q, want the first registration's", m0.Routes.Peers[0])
	}
}

func TestResubscribeAppliesDiffAndPushesDeltas(t *testing.T) {
	// Three sites; site 2 initially subscribes to nothing, then gains
	// stream 0:0 mid-session. Site 0 (the source) must receive a forward
	// delta, and site 2 must receive an acknowledgement update echoing
	// the request ID with the stream accepted.
	cost := [][]float64{
		{0, 5, 9},
		{5, 0, 6},
		{9, 6, 0},
	}
	srv, err := New(Config{N: 3, Cost: cost, Bcost: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	s00 := stream.ID{Site: 0, Index: 0}
	c0 := register(t, srv.Addr(), transport.Hello{Site: 0, Addr: "a:1", In: 10, Out: 10, NumStreams: 1}, nil)
	defer c0.Close()
	c1 := register(t, srv.Addr(), transport.Hello{Site: 1, Addr: "b:2", In: 10, Out: 10, NumStreams: 1},
		[]stream.ID{s00})
	defer c1.Close()
	c2 := register(t, srv.Addr(), transport.Hello{Site: 2, Addr: "c:3", In: 10, Out: 10, NumStreams: 1}, nil)
	defer c2.Close()

	conns := []net.Conn{c0, c1, c2}
	for i, c := range conns {
		m, err := transport.ReadMessage(c)
		if err != nil || m.Type != transport.MsgRoutes {
			t.Fatalf("site %d routes: %v %v", i, m, err)
		}
		if m.Routes.Epoch != 1 {
			t.Fatalf("site %d initial epoch = %d, want 1", i, m.Routes.Epoch)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	if err := transport.WriteMessage(c2, &transport.Message{
		Type:        transport.MsgResubscribe,
		Resubscribe: &transport.Resubscribe{Site: 2, ID: 9, Gained: []stream.ID{s00}},
	}); err != nil {
		t.Fatal(err)
	}

	// Site 2's acknowledgement: epoch 2, request 9 acked, the stream accepted.
	m2, err := transport.ReadMessage(c2)
	if err != nil || m2.Type != transport.MsgRoutesUpdate {
		t.Fatalf("site 2 update: %v %v", m2, err)
	}
	if m2.Update.Epoch != 2 || len(m2.Update.Acks) == 0 || m2.Update.Acks[0].ID != 9 {
		t.Errorf("ack epoch/acks = %d/%+v, want 2/[9]", m2.Update.Epoch, m2.Update.Acks)
	}
	if len(m2.Update.AddAccepted) != 1 || m2.Update.AddAccepted[0] != s00 {
		t.Errorf("ack addAccepted = %v", m2.Update.AddAccepted)
	}

	// Some site gained a forwarding duty toward site 2 (the source
	// directly, or site 1 as relay). Site 2's own table has no forward
	// change, so check the other two.
	sawForward := false
	for _, c := range []net.Conn{c0, c1} {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, err := transport.ReadMessage(c)
		if err != nil {
			continue // this site was unaffected; no update pushed
		}
		if m.Type != transport.MsgRoutesUpdate || m.Update.Epoch != 2 {
			t.Fatalf("unexpected push: %+v", m)
		}
		for _, r := range m.Update.SetForward {
			if r.Stream == s00 {
				for _, ch := range r.Children {
					if ch == 2 {
						sawForward = true
					}
				}
			}
		}
	}
	if !sawForward {
		t.Error("no site received a forward delta toward site 2")
	}
	if got := srv.Epoch(); got != 2 {
		t.Errorf("server epoch = %d, want 2", got)
	}
	if f := srv.Forest(); f != nil {
		tr := f.Tree(s00)
		if tr == nil || !tr.Contains(2) {
			t.Error("forest tree does not contain the new subscriber")
		}
	}
}

func TestServeContextCancel(t *testing.T) {
	cost := [][]float64{{0, 7}, {7, 0}}
	srv, err := New(Config{N: 2, Cost: cost, Bcost: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after cancellation with no registrations")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

func TestServeRejectsOutOfRangeSite(t *testing.T) {
	cost := [][]float64{{0, 7}, {7, 0}}
	srv, err := New(Config{N: 2, Cost: cost, Bcost: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := transport.WriteMessage(bad, &transport.Message{
		Type: transport.MsgHello, Hello: &transport.Hello{Site: 9, Addr: "x", In: 5, Out: 5, NumStreams: 1},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := transport.ReadMessage(bad)
	if err != nil || m.Type != transport.MsgError {
		t.Fatalf("out-of-range got %v %v, want MsgError", m, err)
	}

	c0 := register(t, srv.Addr(), transport.Hello{Site: 0, Addr: "y", In: 5, Out: 5, NumStreams: 1}, nil)
	defer c0.Close()
	c1 := register(t, srv.Addr(), transport.Hello{Site: 1, Addr: "z", In: 5, Out: 5, NumStreams: 1}, nil)
	defer c1.Close()
	if err := <-done; err != nil {
		t.Fatalf("session failed after rejecting bad registration: %v", err)
	}
}
