package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
)

// pair dials host b's listener from host a and returns both conn ends.
func pair(t *testing.T, v *VirtualNetwork, a, b string) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := v.Host(b).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	dialer, err := v.Host(a).DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acceptor := <-accepted
	if acceptor == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { dialer.Close(); acceptor.Close() })
	return dialer, acceptor
}

// TestVirtualRoundTrip checks the wire protocol runs unchanged over the
// virtual fabric in both directions.
func TestVirtualRoundTrip(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 1})
	dialer, acceptor := pair(t, v, "site-0", "site-1")

	if err := WriteMessage(dialer, &Message{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 3}}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(acceptor)
	if err != nil || m.Type != MsgPeerHello || m.PeerHello.Site != 3 {
		t.Fatalf("forward direction: %+v, %v", m, err)
	}
	if err := WriteMessage(acceptor, &Message{Type: MsgError, Error: &ProtocolError{Msg: "ok"}}); err != nil {
		t.Fatal(err)
	}
	m, err = ReadMessage(dialer)
	if err != nil || m.Type != MsgError || m.Error.Msg != "ok" {
		t.Fatalf("reverse direction: %+v, %v", m, err)
	}
}

// TestVirtualLatency checks a profiled link delays delivery by at least
// its one-way latency, while an unprofiled link delivers promptly.
func TestVirtualLatency(t *testing.T) {
	const latMs = 60.0
	v := NewVirtualNetwork(VirtualConfig{
		Seed: 2,
		Links: func(from, to string) LinkProfile {
			if from == "slow" || to == "slow" {
				return LinkProfile{LatencyMs: latMs}
			}
			return LinkProfile{}
		},
	})
	dialer, acceptor := pair(t, v, "slow", "site-0")
	start := time.Now()
	if _, err := dialer.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Duration(latMs*0.9)*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~%vms", elapsed, latMs)
	}

	fast1, fast2 := pair(t, v, "site-0", "site-1")
	start = time.Now()
	fast1.Write([]byte("y"))
	if _, err := io.ReadFull(fast2, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("perfect link took %v", elapsed)
	}
}

// TestVirtualOrderPreservedUnderJitter checks jitter never reorders the
// byte stream: chunks written in order arrive in order.
func TestVirtualOrderPreservedUnderJitter(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{
		Seed:  3,
		Links: func(_, _ string) LinkProfile { return LinkProfile{LatencyMs: 5, JitterMs: 5, Loss: 0.3} },
	})
	dialer, acceptor := pair(t, v, "a", "b")
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			dialer.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, n)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d = %d: stream reordered", i, buf[i])
		}
	}
}

// TestVirtualLossPenalty checks Loss=1 delays every chunk by the
// retransmission penalty instead of dropping it.
func TestVirtualLossPenalty(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{
		Seed:  4,
		Links: func(_, _ string) LinkProfile { return LinkProfile{Loss: 1} },
	})
	dialer, acceptor := pair(t, v, "a", "b")
	start := time.Now()
	dialer.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Duration(lossPenaltyMs*0.9)*time.Millisecond {
		t.Fatalf("lost chunk arrived after %v, want >= ~%vms penalty", elapsed, lossPenaltyMs)
	}
}

// TestVirtualBandwidth checks serialization delay: a burst of chunks over
// a narrow link takes at least bytes*8/kbps to drain.
func TestVirtualBandwidth(t *testing.T) {
	// 80 kbit/s: a 1000-byte burst serializes in ~100ms.
	v := NewVirtualNetwork(VirtualConfig{
		Seed:  5,
		Links: func(_, _ string) LinkProfile { return LinkProfile{BandwidthKbps: 80} },
	})
	dialer, acceptor := pair(t, v, "a", "b")
	start := time.Now()
	for i := 0; i < 10; i++ {
		dialer.Write(make([]byte, 100))
	}
	buf := make([]byte, 1000)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1000B over 80kbps drained in %v, want >= ~100ms", elapsed)
	}
}

// TestVirtualPartitionStalls checks a severed link stalls delivery (data
// queues, the reader blocks) and a heal releases the queued data.
func TestVirtualPartitionStalls(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 6})
	dialer, acceptor := pair(t, v, "a", "b")

	v.Partition([]string{"a"}, []string{"b"})
	if _, err := dialer.Write([]byte("x")); err != nil {
		t.Fatalf("write on severed link must queue, got %v", err)
	}
	got := make(chan error, 1)
	buf := make([]byte, 1)
	go func() {
		_, err := io.ReadFull(acceptor, buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("read completed across a partition (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	v.Heal([]string{"a"}, []string{"b"})
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healed link never delivered")
	}
	if buf[0] != 'x' {
		t.Fatalf("delivered %q", buf)
	}
}

// TestVirtualProfileOverride checks SetLinkProfile takes effect for
// subsequent writes and ClearLinkProfile restores the static model.
func TestVirtualProfileOverride(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 7})
	dialer, acceptor := pair(t, v, "a", "b")
	v.SetLinkProfile("a", "b", LinkProfile{LatencyMs: 80})
	start := time.Now()
	dialer.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Fatalf("override not applied: %v", elapsed)
	}
	v.ClearLinkProfile("a", "b")
	start = time.Now()
	dialer.Write([]byte("y"))
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("override not cleared: %v", elapsed)
	}
}

// TestVirtualDialRefused checks dialing a nonexistent address fails
// immediately and a closed listener rejects dials and pending accepts.
func TestVirtualDialRefused(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 8})
	if _, err := v.Host("a").DialContext(context.Background(), "vnet://nobody/1"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
	ln, err := v.Host("b").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()
	ln.Close()
	if err := <-acceptErr; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on closed listener: %v", err)
	}
	if _, err := v.Host("a").DialContext(context.Background(), ln.Addr().String()); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.Host("a").DialContext(ctx, "anything"); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

// TestVirtualListenReusesOwnAddress pins the rebind rule a restarted
// server relies on: a host gets back its own freed address, and a dial
// there reaches the new listener; a held address is refused; every other
// request gets a fresh unique address.
func TestVirtualListenReusesOwnAddress(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 10})
	h := v.Host("m")
	first, err := h.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr().String()
	if _, err := h.Listen(addr); err == nil || !strings.Contains(err.Error(), "address in use") {
		t.Fatalf("listen on a held address: err %v, want address in use", err)
	}
	first.Close()
	again, err := h.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Addr().String(); got != addr {
		t.Fatalf("rebind got %q, want the freed %q", got, addr)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := again.Accept()
		accepted <- c
	}()
	c, err := v.Host("site-0").DialContext(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial the rebound address: %v", err)
	}
	c.Close()
	if a := <-accepted; a == nil {
		t.Fatal("the rebound listener accepted nothing")
	} else {
		a.Close()
	}

	other, err := v.Host("n").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	seen := map[string]bool{addr: true, other.Addr().String(): true}
	for _, req := range []string{other.Addr().String(), "127.0.0.1:0", ""} {
		ln, err := h.Listen(req)
		if err != nil {
			t.Fatalf("listen %q: %v", req, err)
		}
		defer ln.Close()
		got := ln.Addr().String()
		if seen[got] || !strings.HasPrefix(got, "vnet://m/") {
			t.Fatalf("listen %q got %q, want a fresh address of host m", req, got)
		}
		seen[got] = true
	}
}

// TestVirtualCloseSemantics checks a closed writer drains into EOF on the
// reader, like a TCP FIN.
func TestVirtualCloseSemantics(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 9})
	dialer, acceptor := pair(t, v, "a", "b")
	dialer.Write([]byte("bye"))
	dialer.Close()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(acceptor, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "bye" {
		t.Fatalf("drained %q", buf)
	}
	if _, err := acceptor.Read(buf); err != io.EOF {
		t.Fatalf("read after close: %v, want EOF", err)
	}
	if _, err := acceptor.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write to closed peer: %v", err)
	}
}

// TestVirtualCloseDrainsDelayedLink checks a writer that closes while
// its chunks are still in flight on a slow link: the reader gets every
// byte in order, each chunk at its due time, and then EOF. The close
// lands while the reader is parked on the head chunk's due time, so a
// close that disarmed the pipe's timer would strand it there.
func TestVirtualCloseDrainsDelayedLink(t *testing.T) {
	const lat = 25 * time.Millisecond
	v := NewVirtualNetwork(VirtualConfig{
		Seed:  13,
		Links: func(_, _ string) LinkProfile { return LinkProfile{LatencyMs: 25} },
	})
	dialer, acceptor := pair(t, v, "site-0", "site-1")
	p := dialer.(*virtualConn).wr

	type result struct {
		got []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		var got []byte
		buf := make([]byte, 4)
		for {
			n, err := acceptor.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				done <- result{got, err}
				return
			}
		}
	}()
	start := time.Now()
	for _, chunk := range []string{"one", "two", "three"} {
		if _, err := dialer.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	// Close once the reader waits on the head chunk's due time.
	for parked := false; !parked; {
		p.mu.Lock()
		parked = !p.armed.IsZero()
		p.mu.Unlock()
		if !parked {
			time.Sleep(100 * time.Microsecond)
		}
	}
	dialer.Close()

	select {
	case r := <-done:
		if string(r.got) != "onetwothree" || r.err != io.EOF {
			t.Fatalf("drained %q then %v, want %q then EOF", r.got, r.err, "onetwothree")
		}
		if elapsed := time.Since(start); elapsed < lat*9/10 {
			t.Fatalf("drained after %v, before the link's %v latency", elapsed, lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reader still parked 5s after the writer closed a %v link", lat)
	}
}

// TestVirtualDelayedReadAllocs pins the cost of waiting on a delayed
// link: once the pipe is warm, a sealed write plus the read that waits
// for its due time allocates nothing (the pipe re-arms one timer).
func TestVirtualDelayedReadAllocs(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{
		Seed:  14,
		Links: func(_, _ string) LinkProfile { return LinkProfile{LatencyMs: 1} },
	})
	dialer, acceptor := pair(t, v, "site-0", "site-1")
	msg, err := SealFrame(&stream.Frame{Stream: stream.ID{Site: 0, Index: 1}, Seq: 1, Payload: make([]byte, 512)})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	step := func() {
		if err := WriteSealed(dialer, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(acceptor, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	const runs = 50
	start := time.Now()
	allocs := testing.AllocsPerRun(runs, step)
	if elapsed := time.Since(start); elapsed < runs*time.Millisecond {
		t.Fatalf("%d reads took %v: they did not wait for the 1ms link", runs, elapsed)
	}
	if raceEnabled {
		t.Logf("race detector on: %.1f allocs per delayed read not compared", allocs)
		return
	}
	if allocs != 0 {
		t.Errorf("a delayed write+read allocates %.1f times, want 0", allocs)
	}
}

// FuzzVirtualPipe runs a script of writes, reads and link impairments
// against one connection and checks the stream contract: the reader
// gets every byte in write order, then EOF once the writer closes.
// Each op is two bytes (kind, argument), at most 64 ops per input:
// Write or WriteSealed of 1-4 KB, a read buffer size, SetLink down or
// up, SetLinkProfile with at most 2 ms latency and jitter, or a short
// pause that lets the reader park. After the script the link is healed
// if it is down, and every byte must arrive before the writer closes:
// a heal or a close wakes the reader, so either would hide a lost
// wakeup, which instead leaves the reader parked past the deadline.
func FuzzVirtualPipe(f *testing.F) {
	f.Add([]byte{0, 10, 2, 3, 1, 200, 7, 3, 2, 90})
	f.Add([]byte{5, 255, 0, 0, 7, 3, 1, 255, 2, 255, 7, 3, 0, 40, 2, 0})
	f.Add([]byte{3, 0, 0, 100, 1, 100, 7, 2, 4, 0, 5, 30, 0, 1, 6, 0, 2, 5})
	f.Add([]byte{5, 7, 7, 1, 0, 1, 7, 1, 1, 2, 7, 1, 0, 3, 3, 0, 0, 4, 4, 0})
	f.Add([]byte{0, 0, 7, 4, 1, 0, 7, 4, 0, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		v := NewVirtualNetwork(VirtualConfig{Seed: 15})
		dialer, acceptor := pair(t, v, "site-0", "site-1")

		sizes := []int{4096}
		for i := 0; i+1 < len(script); i += 2 {
			if script[i]%8 == 2 {
				sizes = append(sizes, 1+int(script[i+1])*32)
			}
		}
		var mu sync.Mutex
		var got []byte
		readErr := make(chan error, 1)
		go func() {
			buf := make([]byte, 1+255*32)
			for i := 0; ; i++ {
				n, err := acceptor.Read(buf[:sizes[i%len(sizes)]])
				mu.Lock()
				got = append(got, buf[:n]...)
				mu.Unlock()
				if err != nil {
					readErr <- err
					return
				}
			}
		}()

		var sent []byte
		down := false
		for i := 0; i+1 < len(script); i += 2 {
			arg := int(script[i+1])
			switch script[i] % 8 {
			case 0, 1:
				b := make([]byte, 1024+arg*12)
				for j := range b {
					b[j] = byte(len(sent) + j)
				}
				sent = append(sent, b...)
				var err error
				if script[i]%8 == 0 {
					_, err = dialer.Write(b)
				} else {
					err = WriteSealed(dialer, b)
				}
				if err != nil {
					t.Fatal(err)
				}
			case 3, 4:
				down = script[i]%8 == 3
				v.SetLink("site-0", "site-1", !down)
			case 5:
				v.SetLinkProfile("site-0", "site-1", LinkProfile{
					LatencyMs: float64(arg%21) / 10,
					JitterMs:  float64(arg/21%21) / 10,
				})
			case 6:
				v.ClearLinkProfile("site-0", "site-1")
			case 7:
				time.Sleep(time.Duration(arg%5) * 500 * time.Microsecond)
			}
		}
		if down {
			v.SetLink("site-0", "site-1", true)
		}

		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if n >= len(sent) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reader parked with %d of %d bytes delivered", n, len(sent))
			}
			time.Sleep(200 * time.Microsecond)
		}
		dialer.Close()
		select {
		case err := <-readErr:
			if err != io.EOF {
				t.Fatalf("read ended with %v, want EOF", err)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatal("reader still parked after the writer closed")
		}
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(got, sent) {
			t.Fatalf("received %d bytes that differ from the %d sent", len(got), len(sent))
		}
	})
}

// TestVirtualReadDeadline checks SetReadDeadline unblocks a parked read.
func TestVirtualReadDeadline(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 10})
	_, acceptor := pair(t, v, "a", "b")
	acceptor.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := acceptor.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline honoured after %v", elapsed)
	}
}

// TestSiteLinks checks the single-tenant fabric, one cost matrix with
// plain site names: site pairs get the matrix latency and nothing else,
// and server, self and out-of-range links are perfect.
func TestSiteLinks(t *testing.T) {
	cost := [][]float64{{0, 40}, {40, 0}}
	links := TenantSiteLinks([][][]float64{cost})
	if p := links(SiteHost(0), SiteHost(1)); p != (LinkProfile{LatencyMs: 40}) {
		t.Fatalf("site link profile %+v", p)
	}
	if p := links(ServerHost, SiteHost(1)); p != (LinkProfile{}) {
		t.Fatalf("server link profile %+v, want perfect", p)
	}
	if p := links(SiteHost(0), SiteHost(0)); p != (LinkProfile{}) {
		t.Fatalf("self link profile %+v, want perfect", p)
	}
	if p := links(SiteHost(5), SiteHost(1)); p != (LinkProfile{}) {
		t.Fatalf("out-of-range site profile %+v, want perfect", p)
	}
}

// TestTenantSiteLinks pins the multi-tenant link model: each tenant's
// sites see that tenant's own cost matrix, cross-tenant and
// control-plane links are perfect, and tenant 0 hosts (plain site
// names) resolve through costs[0].
func TestTenantSiteLinks(t *testing.T) {
	costs := [][][]float64{
		{{0, 40}, {40, 0}},
		{{0, 90}, {90, 0}},
	}
	links := TenantSiteLinks(costs)
	if p := links(TenantSiteHost(0, 0), TenantSiteHost(0, 1)); p.LatencyMs != 40 {
		t.Fatalf("tenant 0 link profile %+v", p)
	}
	if p := links(TenantSiteHost(1, 0), TenantSiteHost(1, 1)); p.LatencyMs != 90 {
		t.Fatalf("tenant 1 link profile %+v", p)
	}
	if p := links(TenantSiteHost(0, 0), TenantSiteHost(1, 1)); p != (LinkProfile{}) {
		t.Fatalf("cross-tenant link profile %+v, want perfect", p)
	}
	if p := links(TenantShardServerHost(1, 0), TenantSiteHost(1, 1)); p != (LinkProfile{}) {
		t.Fatalf("control link profile %+v, want perfect", p)
	}
	if p := links(TenantSiteHost(2, 0), TenantSiteHost(2, 1)); p != (LinkProfile{}) {
		t.Fatalf("unknown-tenant link profile %+v, want perfect", p)
	}
	if p := links(TenantSiteHost(1, 0), TenantSiteHost(1, 5)); p != (LinkProfile{}) {
		t.Fatalf("out-of-range site profile %+v, want perfect", p)
	}
}

// TestVirtualSetLinkConcurrentDials is the regression test for the
// SetLink pipe-set snapshot: impairments toggling a link while peers on
// that link dial and close concurrently must not race on the registry
// (run under -race).
func TestVirtualSetLinkConcurrentDials(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 12})
	ln, err := v.Host("b").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c, err := v.Host("a").DialContext(context.Background(), ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < 200; i++ {
		v.SetLink("a", "b", i%2 == 0)
	}
	<-done
	v.SetLink("a", "b", true)
}

// TestVirtualManyHosts floods a 40-host fabric with concurrent traffic as
// a miniature of the thousand-node cluster use case.
func TestVirtualManyHosts(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 11})
	const hosts = 40
	ln, err := v.Host("hub").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var served sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer c.Close()
				io.Copy(c, c) // echo
			}()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := v.Host(SiteHost(i)).DialContext(context.Background(), ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte(SiteHost(i))
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
				return
			}
			if string(buf) != string(msg) {
				t.Errorf("echo mismatch for host %d: %q", i, buf)
			}
		}(i)
	}
	wg.Wait()
}

// TestVirtualStormIntensityImpairments hammers a live connection with
// rapid mid-flow impairment changes — SetLink down/up, SetLinkProfile /
// ClearLinkProfile, and fabric-wide SetStorm / ClearStorm — at storm
// intensity while data flows, and checks the byte stream stays intact
// and in order and every byte is eventually delivered once the final
// heal lands. This is the FIFO-safety / no-deadlock contract the chaos
// subsystem's latency-storm and loss-burst events lean on.
func TestVirtualStormIntensityImpairments(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 99})
	dialer, acceptor := pair(t, v, "site-0", "site-1")

	const chunks = 400
	const chunkSize = 64
	total := chunks * chunkSize

	// Writer: sequenced bytes so any reorder or corruption is detected.
	go func() {
		buf := make([]byte, chunkSize)
		n := 0
		for c := 0; c < chunks; c++ {
			for i := range buf {
				buf[i] = byte(n % 251)
				n++
			}
			if _, err := dialer.Write(buf); err != nil {
				return
			}
		}
	}()

	// Chaos: flip every impairment class as fast as possible while the
	// stream is in flight.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				// Final heal: everything up, no storm, no overrides.
				v.SetLink("site-0", "site-1", true)
				v.ClearLinkProfile("site-0", "site-1")
				v.ClearStorm()
				return
			default:
			}
			switch i % 6 {
			case 0:
				v.SetLink("site-0", "site-1", false)
			case 1:
				v.SetLink("site-0", "site-1", true)
			case 2:
				v.SetLinkProfile("site-0", "site-1", LinkProfile{LatencyMs: 0.2, JitterMs: 0.1, Loss: 0.3})
			case 3:
				v.ClearLinkProfile("site-0", "site-1")
			case 4:
				v.SetStorm(5, 0.3)
			case 5:
				v.ClearStorm()
			}
			i++
		}
	}()

	// Reader: verify the sequence while the chaos goroutine churns.
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		n := 0
		for n < total {
			acceptor.SetReadDeadline(time.Now().Add(20 * time.Second))
			r, err := acceptor.Read(buf)
			if err != nil {
				done <- err
				return
			}
			for _, b := range buf[:r] {
				if b != byte(n%251) {
					done <- errors.New("byte stream corrupted or reordered under storm impairments")
					return
				}
				n++
			}
			if n > total/2 {
				// Half-way through, stop the churn so the tail drains
				// through a healed link.
				select {
				case <-stop:
				default:
					close(stop)
				}
			}
		}
		done <- nil
	}()

	select {
	case err := <-done:
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
		if err != nil {
			t.Fatalf("storm-intensity read failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: storm-intensity impairment churn wedged the stream")
	}
}

// TestVirtualStormDegradesAllLinks pins the SetStorm transform: latency
// is multiplied fabric-wide on top of the static matrix, and ClearStorm
// restores it, without touching per-pair overrides.
func TestVirtualStormDegradesAllLinks(t *testing.T) {
	cost := [][]float64{{0, 10}, {10, 0}}
	v := NewVirtualNetwork(VirtualConfig{Seed: 1, Links: TenantSiteLinks([][][]float64{cost})})
	if got := v.profileFor("site-0", "site-1").LatencyMs; got != 10 {
		t.Fatalf("base latency = %v, want 10", got)
	}
	v.SetStorm(4, 0.5)
	p := v.profileFor("site-0", "site-1")
	if p.LatencyMs != 40 {
		t.Fatalf("storm latency = %v, want 40", p.LatencyMs)
	}
	if p.Loss != 0.5 {
		t.Fatalf("storm loss = %v, want 0.5", p.Loss)
	}
	// Storm composes with (applies on top of) a per-pair override.
	v.SetLinkProfile("site-0", "site-1", LinkProfile{LatencyMs: 3, Loss: 0.8})
	p = v.profileFor("site-0", "site-1")
	if p.LatencyMs != 12 {
		t.Fatalf("storm-over-override latency = %v, want 12", p.LatencyMs)
	}
	if p.Loss != 1 {
		t.Fatalf("storm-over-override loss = %v, want clamp at 1", p.Loss)
	}
	v.ClearStorm()
	v.ClearLinkProfile("site-0", "site-1")
	if got := v.profileFor("site-0", "site-1").LatencyMs; got != 10 {
		t.Fatalf("post-clear latency = %v, want 10", got)
	}
}

// TestVirtualStaticLinkProfileIgnoresImpairments pins that the static
// accessor reads the configured matrix only: neither a per-pair
// override nor a fabric-wide storm shows through it, so a degradation
// scaled from it never compounds on another one.
func TestVirtualStaticLinkProfileIgnoresImpairments(t *testing.T) {
	cost := [][]float64{{0, 10}, {10, 0}}
	v := NewVirtualNetwork(VirtualConfig{Seed: 1, Links: TenantSiteLinks([][][]float64{cost})})
	want := LinkProfile{LatencyMs: 10}
	if got := v.StaticLinkProfile("site-0", "site-1"); got != want {
		t.Fatalf("static profile = %+v, want %+v", got, want)
	}
	v.SetLinkProfile("site-0", "site-1", LinkProfile{LatencyMs: 50, Loss: 0.2})
	v.SetStorm(3, 0.4)
	if got := v.StaticLinkProfile("site-0", "site-1"); got != want {
		t.Fatalf("static profile under override + storm = %+v, want %+v", got, want)
	}
	if got := v.profileFor("site-0", "site-1").LatencyMs; got != 150 {
		t.Fatalf("effective latency = %v, want the 150 ms override under storm", got)
	}
	if got := v.StaticLinkProfile("membership", "site-1"); got != (LinkProfile{}) {
		t.Fatalf("control-plane static profile = %+v, want perfect", got)
	}
}

// TestHalfPipeReleasesDrainedChunks is the white-box check on the chunk
// queue: a chunk is unreachable from the pipe the moment it has been
// read (no slot of the backing array still points at it), and a steady
// write/read rhythm — whether the queue empties between bursts or always
// holds a backlog — reuses one backing array instead of growing it.
func TestHalfPipeReleasesDrainedChunks(t *testing.T) {
	v := NewVirtualNetwork(VirtualConfig{Seed: 1})
	dialer, acceptor := pair(t, v, "site-0", "site-1")
	p := dialer.(*virtualConn).wr
	chunk := make([]byte, 512)
	buf := make([]byte, len(chunk))
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := dialer.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(acceptor, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	retained := func() (live, pinned int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, seg := range p.segs[:cap(p.segs)] {
			if seg.data != nil {
				pinned++
			}
		}
		return p.queued(), pinned
	}

	write(8)
	read(3)
	if live, pinned := retained(); live != 5 || pinned != 5 {
		t.Fatalf("after reading 3 of 8 chunks: %d queued, %d pinned by the backing array; want 5 and 5", live, pinned)
	}
	read(5)
	if live, pinned := retained(); live != 0 || pinned != 0 {
		t.Fatalf("drained pipe: %d queued, %d chunks still pinned", live, pinned)
	}

	// Steady state with a standing backlog of 3: the queue never empties,
	// so only compaction keeps the slice from creeping forward.
	write(3)
	for i := 0; i < 64; i++ {
		write(1)
		read(1)
	}
	p.mu.Lock()
	settled := cap(p.segs)
	p.mu.Unlock()
	for i := 0; i < 4096; i++ {
		write(1)
		read(1)
	}
	p.mu.Lock()
	grown := cap(p.segs)
	p.mu.Unlock()
	if grown != settled {
		t.Errorf("chunk queue grew from cap %d to %d under a steady write/read rhythm", settled, grown)
	}
	if live, pinned := retained(); live != 3 || pinned != 3 {
		t.Errorf("standing backlog: %d queued, %d pinned; want 3 and 3", live, pinned)
	}
}
