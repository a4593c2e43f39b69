package transport

import (
	"context"
	"net"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// TestTCPNetworkRoundTrip checks the TCP fabric is a faithful passthrough:
// a wire message survives a listen/dial/write/read cycle.
func TestTCPNetworkRoundTrip(t *testing.T) {
	fab := TCPFabric{DialTimeout: DefaultDialTimeout}
	nw := fab.Host("anything")
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan *Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		m, err := ReadMessage(conn)
		if err != nil {
			done <- nil
			return
		}
		done <- m
	}()

	conn, err := nw.DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := &Message{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 7}}
	if err := WriteMessage(conn, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || got.Type != MsgPeerHello || got.PeerHello.Site != 7 {
		t.Fatalf("round trip got %+v", got)
	}
}

// TestTCPNetworkDialContextCancelled checks a cancelled context aborts the
// dial instead of connecting. (Timeout behaviour against a dead peer is
// covered by the rp package's regression test with a stub Network — real
// unroutable addresses are environment-dependent.)
func TestTCPNetworkDialContextCancelled(t *testing.T) {
	ln, err := (TCPNetwork{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (TCPNetwork{}).DialContext(ctx, ln.Addr().String()); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

// TestSiteHost pins the host naming convention the fabric and the session
// layer agree on.
func TestSiteHost(t *testing.T) {
	cases := map[int]string{0: "site-0", 7: "site-7", 42: "site-42", 1234: "site-1234"}
	for i, want := range cases {
		if got := SiteHost(i); got != want {
			t.Errorf("SiteHost(%d) = %q, want %q", i, got, want)
		}
		idx, ok := siteIndex(want)
		if !ok || idx != i {
			t.Errorf("siteIndex(%q) = %d, %v", want, idx, ok)
		}
	}
	if _, ok := siteIndex(ServerHost); ok {
		t.Error("siteIndex accepted the server host name")
	}
}

// TestShardHelpers pins the shard naming and ownership conventions every
// layer of the sharded control plane shares: shard 0 keeps the legacy
// server host name and stream ownership partitions by originating site.
func TestShardHelpers(t *testing.T) {
	if got := ShardServerHost(0); got != ServerHost {
		t.Errorf("ShardServerHost(0) = %q, want the legacy %q", got, ServerHost)
	}
	if got := ShardServerHost(2); got != "membership-2" {
		t.Errorf("ShardServerHost(2) = %q", got)
	}

	id := stream.ID{Site: 7, Index: 2}
	for _, shards := range []int{0, 1} {
		if got := TenantStreamShard(0, id, shards); got != 0 {
			t.Errorf("TenantStreamShard(0, %v, %d) = %d, want 0 (unsharded plane)", id, shards, got)
		}
	}
	if got := TenantStreamShard(0, id, 3); got != 1 {
		t.Errorf("TenantStreamShard(0, %v, 3) = %d, want 1", id, got)
	}
	// Ownership depends only on the originating site, never the stream
	// index: a site's whole rig lives on one shard.
	for idx := 0; idx < 4; idx++ {
		if got := TenantStreamShard(0, stream.ID{Site: 7, Index: idx}, 3); got != 1 {
			t.Errorf("TenantStreamShard(0, site 7, index %d) = %d, want 1", idx, got)
		}
	}
	// Every shard index is in range for any site, a negative one too.
	for site := -5; site < 20; site++ {
		if got := TenantStreamShard(0, stream.ID{Site: site}, 4); got < 0 || got >= 4 {
			t.Errorf("TenantStreamShard(0, site %d, 4) = %d out of range", site, got)
		}
	}
}

// TestTenantHelpers pins the tenant naming and ownership conventions:
// tenant 0 keeps every legacy name and the legacy site-mod-shards mapping
// (the single-tenant regression pin), while higher tenants get
// namespaced hosts and a rotated — but still disjoint — shard mapping.
func TestTenantHelpers(t *testing.T) {
	for i := 0; i < 5; i++ {
		if got, want := TenantSiteHost(0, i), SiteHost(i); got != want {
			t.Errorf("TenantSiteHost(0, %d) = %q, want legacy %q", i, got, want)
		}
	}
	for k := 0; k < 3; k++ {
		if got, want := TenantShardServerHost(0, k), ShardServerHost(k); got != want {
			t.Errorf("TenantShardServerHost(0, %d) = %q, want legacy %q", k, got, want)
		}
	}
	if got := TenantSiteHost(3, 7); got != "t3-site-7" {
		t.Errorf("TenantSiteHost(3, 7) = %q", got)
	}
	if got := TenantShardServerHost(2, 0); got != "t2-membership" {
		t.Errorf("TenantShardServerHost(2, 0) = %q", got)
	}
	if got := TenantShardServerHost(2, 1); got != "t2-membership-1" {
		t.Errorf("TenantShardServerHost(2, 1) = %q", got)
	}
	// Host names must be unique across (tenant, site): a shared fabric
	// keys its listeners by name.
	seen := map[string]bool{}
	for tenant := 0; tenant < 4; tenant++ {
		for i := 0; i < 6; i++ {
			h := TenantSiteHost(tenant, i)
			if seen[h] {
				t.Fatalf("duplicate host name %q", h)
			}
			seen[h] = true
		}
	}

	id := stream.ID{Site: 7, Index: 2}
	for shards := 1; shards <= 5; shards++ {
		if got, want := TenantStreamShard(0, id, shards), id.Site%shards; got != want {
			t.Errorf("TenantStreamShard(0, %v, %d) = %d, want legacy %d", id, shards, got, want)
		}
	}
	// Ownership still depends only on the originating site and stays in
	// range for any tenant.
	for tenant := 0; tenant < 9; tenant++ {
		for site := 0; site < 20; site++ {
			got := TenantStreamShard(tenant, stream.ID{Site: site}, 4)
			if got < 0 || got >= 4 {
				t.Fatalf("TenantStreamShard(%d, site %d, 4) = %d out of range", tenant, site, got)
			}
			if got != TenantStreamShard(tenant, stream.ID{Site: site, Index: 3}, 4) {
				t.Fatalf("tenant %d site %d: ownership depends on stream index", tenant, site)
			}
		}
	}
}

// TestNetworkInterfaces pins that both fabrics satisfy the interfaces.
func TestNetworkInterfaces(t *testing.T) {
	var _ Network = TCPNetwork{}
	var _ Fabric = TCPFabric{}
	var _ Fabric = (*VirtualNetwork)(nil)
	var _ Network = (*VirtualHost)(nil)
	var _ net.Conn = (*virtualConn)(nil)
	var _ net.Listener = (*virtualListener)(nil)
}
