package transport

// network.go defines the transport fabric abstraction: every listen and
// dial in the networked plane (membership server, rendezvous points,
// session drivers) goes through a Network, so the same protocol stack
// runs unchanged over real TCP or over the in-memory VirtualNetwork that
// hosts thousand-node clusters in one process (virtual.go).

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
)

// DefaultDialTimeout bounds control-plane dials when the caller's context
// carries no deadline of its own, so a dead or unroutable peer fails the
// handshake instead of hanging it.
const DefaultDialTimeout = 10 * time.Second

// Network is one endpoint's view of a transport fabric: where it can
// listen and whom it can dial. The TCP implementation is a stateless
// passthrough to the kernel; the virtual implementation is bound to a
// named host so the fabric can impose per-link latency, jitter, loss and
// bandwidth between it and the hosts it dials.
type Network interface {
	// Listen opens a listener. addr follows the implementation's
	// addressing scheme ("127.0.0.1:0" for TCP; virtual networks assign
	// their own unique addresses and ignore the request).
	Listen(addr string) (net.Listener, error)
	// DialContext connects to a listener's address, honouring ctx
	// cancellation and deadline throughout connection establishment.
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// Fabric hands out the per-endpoint Network views of one underlying
// transport substrate. The TCP fabric returns the same stateless network
// for every host; a VirtualNetwork returns a host-bound endpoint whose
// links to other hosts carry that pair's emulated link profile.
type Fabric interface {
	// Host returns the Network view of the named endpoint. Conventional
	// names are ServerHost for the membership server and SiteHost(i) for
	// rendezvous points.
	Host(name string) Network
}

// ServerHost is the fabric host name of the membership server. Virtual
// fabrics give server links zero latency by default: the control plane is
// modelled as out-of-band, matching the simulator's assumption that
// coordination is instantaneous relative to WAN frame latency.
const ServerHost = "membership"

// ShardServerHost returns the conventional fabric host name of shard k's
// membership server. Shard 0 keeps the legacy ServerHost name, so an
// unsharded session is byte-identical to the pre-sharding plane.
func ShardServerHost(k int) string {
	if k == 0 {
		return ServerHost
	}
	return fmt.Sprintf("%s-%d", ServerHost, k)
}

// TenantStreamShard maps tenant's stream to the membership shard that
// owns its dissemination tree. Streams are partitioned by originating
// site, so one region's sources live together and a resubscription
// diff touches at most as many shards as distinct source regions it
// watches; each tenant's streams are rotated across the shard ring by
// its tenant index, so directives for different tenants stay disjoint
// per shard server. Tenant 0 maps site s to s mod shards, and any site
// maps into [0, shards). Every layer (membership servers, RPs, session
// drivers) must use this one function so ownership never disagrees
// across the plane.
func TenantStreamShard(tenant int, id stream.ID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return ((id.Site+tenant)%shards + shards) % shards
}

// TenantShardServerHost returns the fabric host name of tenant t's
// shard-k membership server. Tenant 0 keeps the legacy
// ShardServerHost names so a single-tenant session is byte-identical
// to the pre-tenancy plane.
func TenantShardServerHost(t, k int) string {
	if t == 0 {
		return ShardServerHost(k)
	}
	return fmt.Sprintf("t%d-%s", t, ShardServerHost(k))
}

// TenantSiteHost returns the fabric host name of tenant t's site-i
// rendezvous point ("t<t>-site-<i>"). Tenant 0 keeps the legacy
// SiteHost names so a single-tenant session is byte-identical to the
// pre-tenancy plane.
func TenantSiteHost(t, i int) string {
	if t == 0 {
		return SiteHost(i)
	}
	return fmt.Sprintf("t%d-%s", t, SiteHost(i))
}

// SiteHost returns the conventional fabric host name of site i's
// rendezvous point ("site-<i>").
func SiteHost(i int) string {
	// Sites are small contiguous integers; avoid fmt for the hot path.
	if i < 0 {
		return "site-?"
	}
	var buf [24]byte
	pos := len(buf)
	for {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
		if i == 0 {
			break
		}
	}
	return "site-" + string(buf[pos:])
}

// TCPNetwork is the real-TCP transport fabric: Listen and DialContext map
// directly onto the kernel's TCP stack and add no modelled latency, so
// frames see the real network's delay only. The zero value dials with no
// timeout beyond the caller's context.
type TCPNetwork struct {
	// DialTimeout, when positive, bounds each dial even if the caller's
	// context has no deadline. DefaultDialTimeout is the conventional
	// choice for control-plane dials.
	DialTimeout time.Duration
}

// Listen opens a TCP listener on addr.
func (t TCPNetwork) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialContext dials addr over TCP, honouring ctx and the configured
// DialTimeout (whichever expires first).
func (t TCPNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if t.DialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.DialTimeout)
		defer cancel()
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// TCPFabric is the Fabric of the real TCP stack: every host shares the
// same kernel network, so Host returns the same TCPNetwork regardless of
// name.
type TCPFabric struct {
	// DialTimeout is forwarded to every handed-out TCPNetwork.
	DialTimeout time.Duration
}

// Host returns the shared TCP network; the host name is irrelevant on a
// real network.
func (f TCPFabric) Host(string) Network { return TCPNetwork{DialTimeout: f.DialTimeout} }
