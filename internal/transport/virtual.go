package transport

// virtual.go implements the in-memory transport fabric: pipe-backed
// connections between named hosts with an emulated link model (one-way
// latency, jitter, loss-as-retransmission and serialization bandwidth),
// plus runtime impairment hooks (link severing for partitions, profile
// overrides for degradation scenarios). A single process can host
// thousands of membership+RP nodes on one VirtualNetwork: no kernel
// sockets, no ports, no file descriptors — just goroutines and buffers.
//
// The link model preserves the reliable, ordered byte-stream semantics
// the wire protocol assumes (a dropped chunk of a length-prefixed stream
// would desynchronize framing), so impairments translate into *when*
// bytes arrive, never whether:
//
//   - Latency/jitter delay each written chunk by LatencyMs plus a
//     uniform ±JitterMs draw.
//   - Loss models TCP retransmission: with probability Loss a chunk
//     incurs an extra retransmit penalty (lossPenaltyMs + 2x latency)
//     instead of disappearing.
//   - Bandwidth serializes chunks at BandwidthKbps before the
//     propagation delay is added.
//   - A severed link (SetLink(a, b, false)) stalls delivery — data
//     queues and flows again when the link heals, like a TCP connection
//     riding out a routing transient. Dials on a severed link stall the
//     same way (the SYN queues); dials to an address nobody listens on
//     fail immediately.
//
// Delivery order per direction is always FIFO: due times are clamped
// monotonic, so jitter can delay but never reorder the stream.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// lossPenaltyMs is the fixed component of the retransmission penalty a
// "lost" chunk incurs (plus twice the link's one-way latency, a crude
// RTO). TCP semantics are preserved: the chunk arrives late, not never.
const lossPenaltyMs = 200.0

// LinkProfile describes the emulated characteristics of one directed
// virtual link.
type LinkProfile struct {
	// LatencyMs is the one-way propagation delay applied to every chunk.
	LatencyMs float64
	// JitterMs adds a uniform draw from [-JitterMs, +JitterMs] to each
	// chunk's delay (clamped so delivery order is preserved).
	JitterMs float64
	// Loss is the per-chunk probability of incurring a retransmission
	// penalty (lossPenaltyMs + 2x LatencyMs of extra delay).
	Loss float64
	// BandwidthKbps, when positive, serializes chunks at this rate before
	// the propagation delay; 0 means unlimited.
	BandwidthKbps float64
}

// VirtualConfig parameterizes a VirtualNetwork.
type VirtualConfig struct {
	// Seed drives the jitter and loss draws. 0 means 1. Reproducibility
	// is statistical rather than bitwise: each connection direction gets
	// its own rng derived from the seed and a creation counter, and
	// creation order depends on goroutine scheduling.
	Seed int64
	// Links returns the profile of the directed link from one named host
	// to another. nil means every link is perfect (zero latency and
	// loss). TenantSiteLinks builds the conventional matrix-driven function.
	Links func(from, to string) LinkProfile
}

// TenantSiteLinks returns a link-profile function driven by per-tenant
// pairwise cost matrices: costs[t] is tenant t's matrix, and the link
// between TenantSiteHost(t, i) and TenantSiteHost(t, j) carries
// costs[t][i][j] milliseconds of one-way latency and no jitter, loss or
// bandwidth limit. Tenant 0 keeps the plain SiteHost names, so a
// single-tenant fabric passes one matrix. Links
// between hosts of different tenants are perfect — tenants never
// exchange frames, so those links carry nothing — and so are links to
// or from any other host (the membership servers in particular),
// modelling an out-of-band control plane the way the simulator does.
func TenantSiteLinks(costs [][][]float64) func(from, to string) LinkProfile {
	return func(from, to string) LinkProfile {
		ta, i, okFrom := tenantSiteIndex(from)
		tb, j, okTo := tenantSiteIndex(to)
		if !okFrom || !okTo || ta != tb || ta >= len(costs) || i == j {
			return LinkProfile{}
		}
		cost := costs[ta]
		if i >= len(cost) || j >= len(cost) {
			return LinkProfile{}
		}
		return LinkProfile{LatencyMs: cost[i][j]}
	}
}

// tenantSiteIndex parses a TenantSiteHost name back to its tenant and
// site indices; plain SiteHost names parse as tenant 0.
func tenantSiteIndex(name string) (tenant, site int, ok bool) {
	if i, plain := siteIndex(name); plain {
		return 0, i, true
	}
	if !strings.HasPrefix(name, "t") {
		return 0, 0, false
	}
	rest := name[1:]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, 0, false
	}
	t, err := strconv.Atoi(rest[:dash])
	if err != nil || t <= 0 {
		return 0, 0, false
	}
	i, plain := siteIndex(rest[dash+1:])
	if !plain {
		return 0, 0, false
	}
	return t, i, true
}

// siteIndex parses a SiteHost name back to its index.
func siteIndex(name string) (int, bool) {
	const prefix = "site-"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	i, err := strconv.Atoi(name[len(prefix):])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// VirtualNetwork is an in-memory transport fabric. It implements Fabric;
// Host returns the endpoint view a node listens and dials through. The
// zero value is not usable — construct with NewVirtualNetwork.
type VirtualNetwork struct {
	links func(from, to string) LinkProfile

	mu        sync.Mutex
	seed      int64
	pipeSeq   int64
	listeners map[string]*virtualListener
	addrSeq   int
	// overrides replaces the static profile of an undirected host pair;
	// consulted at write time, so a change takes effect immediately.
	overrides map[linkKey]LinkProfile
	// severed marks undirected host pairs whose delivery is stalled.
	severed map[linkKey]bool
	// pipes tracks live connection directions per undirected pair so
	// SetLink can wake readers blocked on a stalled link.
	pipes map[linkKey]map[*halfPipe]struct{}
	// storm, when active, degrades every link in the fabric at once;
	// resolved at write time like overrides, so O(1) to flip regardless
	// of cluster size.
	storm struct {
		active     bool
		latencyMul float64
		extraLoss  float64
	}
}

// linkKey is an unordered host pair.
type linkKey struct{ a, b string }

func keyFor(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// NewVirtualNetwork creates an empty virtual fabric.
func NewVirtualNetwork(cfg VirtualConfig) *VirtualNetwork {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	links := cfg.Links
	if links == nil {
		links = func(_, _ string) LinkProfile { return LinkProfile{} }
	}
	return &VirtualNetwork{
		links:     links,
		seed:      cfg.Seed,
		listeners: make(map[string]*virtualListener),
		overrides: make(map[linkKey]LinkProfile),
		severed:   make(map[linkKey]bool),
		pipes:     make(map[linkKey]map[*halfPipe]struct{}),
	}
}

// Host returns the named endpoint's Network view of the fabric.
func (v *VirtualNetwork) Host(name string) Network { return &VirtualHost{net: v, name: name} }

// SetLink marks the undirected link between hosts a and b up or down. A
// down link stalls delivery in both directions (data queues and resumes
// on heal — TCP riding out a routing transient) and stalls new dials the
// same way. Live connections are woken immediately on heal.
func (v *VirtualNetwork) SetLink(a, b string, up bool) {
	key := keyFor(a, b)
	v.mu.Lock()
	if up {
		delete(v.severed, key)
	} else {
		v.severed[key] = true
	}
	// Snapshot the live pipes under the lock: concurrent dials and
	// closes mutate the set itself.
	pipes := make([]*halfPipe, 0, len(v.pipes[key]))
	for p := range v.pipes[key] {
		pipes = append(pipes, p)
	}
	v.mu.Unlock()
	// Wake readers parked on the link so they re-check its state.
	for _, p := range pipes {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Partition severs every link between the two host groups; Heal restores
// them by calling SetLink up for the same groups.
func (v *VirtualNetwork) Partition(groupA, groupB []string) {
	for _, a := range groupA {
		for _, b := range groupB {
			v.SetLink(a, b, false)
		}
	}
}

// Heal restores every link between the two host groups.
func (v *VirtualNetwork) Heal(groupA, groupB []string) {
	for _, a := range groupA {
		for _, b := range groupB {
			v.SetLink(a, b, true)
		}
	}
}

// SetLinkProfile overrides the profile of the undirected link between a
// and b (both directions) from now on; chunks already written keep their
// original due times. Use ClearLinkProfile to return to the static model.
func (v *VirtualNetwork) SetLinkProfile(a, b string, p LinkProfile) {
	v.mu.Lock()
	v.overrides[keyFor(a, b)] = p
	v.mu.Unlock()
}

// ClearLinkProfile removes a SetLinkProfile override.
func (v *VirtualNetwork) ClearLinkProfile(a, b string) {
	v.mu.Lock()
	delete(v.overrides, keyFor(a, b))
	v.mu.Unlock()
}

// StaticLinkProfile returns the configured (VirtualConfig.Links)
// profile of the directed link from -> to, ignoring any SetLinkProfile
// override and any storm — the baseline a degradation scales.
func (v *VirtualNetwork) StaticLinkProfile(from, to string) LinkProfile {
	return v.links(from, to)
}

// SetStorm installs a fabric-wide impairment: every link's latency is
// multiplied by latencyMul (values <= 0 mean 1) and extraLoss is added
// to every link's loss probability (clamped to 1). Unlike per-pair
// SetLinkProfile calls, a storm is O(1) to raise or clear regardless of
// cluster size — the transform is resolved at write time on top of the
// static matrix and any per-link overrides. Chunks already in flight
// keep their original due times; FIFO order is preserved by the same
// monotonic clamps as every other impairment.
func (v *VirtualNetwork) SetStorm(latencyMul, extraLoss float64) {
	if latencyMul <= 0 {
		latencyMul = 1
	}
	if extraLoss < 0 {
		extraLoss = 0
	}
	v.mu.Lock()
	v.storm.active = true
	v.storm.latencyMul = latencyMul
	v.storm.extraLoss = extraLoss
	v.mu.Unlock()
}

// ClearStorm removes the fabric-wide impairment installed by SetStorm.
func (v *VirtualNetwork) ClearStorm() {
	v.mu.Lock()
	v.storm.active = false
	v.mu.Unlock()
}

// profileFor resolves the directed profile from -> to under overrides
// and any active fabric-wide storm.
func (v *VirtualNetwork) profileFor(from, to string) LinkProfile {
	v.mu.Lock()
	p, ok := v.overrides[keyFor(from, to)]
	storm := v.storm
	v.mu.Unlock()
	if !ok {
		p = v.links(from, to)
	}
	if storm.active {
		p.LatencyMs *= storm.latencyMul
		p.Loss += storm.extraLoss
		if p.Loss > 1 {
			p.Loss = 1
		}
	}
	return p
}

// linkDown reports whether the undirected link is currently severed.
func (v *VirtualNetwork) linkDown(from, to string) bool {
	v.mu.Lock()
	down := v.severed[keyFor(from, to)]
	v.mu.Unlock()
	return down
}

// register tracks a live pipe on its link so SetLink can wake it; done
// under v.mu.
func (v *VirtualNetwork) register(key linkKey, p *halfPipe) {
	v.mu.Lock()
	set := v.pipes[key]
	if set == nil {
		set = make(map[*halfPipe]struct{})
		v.pipes[key] = set
	}
	set[p] = struct{}{}
	v.mu.Unlock()
}

// unregister forgets a closed pipe.
func (v *VirtualNetwork) unregister(key linkKey, p *halfPipe) {
	v.mu.Lock()
	if set := v.pipes[key]; set != nil {
		delete(set, p)
		if len(set) == 0 {
			delete(v.pipes, key)
		}
	}
	v.mu.Unlock()
}

// VirtualHost is one named endpoint's Network view of a VirtualNetwork.
type VirtualHost struct {
	net  *VirtualNetwork
	name string
}

// Name returns the host's fabric name.
func (h *VirtualHost) Name() string { return h.name }

// Listen opens a listener. A request for one of this host's own
// addresses that the fabric handed out before ("vnet://<host>/<n>") is
// honoured while it is free, the way TCP rebinds a closed port, so a
// restarted server is found where its predecessor was; it fails with
// "address in use" while another listener holds it. Any other request
// gets a fresh unique address, mirroring how ":0" asks the kernel for an
// ephemeral port.
func (h *VirtualHost) Listen(addr string) (net.Listener, error) {
	v := h.net
	v.mu.Lock()
	defer v.mu.Unlock()
	if n, err := strconv.Atoi(strings.TrimPrefix(addr, "vnet://"+h.name+"/")); err != nil || n < 1 || n > v.addrSeq {
		v.addrSeq++
		addr = fmt.Sprintf("vnet://%s/%d", h.name, v.addrSeq)
	} else if _, busy := v.listeners[addr]; busy {
		return nil, fmt.Errorf("vnet: listen %s: address in use", addr)
	}
	ln := &virtualListener{net: v, host: h.name, addr: addr}
	ln.cond = sync.NewCond(&ln.mu)
	v.listeners[addr] = ln
	return ln, nil
}

// DialContext connects to a virtual listener. Dialing an address nobody
// listens on fails immediately (connection refused); dialing across a
// severed link succeeds but delivery stalls until the link heals.
func (h *VirtualHost) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := h.net
	v.mu.Lock()
	ln, ok := v.listeners[addr]
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("vnet: dial %s from %s: connection refused", addr, h.name)
	}
	local, remote := v.newConnPair(h.name, ln.host)
	if err := ln.deliver(remote); err != nil {
		local.Close()
		remote.Close()
		return nil, fmt.Errorf("vnet: dial %s from %s: %w", addr, h.name, err)
	}
	return local, nil
}

// newConnPair builds the two endpoints of one virtual connection between
// hosts a and b.
func (v *VirtualNetwork) newConnPair(a, b string) (*virtualConn, *virtualConn) {
	v.mu.Lock()
	v.pipeSeq += 2
	seq := v.pipeSeq
	v.mu.Unlock()
	ab := newHalfPipe(v, a, b, v.seed+seq)   // data flowing a -> b
	ba := newHalfPipe(v, b, a, v.seed+seq+1) // data flowing b -> a
	connA := &virtualConn{local: vAddr(a), remote: vAddr(b), rd: ba, wr: ab}
	connB := &virtualConn{local: vAddr(b), remote: vAddr(a), rd: ab, wr: ba}
	return connA, connB
}

// vAddr is a virtual net.Addr.
type vAddr string

// Network names the virtual address family.
func (vAddr) Network() string { return "vnet" }

// String returns the host name (or listener address) the Addr denotes.
func (a vAddr) String() string { return string(a) }

// virtualListener queues incoming connections for Accept.
type virtualListener struct {
	net  *VirtualNetwork
	host string
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*virtualConn
	closed  bool
}

// deliver hands the accept-side conn to the listener (unbounded backlog:
// a registration burst from a thousand nodes must not deadlock dials).
func (l *virtualListener) deliver(c *virtualConn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return net.ErrClosed
	}
	l.backlog = append(l.backlog, c)
	l.cond.Signal()
	return nil
}

// Accept returns the next queued connection, blocking until one arrives
// or the listener closes.
func (l *virtualListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.backlog) == 0 {
		return nil, net.ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close unregisters the listener and wakes pending Accepts. Queued,
// never-accepted connections are closed so their dialers see EOF.
func (l *virtualListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	l.mu.Lock()
	pending := l.backlog
	l.backlog = nil
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range pending {
		c.Close()
	}
	return nil
}

// Addr returns the listener's fabric address.
func (l *virtualListener) Addr() net.Addr { return vAddr(l.addr) }

// segment is one delayed chunk of a pipe direction.
type segment struct {
	due  time.Time
	data []byte
}

// halfPipe is one direction of a virtual connection: an unbounded FIFO of
// timed chunks. Writes never block (the fabric is the flow control, as
// with a kernel socket buffer sized for the experiment); reads block
// until the head chunk's due time has passed and the link is up.
type halfPipe struct {
	net      *VirtualNetwork
	from, to string
	key      linkKey
	rng      prng // jitter/loss draws; guarded by mu

	mu   sync.Mutex
	cond *sync.Cond
	// segs[head:] are the queued chunks. Slots before head are zeroed as
	// they are consumed, so a drained chunk is garbage the moment it has
	// been read, and the slice is compacted instead of creeping forward
	// through ever larger backing arrays.
	segs       []segment
	head       int
	rdPos      int // read offset into segs[head].data
	lastDepart time.Time
	lastDue    time.Time
	closed     bool
	deadline   time.Time // read deadline; zero means none
	// timer wakes timed waits: created on the first one, re-armed with
	// Reset after that. armed is when it fires; zero means not armed.
	timer *time.Timer
	armed time.Time
}

func newHalfPipe(v *VirtualNetwork, from, to string, seed int64) *halfPipe {
	p := &halfPipe{
		net: v, from: from, to: to,
		key: keyFor(from, to),
		rng: prng(seed)*2 + 1, // any odd state is a valid xorshift seed
	}
	p.cond = sync.NewCond(&p.mu)
	v.register(p.key, p)
	return p
}

// prng is a tiny xorshift64* generator. Cluster runs create halfPipes by
// the thousand, and seeding math/rand's 607-word feedback register per
// pipe is measurable CPU at that scale; jitter and loss draws only need
// cheap uniform floats.
type prng uint64

// float64 returns a uniform draw from [0, 1).
func (p *prng) float64() float64 {
	x := uint64(*p)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*p = prng(x)
	return float64(x*0x2545F4914F6CDD1D>>11) / (1 << 53)
}

// write queues a copy of b: the caller may reuse b as soon as write
// returns, as with any net.Conn.
func (p *halfPipe) write(b []byte) (int, error) {
	data := make([]byte, len(b))
	copy(data, b)
	return p.enqueue(data)
}

// enqueue queues b itself, with its emulated arrival time. The caller
// promises b is never modified again (sealed frame bytes; see
// WriteSealed): the pipe holds the slice until the reader has copied it
// out, which is the one copy a hop makes.
func (p *halfPipe) enqueue(b []byte) (int, error) {
	prof := p.net.profileFor(p.from, p.to)
	now := time.Now()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, net.ErrClosed
	}
	// Serialization at the sender, then propagation (+jitter, +loss
	// penalty), then a monotonicity clamp so the stream never reorders.
	depart := now
	if depart.Before(p.lastDepart) {
		depart = p.lastDepart
	}
	if prof.BandwidthKbps > 0 {
		depart = depart.Add(time.Duration(float64(len(b)*8) / prof.BandwidthKbps * float64(time.Millisecond)))
	}
	p.lastDepart = depart
	delayMs := prof.LatencyMs
	if prof.JitterMs > 0 {
		delayMs += (p.rng.float64()*2 - 1) * prof.JitterMs
	}
	if prof.Loss > 0 && p.rng.float64() < prof.Loss {
		delayMs += lossPenaltyMs + 2*prof.LatencyMs
	}
	if delayMs < 0 {
		delayMs = 0
	}
	due := depart.Add(time.Duration(delayMs * float64(time.Millisecond)))
	if due.Before(p.lastDue) {
		due = p.lastDue
	}
	p.lastDue = due

	if p.head > 0 && len(p.segs) == cap(p.segs) && p.head >= len(p.segs)-p.head {
		// Out of room with at least half the slice already consumed:
		// slide the live chunks down rather than grow.
		n := copy(p.segs, p.segs[p.head:])
		clear(p.segs[n:])
		p.segs, p.head = p.segs[:n], 0
	}
	// Only an empty queue can have readers parked for data (a chunk
	// behind the head is due no earlier than the head, so it changes
	// nothing a waiting reader waits for). Broadcast, not Signal: with
	// concurrent Reads, each must see the new head.
	if p.queued() == 0 {
		p.cond.Broadcast()
	}
	p.segs = append(p.segs, segment{due: due, data: b})
	return len(b), nil
}

// queued reports how many chunks wait to be read (mu held).
func (p *halfPipe) queued() int { return len(p.segs) - p.head }

// read delivers queued bytes once due, honouring the read deadline and
// the link's severed state.
func (p *halfPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if dl := p.deadline; !dl.IsZero() && !time.Now().Before(dl) {
			return 0, os.ErrDeadlineExceeded
		}
		if p.queued() > 0 && !p.net.linkDown(p.from, p.to) {
			seg := &p.segs[p.head]
			if time.Until(seg.due) > 0 {
				p.timedWait(seg.due)
				continue
			}
			n := copy(b, seg.data[p.rdPos:])
			p.rdPos += n
			if p.rdPos == len(seg.data) {
				*seg = segment{}
				p.rdPos = 0
				if p.head++; p.head == len(p.segs) {
					p.segs, p.head = p.segs[:0], 0
				}
			}
			return n, nil
		}
		if p.closed {
			if p.queued() > 0 {
				// Data stalled on a severed link when the conn closed is
				// undeliverable: surface a reset, not a clean EOF.
				return 0, net.ErrClosed
			}
			return 0, io.EOF
		}
		if dl := p.deadline; !dl.IsZero() {
			p.timedWait(dl)
			continue
		}
		p.cond.Wait()
	}
}

// timedWait blocks on the cond until about time at at the latest (mu
// held). The pipe's one timer is re-armed only when this wait must end
// before the armed time; an earlier wake-up just loops the reader, which
// then waits again. Close, SetLink and deadline changes broadcast on the
// same cond.
func (p *halfPipe) timedWait(at time.Time) {
	if p.armed.IsZero() || at.Before(p.armed) {
		p.armed = at
		d := max(time.Until(at), time.Microsecond)
		if p.timer == nil {
			p.timer = time.AfterFunc(d, p.wake)
		} else {
			p.timer.Reset(d)
		}
	}
	p.cond.Wait()
}

// wake is the timer callback: it disarms the timer and wakes every
// waiter, so each re-checks its head chunk or deadline and re-arms.
func (p *halfPipe) wake() {
	p.mu.Lock()
	p.armed = time.Time{}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close marks the direction closed and wakes readers. It leaves the
// timer armed: readers drain the queued chunks, each at its due time.
func (p *halfPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.net.unregister(p.key, p)
}

// setReadDeadline installs (or clears) the read deadline.
func (p *halfPipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.deadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

// virtualConn is one endpoint of a virtual connection.
type virtualConn struct {
	local, remote vAddr
	rd, wr        *halfPipe
	closeOnce     sync.Once
}

// Read implements net.Conn.
func (c *virtualConn) Read(b []byte) (int, error) { return c.rd.read(b) }

// Write implements net.Conn.
func (c *virtualConn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close closes both directions; the peer's pending reads drain then EOF.
func (c *virtualConn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.close()
		c.wr.close()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *virtualConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *virtualConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes never block).
func (c *virtualConn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *virtualConn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn; virtual writes never block, so
// the deadline is accepted and ignored.
func (c *virtualConn) SetWriteDeadline(time.Time) error { return nil }
