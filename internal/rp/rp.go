// Package rp implements the rendezvous point (§3.1): the per-site proxy
// server that publishes the local camera array's streams into the overlay,
// forwards streams according to the membership control plane's routing
// tables, and delivers subscribed streams to the local displays.
//
// The routing table is live: a control connection to each membership
// shard stays open for the whole session, and epoch-versioned
// RoutesUpdate deltas are applied by atomically hot-swapping an
// immutable table snapshot while frames keep flowing. There is one
// transition, the delta merge: a full shard table (at boot, from an
// empty table, or a resync) is diffed against the slice held for its
// shard with transport.DiffRoutes and applied as that delta. Epochs are
// per shard — the node's snapshot is the disjoint union of every
// shard's directive, each slice versioned independently. Every frame is
// routed under exactly one snapshot (the one loaded when it arrives): a
// frame in flight for a stream the site no longer accepts is discarded
// and counted as stale, a frame already delivered under an earlier path
// is discarded as a duplicate (per-stream sequence watermark), and the
// first delivered frame of each newly gained stream is timestamped so
// the live plane reports the same disruption-latency metric as
// sim.RunEvents.
//
// When a shard's control connection dies and the session directory lists
// a successor, the node fails over: it re-registers with the next listed
// server carrying its current desired subscription set, its last-seen
// epoch for the shard, and its resubscribe-ID high-water mark — the
// paper's recovery primitive (coordinator state is reconstructible from
// the edge). The successor's full shard table (MsgRoutes) resynchronizes
// the node and settles any resubscriptions left in flight by the crash.
//
// A frame is immutable wire bytes, created once: PublishTick seals each
// captured frame in the buffer its payload was generated into, a
// receiving node reads a frame into one buffer that the delivered
// Frame.Payload aliases, and a relay hands that same slice to every
// child's writer. Nothing on the frame path encodes, decodes or copies a
// payload, and nothing on it takes the node-wide lock: per-stream state
// sits in slots the routing snapshot resolves when it is built, and the
// outgoing links are read from an atomically published map. Frames (and
// their payloads) are therefore read-only once published or delivered;
// stream.Frame.Clone is the way to get one that may be changed.
//
// All listening and dialing goes through a transport.Network, and the
// node adds no latency of its own: a frame is written as soon as it is
// routed. WAN latency is a property of the fabric — real TCP carries
// whatever the network between the sites imposes, and
// transport.VirtualNetwork applies each link's modelled one-way delay
// (typically the overlay cost matrix, see transport.TenantSiteLinks).
package rp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// Config parameterizes one RP node.
type Config struct {
	Site       int
	ListenAddr string // peer-facing listen address, e.g. "127.0.0.1:0"
	Membership string // membership server dial address (single-shard plane)

	// Directory lists the control plane's membership servers per shard:
	// Directory[k] holds shard k's dial addresses, primary first,
	// standbys after. nil means the single-shard plane [[Membership]].
	// A shard with more than one address is failover-capable: the node
	// re-registers with the next address when the control link dies.
	Directory [][]string

	In, Out int // bandwidth limits in stream units (reported upstream)

	Cameras int            // local camera count (streams originated)
	Profile stream.Profile // encoding profile for local cameras
	Seed    int64          // generator seed

	// Subscriptions is the site's aggregated subscription set (the output
	// of the FOV framework).
	Subscriptions []stream.ID

	// DeliveryBuffer bounds the local display queue; when full, the
	// newest frame is dropped (video semantics). 0 means 256.
	DeliveryBuffer int

	// Network is the transport fabric the node listens and dials on; nil
	// means real TCP (transport.TCPNetwork with the default dial
	// timeout). Any WAN latency between sites is the fabric's: the node
	// writes each frame as soon as it is routed.
	Network transport.Network

	// Tenant identifies the session this node serves in a multi-tenant
	// plane; 0 (the single-tenant default) keeps the legacy shard
	// keying bit for bit. The index feeds stream-ownership hashing
	// (transport.TenantStreamShard), so it must match the membership
	// servers' configured tenant.
	Tenant int

	// SLO is the tenant's admission class; consulted only when
	// Admission is set.
	SLO workload.SLOClass

	// Uplink names the shared uplink (typically the site's PoP) that
	// this node's inbound subscriptions are charged against; consulted
	// only when Admission is set.
	Uplink string

	// Admission, when non-nil, is the shared cross-tenant admission
	// controller arbitrating uplink bandwidth: subscriptions are
	// admitted through it at registration and on every Resubscribe,
	// and bookings evicted by higher classes are shed from the data
	// plane. nil disables admission — the legacy single-session
	// behaviour.
	Admission *Admission

	// Backoff is the retry policy for every dial the node performs
	// (registration, control-plane failover, peer links). Zero fields
	// take the transport package defaults; the jitter seed, when unset,
	// is derived from Seed and Site so concurrent nodes decorrelate.
	Backoff transport.Backoff

	// RetryStats, when non-nil, is the shared counter dial retries are
	// recorded into (the live session aggregates one across all its
	// nodes); nil means a private counter nothing reads, so pass one to
	// observe retries.
	RetryStats *transport.RetryStats

	// ResubFloor seeds the node's resubscribe-ID high-water mark. A
	// node rejoining after a crash must carry the crashed node's floor
	// (LastResubID) so its fresh IDs are not suppressed as duplicates
	// by servers that remember the old node's mark.
	ResubFloor uint64

	// SeqFloor fast-forwards the camera rig so the first published
	// frame carries at least this sequence number. A rejoining node
	// seeds it with the crashed node's NextSeq; otherwise receivers'
	// duplicate watermarks would swallow every frame it publishes.
	SeqFloor uint64
}

// Delivery is one frame handed to the local displays.
type Delivery struct {
	Frame      *stream.Frame
	ReceivedAt time.Time
	LatencyMs  float64 // wall-clock capture→delivery latency
}

// StreamStats accumulates per-stream delivery statistics.
type StreamStats struct {
	Frames     int
	Dropped    int // dropped at the local delivery queue
	Duplicates int // second copies discarded by the sequence watermark
	Stale      int // frames of streams the site no longer accepts
	MeanLatMs  float64
	MaxSeq     uint64
	totalLatMs float64
}

// Disruption records the resubscription experience for one gained
// stream: the moment the routing update that granted it took effect
// locally, and the first frame actually delivered afterwards.
type Disruption struct {
	Stream stream.ID
	// Epoch is the routing-table version (of the stream's owning shard)
	// that gained the stream.
	Epoch uint64
	// Applied is when the update took effect; FirstFrame when the first
	// frame of the stream reached the local displays.
	Applied    time.Time
	FirstFrame time.Time
	// LatencyMs is FirstFrame − Applied in milliseconds.
	LatencyMs float64
}

// FailoverEvent records one completed control-plane failover: the node
// lost a shard's control connection, re-registered with a successor from
// the session directory, and resynchronized its shard slice.
type FailoverEvent struct {
	// Shard is the membership shard that failed over.
	Shard int
	// Detected is when the control connection loss was noticed; Restored
	// when the successor's shard table was applied locally.
	Detected time.Time
	Restored time.Time
}

// RecoveryMs returns the detected→restored span in milliseconds.
func (f FailoverEvent) RecoveryMs() float64 {
	return float64(f.Restored.Sub(f.Detected)) / float64(time.Millisecond)
}

// ResubscribeResult reports the membership control plane's decision on a
// mid-session subscription diff (combined across every shard the diff
// touched).
type ResubscribeResult struct {
	// Epoch is the highest routing-table version that incorporates the
	// change across the acknowledging shards.
	Epoch uint64
	// Accepted and Rejected partition the gained streams by admission.
	Accepted []stream.ID
	Rejected []stream.ID
	// Epochs maps each accepted stream to the epoch of the owning
	// shard's table that granted it — shard epoch sequences are
	// independent, so per-stream attribution needs the per-shard value.
	Epochs map[stream.ID]uint64
}

// routingTable is an immutable snapshot of the node's routing state; the
// node swaps the whole snapshot atomically on every update, so a frame is
// always routed under exactly one epoch. The snapshot is the union of
// every membership shard's directive; epochs holds the per-shard table
// versions and epoch their maximum. streams holds one entry per stream
// the site accepts or forwards — everything the frame path needs to know
// about the stream, found with one read of this immutable map and no
// lock. rejected and peers are shared between snapshots until a delta
// changes them.
type routingTable struct {
	epoch    uint64
	epochs   []uint64
	streams  map[stream.ID]streamRoute
	rejected map[stream.ID]bool
	peers    map[int]string
}

// streamRoute is a routing table's directive for one stream. It is kept
// to three words: a table swap copies every entry.
type streamRoute struct {
	accepted bool             // the site's displays receive the stream
	forward  *transport.Route // the forwarding duty as the server sent it; nil for none
	slot     *streamSlot      // the stream's receive-side state
}

// children lists the sites the stream is forwarded to.
func (sr streamRoute) children() []int {
	if sr.forward == nil {
		return nil
	}
	return sr.forward.Children
}

// streamSlot is one stream's receive-side state: delivery statistics
// (with the sequence watermark), the pending first-frame measurement and
// the disruptions already measured. A slot is created once and outlives
// every table swap; its own lock is all a frame takes, and only frames
// of the same stream arriving on two connections ever contend for it.
type streamSlot struct {
	mu          sync.Mutex
	stats       StreamStats
	gaining     bool     // a newly accepted stream awaits its first frame
	gain        gainMark // valid while gaining
	disruptions []Disruption
}

// setGain starts the slot's first-frame measurement, or cancels it when
// gaining is false.
func (s *streamSlot) setGain(gaining bool, g gainMark) {
	s.mu.Lock()
	s.gaining, s.gain = gaining, g
	s.mu.Unlock()
}

// slotLocked returns the slot of a stream, creating it on first sight
// (n.mu held).
func (n *Node) slotLocked(id stream.ID) *streamSlot {
	s := n.slots[id]
	if s == nil {
		s = &streamSlot{}
		n.slots[id] = s
	}
	return s
}

// shardEpoch returns the table version held for one shard (0 if the
// shard never delivered a table).
func (t *routingTable) shardEpoch(k int) uint64 {
	if k >= 0 && k < len(t.epochs) {
		return t.epochs[k]
	}
	return 0
}

// wire returns the snapshot's forwarding duties, accepted and rejected
// streams in wire form (in map order), restricted to the streams keep
// admits, or all of them when keep is nil.
func (t *routingTable) wire(keep func(stream.ID) bool) *transport.Routes {
	r := &transport.Routes{}
	for id, sr := range t.streams {
		if keep != nil && !keep(id) {
			continue
		}
		if sr.forward != nil {
			r.Forward = append(r.Forward, *sr.forward)
		}
		if sr.accepted {
			r.Accepted = append(r.Accepted, id)
		}
	}
	for id := range t.rejected {
		if keep == nil || keep(id) {
			r.Rejected = append(r.Rejected, id)
		}
	}
	return r
}

// gainMark tracks a newly accepted stream until its first delivery.
type gainMark struct {
	epoch uint64
	at    time.Time
}

// inflightReq is one resubscribe sub-request awaiting a shard's
// acknowledgement (or, across a failover, the successor's shard sync).
type inflightReq struct {
	shard  int
	gained []stream.ID
	ch     chan *ResubscribeResult
}

// ctrlLink is the long-lived control connection to one membership
// shard; the connection is swapped in place on failover.
type ctrlLink struct {
	shard int
	mu    sync.Mutex // serializes writes and guards conn swaps
	conn  net.Conn
}

func (l *ctrlLink) get() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

func (l *ctrlLink) set(c net.Conn) {
	l.mu.Lock()
	l.conn = c
	l.mu.Unlock()
}

func (l *ctrlLink) write(m *transport.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return transport.WriteMessage(l.conn, m)
}

func (l *ctrlLink) close() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
}

// Node is a running rendezvous point.
type Node struct {
	cfg Config
	ln  net.Listener
	rig *stream.Rig

	tbl       atomic.Pointer[routingTable]
	ready     chan struct{}
	readyOnce sync.Once

	ctrls   []*ctrlLink
	shards  int
	resubID atomic.Uint64

	backoff transport.Backoff
	retry   *transport.RetryStats

	// peers is the live outgoing links by site, published copy-on-write
	// (writers hold mu) so the frame path reads it without a lock.
	peers     atomic.Pointer[map[int]*peerLink]
	published atomic.Int64

	// mu guards the control-plane state below: table transitions, peer
	// dial/reconnect state, the slot registry. The per-frame path takes
	// it only for a frame of a stream its table snapshot does not know.
	mu           sync.Mutex
	dir          [][]string
	desired      map[stream.ID]bool
	peerConn     map[int]*peerConnState
	inbound      map[net.Conn]struct{}
	slots        map[stream.ID]*streamSlot
	inflight     map[uint64]*inflightReq
	failovers    []FailoverEvent
	staleUpdates int
	admRejected  int // streams denied by the admission controller
	firstErr     error

	deliveries chan Delivery
	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	downOnce   sync.Once // guards teardown (Close, Crash, ctx watcher)
}

// peerConnState tracks the (re)connection state of one outgoing peer
// link: single-flight for the background connector, and a dead marker
// once the retry budget is exhausted so frames stop triggering dials.
// A routing update that changes the peer's address revives it.
type peerConnState struct {
	connecting bool
	dead       bool
}

// peerLink is an outgoing connection to one peer site, drained by run.
type peerLink struct {
	conn  net.Conn
	queue chan []byte // sealed frame messages
	err   error       // write error; set by run before it returns
}

// New creates an RP node; Start must be called before use.
func New(cfg Config) (*Node, error) {
	if cfg.Cameras <= 0 {
		return nil, fmt.Errorf("rp: site %d: cameras=%d", cfg.Site, cfg.Cameras)
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.DeliveryBuffer == 0 {
		cfg.DeliveryBuffer = 256
	}
	if cfg.Network == nil {
		cfg.Network = transport.TCPNetwork{DialTimeout: transport.DefaultDialTimeout}
	}
	rig, err := stream.NewRig(cfg.Site, cfg.Cameras, cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rig.AdvanceTo(cfg.SeqFloor)
	desired := make(map[stream.ID]bool, len(cfg.Subscriptions))
	for _, id := range cfg.Subscriptions {
		desired[id] = true
	}
	backoff := cfg.Backoff
	if backoff.Seed == 0 {
		// Decorrelate concurrent nodes' jitter deterministically.
		backoff.Seed = cfg.Seed + int64(cfg.Site)*7919 + 1
	}
	retry := cfg.RetryStats
	if retry == nil {
		retry = &transport.RetryStats{}
	}
	n := &Node{
		cfg:        cfg,
		rig:        rig,
		ready:      make(chan struct{}),
		backoff:    backoff,
		retry:      retry,
		desired:    desired,
		peerConn:   make(map[int]*peerConnState),
		inbound:    make(map[net.Conn]struct{}),
		slots:      make(map[stream.ID]*streamSlot),
		inflight:   make(map[uint64]*inflightReq),
		deliveries: make(chan Delivery, cfg.DeliveryBuffer),
	}
	n.resubID.Store(cfg.ResubFloor)
	return n, nil
}

// Addr returns the node's peer-facing address (valid after Start).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Site returns the site index the node serves.
func (n *Node) Site() int { return n.cfg.Site }

// Start listens for peers, registers with every membership shard, and
// blocks until the initial routing tables arrive or ctx is cancelled.
// The control connections stay open afterwards: routing updates pushed
// by the shards are applied live until Close or ctx cancellation, and a
// failover-capable shard whose connection dies is re-registered with its
// successor transparently.
func (n *Node) Start(ctx context.Context) error {
	ln, err := n.cfg.Network.Listen(n.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("rp: site %d listen: %w", n.cfg.Site, err)
	}
	n.ln = ln
	n.ctx, n.cancel = context.WithCancel(ctx)

	// The control links exist (unconnected) before the teardown watcher
	// does: it sweeps n.ctrls, possibly while registration is still
	// filling the connections in.
	dir := n.cfg.Directory
	if len(dir) == 0 {
		dir = [][]string{{n.cfg.Membership}}
	}
	n.mu.Lock()
	n.dir = dir
	n.mu.Unlock()
	n.shards = len(dir)
	n.ctrls = make([]*ctrlLink, n.shards)
	for k := range n.ctrls {
		n.ctrls[k] = &ctrlLink{shard: k}
	}

	// An ungraceful disconnect (session context cancelled without a
	// graceful Close — a crash, from the fabric's point of view) must
	// still return the node's uplink bookings to the admission pool:
	// the watcher runs the same idempotent teardown Close and Crash use.
	go func() {
		<-n.ctx.Done()
		n.teardown()
	}()

	// Admission gates the initial subscription set before registration:
	// a denied stream never reaches the membership plane, so it cannot
	// resurrect through a failover re-registration either. Already
	// booked ids (the driver's admission pre-pass) re-admit
	// idempotently without double charge.
	if n.cfg.Admission != nil {
		_, denied := n.cfg.Admission.Admit(n.cfg.Uplink, n.cfg.Tenant, n.cfg.Site, n.cfg.SLO, n.cfg.Subscriptions)
		if len(denied) > 0 {
			n.mu.Lock()
			for _, id := range denied {
				delete(n.desired, id)
			}
			n.admRejected += len(denied)
			n.mu.Unlock()
		}
		n.cfg.Admission.bind(n.cfg.Tenant, n.cfg.Site, n)
	}

	n.wg.Add(1)
	go n.acceptLoop()

	routes := make([]*transport.Routes, n.shards)
	for k := range dir {
		conn, r, err := n.registerBoot(ctx, k, dir[k])
		if err != nil {
			n.Close()
			return err
		}
		// Control links must be usable before the ready gate opens:
		// Resubscribe treats ready as "the control plane is writable".
		n.ctrls[k].set(conn)
		routes[k] = r
	}
	n.installShardRoutes(routes)
	for _, l := range n.ctrls {
		n.wg.Add(1)
		go n.controlLoop(l)
	}
	return nil
}

// registerBoot performs a shard's initial registration. A single-entry
// directory rides the full backoff schedule against the one server. A
// failover-capable directory is swept from the primary, with the
// schedule's patience for each entry: a node booting mid-session (a chaos
// rejoin) may find the primary restarted away and a later entry live.
func (n *Node) registerBoot(ctx context.Context, shard int, addrs []string) (net.Conn, *transport.Routes, error) {
	if len(addrs) == 1 {
		return n.register(ctx, shard, addrs[0], false, n.backoff)
	}
	return n.sweep(ctx, shard, 0, len(addrs), false)
}

// sweep registers a shard with the servers its directory entry lists, in
// turn from entry first and wrapping: one fast dial per round (a dead
// server must not hold up the sweep to the next entry), rounds paced by
// the shared backoff policy, every paced round counted as a retry. The
// entry is re-read each round, and the sweep gives up after scale times
// the policy's attempt budget, or when ctx ends.
func (n *Node) sweep(ctx context.Context, shard, first, scale int, reregister bool) (net.Conn, *transport.Routes, error) {
	oneShot := n.backoff
	oneShot.Attempts = -1
	attempts := n.backoff.Attempts
	if attempts <= 0 {
		attempts = transport.DefaultBackoffAttempts
	}
	var lastErr error
	for a := 0; a < attempts*scale; a++ {
		if a > 0 {
			if err := n.backoff.Sleep(ctx, a-1); err != nil {
				return nil, nil, err
			}
			n.retry.Add(1)
		}
		addrs := n.dirFor(shard)
		if len(addrs) == 0 {
			return nil, nil, fmt.Errorf("rp: site %d shard %d: empty directory entry", n.cfg.Site, shard)
		}
		conn, r, err := n.register(ctx, shard, addrs[(first+a)%len(addrs)], reregister, oneShot)
		if err == nil {
			return conn, r, nil
		}
		lastErr = err
	}
	return nil, nil, lastErr
}

// register dials one membership server, performs the Hello/Subscribe
// handshake, and blocks until the shard's routing table arrives (or ctx
// is cancelled). A re-registration after a control failure carries the
// node's current desired subscription set, its last-seen epoch for the
// shard, and its resubscribe-ID high-water mark, so the successor can
// reconstruct shard state without double-applying retried diffs. The
// dial goes through the shared retry helper under the given policy
// (initial registration rides the full backoff schedule; failover
// passes a single-attempt policy and paces its own directory sweep).
func (n *Node) register(ctx context.Context, shard int, addr string, reregister bool, b transport.Backoff) (net.Conn, *transport.Routes, error) {
	// The fabric dialer honours ctx and its own timeout, so a dead
	// membership server fails the handshake instead of hanging.
	conn, err := transport.DialWithRetry(ctx, n.cfg.Network, addr, b, n.retry)
	if err != nil {
		return nil, nil, fmt.Errorf("rp: site %d dial membership shard %d: %w", n.cfg.Site, shard, err)
	}
	hello := &transport.Hello{
		Site: n.cfg.Site, Addr: n.Addr(),
		In: n.cfg.In, Out: n.cfg.Out, NumStreams: n.cfg.Cameras,
	}
	subs := n.cfg.Subscriptions
	if reregister {
		if t := n.table(); t != nil {
			hello.Epoch = t.shardEpoch(shard)
		}
		hello.LastResub = n.resubID.Load()
		subs = n.desiredSnapshot()
	}
	if err := transport.WriteMessage(conn, &transport.Message{Type: transport.MsgHello, Hello: hello}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	sub := &transport.Subscribe{Site: n.cfg.Site, Streams: subs}
	if err := transport.WriteMessage(conn, &transport.Message{Type: transport.MsgSubscribe, Subscribe: sub}); err != nil {
		conn.Close()
		return nil, nil, err
	}

	// Wait for the routing table on the same connection.
	type result struct {
		routes *transport.Routes
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			resCh <- result{err: fmt.Errorf("rp: site %d read routes: %w", n.cfg.Site, err)}
			return
		}
		switch m.Type {
		case transport.MsgRoutes:
			resCh <- result{routes: m.Routes}
		case transport.MsgError:
			resCh <- result{err: fmt.Errorf("rp: site %d rejected by membership: %s", n.cfg.Site, m.Error.Msg)}
		default:
			resCh <- result{err: fmt.Errorf("rp: site %d expected routes, got type %d", n.cfg.Site, m.Type)}
		}
	}()
	select {
	case r := <-resCh:
		if r.err != nil {
			conn.Close()
			return nil, nil, r.err
		}
		return conn, r.routes, nil
	case <-ctx.Done():
		conn.Close()
		return nil, nil, ctx.Err()
	}
}

// desiredSnapshot returns the node's current desired subscription set,
// sorted for deterministic registration payloads.
func (n *Node) desiredSnapshot() []stream.ID {
	n.mu.Lock()
	out := make([]stream.ID, 0, len(n.desired))
	for id := range n.desired {
		out = append(out, id)
	}
	n.mu.Unlock()
	stream.SortIDs(out)
	return out
}

// table returns the current routing snapshot (nil before installation).
func (n *Node) table() *routingTable { return n.tbl.Load() }

// Routes returns the installed routing table (nil before Start returns):
// the union of every shard's directive at the highest shard epoch. It is
// built from the current snapshot on every call, with Forward, Accepted
// and Rejected sorted by stream as the membership server sends them;
// later updates never mutate it, and callers must not mutate its Peers.
func (n *Node) Routes() *transport.Routes {
	t := n.table()
	if t == nil {
		return nil
	}
	r := t.wire(nil)
	r.Site, r.Epoch, r.Peers = n.cfg.Site, t.epoch, t.peers
	sort.Slice(r.Forward, func(a, b int) bool { return r.Forward[a].Stream.Less(r.Forward[b].Stream) })
	stream.SortIDs(r.Accepted)
	stream.SortIDs(r.Rejected)
	return r
}

// Epoch returns the highest shard table version currently in effect
// (0 before installation).
func (n *Node) Epoch() uint64 {
	if t := n.table(); t != nil {
		return t.epoch
	}
	return 0
}

// installShardRoutes boots the routing state: the node starts from an
// empty table, syncs each shard's initial table onto it in shard order
// (routes[k] is shard k's), and opens the ready gate.
func (n *Node) installShardRoutes(routes []*transport.Routes) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, r := range routes {
		n.syncLocked(k, r)
	}
	n.readyOnce.Do(func() { close(n.ready) })
}

// controlLoop serves one shard's control connection until the node
// shuts down: it applies pushed updates, and when the connection dies on
// a failover-capable shard it re-registers with the next server in the
// session directory instead of giving up.
func (n *Node) controlLoop(l *ctrlLink) {
	defer n.wg.Done()
	for {
		conn := l.get()
		err := n.readLoop(l.shard, conn)
		conn.Close()
		if n.ctx.Err() != nil {
			return
		}
		if len(n.dirFor(l.shard)) < 2 {
			// No successor to fail over to: legacy single-server
			// semantics — surface unexpected breakage, swallow clean EOF.
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.recordErr(fmt.Errorf("rp: site %d control read: %w", n.cfg.Site, err))
			}
			return
		}
		if !n.failover(l) {
			return
		}
	}
}

// readLoop dispatches control messages from one shard connection until
// it fails; the returned error is the read failure.
func (n *Node) readLoop(shard int, conn net.Conn) error {
	for {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			return err
		}
		switch m.Type {
		case transport.MsgRoutesUpdate:
			n.applyUpdate(m.Update)
			n.resolveAcks(m.Update)
		case transport.MsgRoutes:
			// A mid-session full table is a shard sync (the server
			// resynchronized this site after a re-registration).
			n.applySync(m.Routes)
		case transport.MsgError:
			n.recordErr(fmt.Errorf("rp: site %d control: %s", n.cfg.Site, m.Error.Msg))
		}
	}
}

// dirFor snapshots the session directory entry of one shard.
func (n *Node) dirFor(shard int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if shard < 0 || shard >= len(n.dir) {
		return nil
	}
	return n.dir[shard]
}

// failover re-registers the shard by sweeping the session directory
// from the first standby (wrapping, so a recovered primary is also a
// valid successor) until one server delivers a shard table, then swaps
// the control link and resynchronizes. Each entry gets three times the
// backoff schedule: the standby for a chaos restart may still be
// computing its first tables while the node sweeps. Returns false when
// the node is shutting down or every candidate failed.
func (n *Node) failover(l *ctrlLink) bool {
	detected := time.Now()
	conn, routes, err := n.sweep(n.ctx, l.shard, 1, 3, true)
	if err != nil {
		if n.ctx.Err() == nil {
			n.recordErr(fmt.Errorf("rp: site %d shard %d failover: no successor reachable", n.cfg.Site, l.shard))
		}
		return false
	}
	l.set(conn)
	n.applySync(routes)
	n.mu.Lock()
	n.failovers = append(n.failovers, FailoverEvent{Shard: l.shard, Detected: detected, Restored: time.Now()})
	n.mu.Unlock()
	return true
}

// resolveAcks settles resubscribe waiters from an update's folded-in
// acknowledgements. Resolution is independent of the epoch gate: even
// an update whose table content is stale still answers its requesters
// (a re-acknowledged duplicate carries the current epoch unchanged).
func (n *Node) resolveAcks(u *transport.RoutesUpdate) {
	for _, a := range u.Acks {
		n.mu.Lock()
		req, ok := n.inflight[a.ID]
		if ok {
			delete(n.inflight, a.ID)
		}
		n.mu.Unlock()
		if !ok {
			continue
		}
		res := &ResubscribeResult{Epoch: u.Epoch, Accepted: a.Accepted, Rejected: a.Rejected}
		if len(a.Accepted) > 0 {
			res.Epochs = make(map[stream.ID]uint64, len(a.Accepted))
			for _, id := range a.Accepted {
				res.Epochs[id] = u.Epoch
			}
		}
		req.ch <- res
	}
}

// applyUpdate applies a delta pushed by one shard.
func (n *Node) applyUpdate(u *transport.RoutesUpdate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.applyLocked(u)
}

// applyLocked is the node's one routing-table transition: it merges an
// epoch-versioned delta for one shard into a fresh snapshot and swaps it
// in. A delta whose epoch is not newer than the snapshot's slice for its
// shard is dropped and counted (a reordered or replayed delta must not
// roll the table back); the result reports whether it was applied.
// Before the first table the node holds the empty table (n.mu held).
func (n *Node) applyLocked(u *transport.RoutesUpdate) bool {
	cur := n.table()
	if cur == nil {
		cur = &routingTable{}
	}
	held := cur.shardEpoch(u.Shard)
	if u.Epoch <= held {
		n.staleUpdates++
		return false
	}
	t := &routingTable{
		epoch:    max(cur.epoch, u.Epoch),
		epochs:   make([]uint64, max(len(cur.epochs), u.Shard+1)),
		rejected: cur.rejected,
		peers:    cur.peers,
	}
	copy(t.epochs, cur.epochs)
	t.epochs[u.Shard] = u.Epoch

	// The peer mesh is registration-time state the server shares across
	// rebuilds, so deltas normally carry no Peers: a node with no mesh yet
	// (boot) adopts the delta's map as is, and a held mesh is copied only
	// when a delta actually touches it — at cluster scale this is an O(N)
	// map copy saved per update.
	switch {
	case cur.peers == nil:
		t.peers = u.Peers
	case len(u.Peers) > 0:
		t.peers = make(map[int]string, len(cur.peers))
		for k, v := range cur.peers {
			t.peers[k] = v
		}
		for k, v := range u.Peers {
			// A changed address means the peer restarted (crash/rejoin):
			// drop any stale link and revive a dead-marked peer so the
			// next frame redials the new address.
			if old, ok := t.peers[k]; ok && old != v {
				if link := n.peerLinks()[k]; link != nil {
					link.conn.Close()
				}
				if st := n.peerConn[k]; st != nil {
					st.dead = false
				}
			}
			t.peers[k] = v
		}
	}

	// Merge into a fresh lookup map. A route with no children clears the
	// duty; entries left neither accepting nor forwarding are dropped,
	// and every remaining one gets its slot.
	streams := make(map[stream.ID]streamRoute, len(cur.streams))
	for id, sr := range cur.streams {
		streams[id] = sr
	}
	for i := range u.SetForward {
		route := &u.SetForward[i]
		sr := streams[route.Stream]
		sr.forward = route
		if len(route.Children) == 0 {
			sr.forward = nil
		}
		streams[route.Stream] = sr
	}
	for _, id := range u.AddAccepted {
		sr := streams[id]
		sr.accepted = true
		streams[id] = sr
	}
	for _, id := range u.DelAccepted {
		sr := streams[id]
		sr.accepted = false
		streams[id] = sr
	}
	for id, sr := range streams {
		switch {
		case !sr.accepted && sr.forward == nil:
			delete(streams, id)
		case sr.slot == nil:
			sr.slot = n.slotLocked(id)
			streams[id] = sr
		}
	}
	t.streams = streams

	if len(u.AddRejected)+len(u.DelRejected) > 0 {
		t.rejected = make(map[stream.ID]bool, len(cur.rejected)+len(u.AddRejected))
		for id := range cur.rejected {
			t.rejected[id] = true
		}
		for _, id := range u.AddRejected {
			t.rejected[id] = true
		}
		for _, id := range u.DelRejected {
			delete(t.rejected, id)
		}
	}

	// Track newly gained streams until their first delivered frame; a
	// stream withdrawn before that settles as never-delivered. Only a
	// shard that already held a table gains streams (boot measures
	// nothing). The marks go in before the table does, so the first
	// frame routed under the new table already finds its mark.
	now := time.Now()
	for _, id := range u.AddAccepted {
		if held > 0 && !cur.streams[id].accepted {
			n.slotLocked(id).setGain(true, gainMark{epoch: u.Epoch, at: now})
		}
	}
	for _, id := range u.DelAccepted {
		n.slotLocked(id).setGain(false, gainMark{})
	}
	n.tbl.Store(t)
	return true
}

// applySync applies a full table one shard sent mid-session — the
// resynchronization a successor (or the same server, after this site
// re-registered) sends.
func (n *Node) applySync(r *transport.Routes) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.syncLocked(r.Shard, r)
}

// syncLocked makes the snapshot's slice for shard k equal the shard's
// full table r: the held slice is diffed against r and the difference
// applied as a delta at r's epoch, so a sync gains, loses and reroutes
// streams exactly as the equivalent delta would. A sync that is not
// stale also takes r's session directory and settles resubscriptions
// left in flight toward the shard from the synced admission state: the
// crash may have eaten their individual acknowledgements, but the
// re-registration carried their effect (n.mu held).
func (n *Node) syncLocked(k int, r *transport.Routes) {
	if r.Epoch == 0 {
		r.Epoch = 1
	}
	cur := n.table()
	if cur == nil {
		cur = &routingTable{}
	}
	shards := max(n.shards, k+1)
	u := transport.DiffRoutes(cur.wire(func(id stream.ID) bool {
		return transport.TenantStreamShard(n.cfg.Tenant, id, shards) == k
	}), r)
	if u == nil {
		u = &transport.RoutesUpdate{}
	}
	u.Epoch, u.Shard = r.Epoch, k
	if cur.peers == nil {
		u.Peers = r.Peers // the mesh is the same in every shard's table
	}
	if !n.applyLocked(u) {
		return
	}
	if len(r.Directory) > 0 {
		n.dir = r.Directory
	}

	// A gain in neither set was lost in the failover window (sent after
	// the successor's registration snapshot): it is reported as neither
	// accepted nor rejected — a bounded loss.
	t := n.table()
	for id, req := range n.inflight {
		if req.shard != k {
			continue
		}
		res := &ResubscribeResult{Epoch: r.Epoch}
		for _, g := range req.gained {
			switch {
			case t.streams[g].accepted:
				if res.Epochs == nil {
					res.Epochs = make(map[stream.ID]uint64)
				}
				res.Accepted = append(res.Accepted, g)
				res.Epochs[g] = r.Epoch
			case t.rejected[g]:
				res.Rejected = append(res.Rejected, g)
			}
		}
		delete(n.inflight, id)
		req.ch <- res
	}
}

// Resubscribe sends a mid-session subscription diff to the membership
// control plane — split across the shards owning the touched streams —
// and blocks until every shard's acknowledging update has been applied
// locally (or ctx is cancelled). Frames keep flowing throughout. Across
// a membership failover the acknowledgement may come from the
// successor's shard sync instead of a direct ack.
func (n *Node) Resubscribe(ctx context.Context, gained, lost []stream.ID) (*ResubscribeResult, error) {
	select {
	case <-n.ready:
	default:
		return nil, errors.New("rp: routes not installed")
	}
	if len(n.ctrls) == 0 {
		return nil, errors.New("rp: no control links")
	}
	shards := n.shards

	// Admission gates gains before they enter the desired set (a denied
	// stream must not resurrect through a failover re-registration) and
	// returns lost bookings to the uplink pool first, so a view change
	// that swaps streams does not transiently overcount.
	var admissionDenied []stream.ID
	if n.cfg.Admission != nil {
		n.cfg.Admission.Release(n.cfg.Uplink, n.cfg.Tenant, n.cfg.Site, lost)
		gained, admissionDenied = n.cfg.Admission.Admit(n.cfg.Uplink, n.cfg.Tenant, n.cfg.Site, n.cfg.SLO, gained)
		if len(admissionDenied) > 0 {
			n.mu.Lock()
			n.admRejected += len(admissionDenied)
			n.mu.Unlock()
		}
	}

	n.mu.Lock()
	for _, id := range gained {
		n.desired[id] = true
	}
	for _, id := range lost {
		delete(n.desired, id)
	}
	n.mu.Unlock()

	type part struct {
		gained, lost []stream.ID
	}
	parts := make(map[int]*part)
	add := func(k int) *part {
		p := parts[k]
		if p == nil {
			p = &part{}
			parts[k] = p
		}
		return p
	}
	for _, id := range gained {
		k := transport.TenantStreamShard(n.cfg.Tenant, id, shards)
		p := add(k)
		p.gained = append(p.gained, id)
	}
	for _, id := range lost {
		k := transport.TenantStreamShard(n.cfg.Tenant, id, shards)
		p := add(k)
		p.lost = append(p.lost, id)
	}
	if len(parts) == 0 {
		add(0) // empty diff still round-trips for its acknowledgement
	}
	order := make([]int, 0, len(parts))
	for k := range parts {
		order = append(order, k)
	}
	sort.Ints(order)

	type pending struct {
		id uint64
		ch chan *ResubscribeResult
	}
	var reqs []pending
	cleanup := func() {
		n.mu.Lock()
		for _, rq := range reqs {
			delete(n.inflight, rq.id)
		}
		n.mu.Unlock()
	}
	for _, k := range order {
		p := parts[k]
		id := n.resubID.Add(1)
		ch := make(chan *ResubscribeResult, 1)
		n.mu.Lock()
		n.inflight[id] = &inflightReq{shard: k, gained: p.gained, ch: ch}
		n.mu.Unlock()
		msg := &transport.Message{Type: transport.MsgResubscribe, Resubscribe: &transport.Resubscribe{
			Site: n.cfg.Site, ID: id, Gained: p.gained, Lost: p.lost,
		}}
		if err := n.ctrls[k].write(msg); err != nil {
			// On a failover-capable shard a failed write races the
			// reconnect: the request stays in flight and the successor's
			// shard sync settles it. Without a successor it is fatal.
			if len(n.dirFor(k)) < 2 {
				cleanup()
				return nil, fmt.Errorf("rp: site %d resubscribe: %w", n.cfg.Site, err)
			}
		}
		reqs = append(reqs, pending{id: id, ch: ch})
	}
	defer cleanup()

	out := &ResubscribeResult{}
	for _, rq := range reqs {
		select {
		case res := <-rq.ch:
			if res.Epoch > out.Epoch {
				out.Epoch = res.Epoch
			}
			out.Accepted = append(out.Accepted, res.Accepted...)
			out.Rejected = append(out.Rejected, res.Rejected...)
			if len(res.Epochs) > 0 {
				if out.Epochs == nil {
					out.Epochs = make(map[stream.ID]uint64, len(res.Epochs))
				}
				for id, e := range res.Epochs {
					out.Epochs[id] = e
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-n.ctx.Done():
			return nil, n.ctx.Err()
		}
	}
	// Streams the admission controller denied never reached the
	// membership plane; report them alongside its rejections so callers
	// see one combined admission verdict.
	out.Rejected = append(out.Rejected, admissionDenied...)
	return out, nil
}

// shedAsync drops victims from the node's subscription set in the
// background: the admission controller displaced them to make room for
// a higher class, so the node resubscribes without them as if its own
// view had dropped them. Called by the controller after its lock is
// released, so re-entrant admission from the resubscription is safe.
func (n *Node) shedAsync(victims []stream.ID) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_, _ = n.Resubscribe(n.ctx, nil, victims)
	}()
}

// AdmissionRejections reports how many subscription attempts the
// admission controller denied this node over its lifetime (zero when
// the node runs without admission).
func (n *Node) AdmissionRejections() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.admRejected
}

// PublishTick captures one frame from every local camera and disseminates
// them through the overlay. Frames are stamped with wall-clock capture
// time so receivers can measure true end-to-end latency, then sealed
// into their wire bytes in place: every child on every hop is sent those
// same bytes.
func (n *Node) PublishTick() error {
	tbl := n.table()
	if tbl == nil {
		return errors.New("rp: routes not installed")
	}
	now := time.Now().UnixMilli()
	for _, f := range n.rig.Tick() {
		f.CaptureMs = now
		msg, err := transport.SealFrame(f)
		if err != nil {
			return fmt.Errorf("rp: site %d publish %v: %w", n.cfg.Site, f.Stream, err)
		}
		n.dispatch(tbl.streams[f.Stream].children(), msg, tbl)
		n.published.Add(1)
	}
	return nil
}

// dispatch forwards a sealed frame message (local or received) to the
// overlay children its stream has under the given table snapshot (the
// snapshot is also where a missing link's address comes from); every
// child's writer gets the same slice. A child whose link is down
// (connector still backing off, or retry budget exhausted) simply
// misses the frame — video semantics, the same as a queue overflow —
// so one crashed peer never stalls the whole fan-out.
func (n *Node) dispatch(children []int, msg []byte, tbl *routingTable) {
	for _, child := range children {
		if link := n.peer(child, tbl); link != nil {
			link.send(msg)
		}
	}
}

// peerLinks returns the published link map; it must not be modified.
func (n *Node) peerLinks() map[int]*peerLink {
	if m := n.peers.Load(); m != nil {
		return *m
	}
	return nil
}

// setPeerLocked publishes a copy of the link map with site's entry set,
// or removed when link is nil (n.mu held).
func (n *Node) setPeerLocked(site int, link *peerLink) {
	old := n.peerLinks()
	m := make(map[int]*peerLink, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	if link == nil {
		delete(m, site)
	} else {
		m[site] = link
	}
	n.peers.Store(&m)
}

// peer returns the outgoing link to a site, dialing on first use. The
// dial and handshake happen outside n.mu — a slow or unreachable peer
// must not stall frame receipt or routing updates on this node — so two
// dispatchers can race to create the same link; the loser's connection
// is discarded. A failed dial hands the site to the background
// reconnector (single-flight, shared backoff policy) and returns nil;
// frames toward the site are dropped until it succeeds. A site whose
// retry budget is exhausted is marked dead and surfaces through Err;
// a routing update that moves the site's address revives it. A live link
// is found in the published map without taking n.mu.
func (n *Node) peer(site int, tbl *routingTable) *peerLink {
	if link := n.peerLinks()[site]; link != nil {
		return link
	}
	n.mu.Lock()
	if link := n.peerLinks()[site]; link != nil {
		n.mu.Unlock()
		return link
	}
	st := n.peerConn[site]
	if st == nil {
		st = &peerConnState{}
		n.peerConn[site] = st
	}
	if st.dead || st.connecting {
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	link, err := n.dialPeer(site, tbl)
	if err != nil {
		n.reconnectPeer(site, st)
		return nil
	}
	return link
}

// dialPeer performs one dial + handshake toward a peer and installs the
// resulting link (discarding it if a racing dispatcher won).
func (n *Node) dialPeer(site int, tbl *routingTable) (*peerLink, error) {
	addr, ok := tbl.peers[site]
	if !ok {
		return nil, fmt.Errorf("rp: site %d has no address for peer %d", n.cfg.Site, site)
	}
	oneShot := n.backoff
	oneShot.Attempts = -1
	conn, err := transport.DialWithRetry(n.ctx, n.cfg.Network, addr, oneShot, n.retry)
	if err != nil {
		return nil, fmt.Errorf("rp: site %d dial peer %d: %w", n.cfg.Site, site, err)
	}
	if err := transport.WriteMessage(conn, &transport.Message{
		Type: transport.MsgPeerHello, PeerHello: &transport.PeerHello{Site: n.cfg.Site},
	}); err != nil {
		conn.Close()
		return nil, err
	}
	link := &peerLink{conn: conn, queue: make(chan []byte, 1024)}
	n.mu.Lock()
	if existing := n.peerLinks()[site]; existing != nil {
		n.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	n.setPeerLocked(site, link)
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		link.run(n.ctx)
		n.mu.Lock()
		if n.peerLinks()[site] == link {
			n.setPeerLocked(site, nil)
		}
		st := n.peerConn[site]
		if st == nil {
			st = &peerConnState{}
			n.peerConn[site] = st
		}
		n.mu.Unlock()
		if link.err != nil && n.ctx.Err() == nil {
			// A severed write is not instantly fatal any more: the peer
			// may be mid crash/rejoin, so hand the site to the
			// reconnector and only surface an error if that exhausts.
			n.reconnectPeer(site, st)
		}
	}()
	return link, nil
}

// reconnectPeer runs the background redial loop for one peer site under
// the shared backoff policy (single-flight per site). Each attempt
// re-resolves the peer's address from the current routing table, so a
// rejoined peer's new address — delivered by a membership Peers delta —
// is picked up mid-loop. Exhausting the budget marks the site dead and
// surfaces the node's first error, preserving the contract that a
// permanently severed peer link fails the session.
func (n *Node) reconnectPeer(site int, st *peerConnState) {
	n.mu.Lock()
	if st.dead || st.connecting {
		n.mu.Unlock()
		return
	}
	st.connecting = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		finish := func(dead bool) {
			n.mu.Lock()
			st.connecting = false
			st.dead = dead
			n.mu.Unlock()
		}
		attempts := n.backoff.Attempts
		if attempts <= 0 {
			attempts = transport.DefaultBackoffAttempts
		}
		var lastErr error
		for a := 0; a < attempts; a++ {
			if err := n.backoff.Sleep(n.ctx, a); err != nil {
				finish(false)
				return
			}
			n.retry.Add(1)
			tbl := n.table()
			if tbl == nil {
				finish(false)
				return
			}
			if _, err := n.dialPeer(site, tbl); err == nil {
				finish(false)
				return
			} else {
				lastErr = err
			}
			if n.ctx.Err() != nil {
				finish(false)
				return
			}
		}
		finish(true)
		n.recordErr(fmt.Errorf("rp: site %d link to peer %d: %d attempts exhausted: %w",
			n.cfg.Site, site, attempts, lastErr))
	}()
}

// recordErr keeps the first asynchronous failure (a severed peer link, a
// control-plane protocol error) for Err and Close to surface.
func (n *Node) recordErr(err error) {
	n.mu.Lock()
	if n.firstErr == nil {
		n.firstErr = err
	}
	n.mu.Unlock()
}

// send queues a sealed frame message toward the peer. Frames are dropped
// (with no error) if the link queue overflows, matching real video
// transport under congestion.
func (l *peerLink) send(msg []byte) {
	select {
	case l.queue <- msg:
	default:
	}
}

// run writes queued frames in order, each as one Write of the shared,
// already sealed bytes. A write failure is recorded in l.err before run
// returns, so the spawning goroutine can surface it.
func (l *peerLink) run(ctx context.Context) {
	defer l.conn.Close()
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-l.queue:
			if err := transport.WriteSealed(l.conn, msg); err != nil {
				if ctx.Err() == nil {
					l.err = err
				}
				return
			}
		}
	}
}

// acceptLoop receives frames from upstream peers.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.mu.Lock()
				delete(n.inbound, conn)
				n.mu.Unlock()
			}()
			n.handlePeer(conn)
		}()
	}
}

func (n *Node) handlePeer(conn net.Conn) {
	m, err := transport.ReadMessage(conn)
	if err != nil || m.Type != transport.MsgPeerHello {
		return
	}
	frames := transport.NewFrameReader(conn)
	for {
		f, msg, err := frames.Next()
		if err != nil {
			return
		}
		// The snapshot loaded here is the frame's routing epoch: accept,
		// dedup, and forwarding decisions all read this one table.
		n.receive(f, msg, n.table())
	}
}

// receive delivers a frame locally and forwards msg, the sealed message
// it arrived in, downstream. Stats, dedup, and the delivery-queue drop
// decision happen in one section locked on the stream's slot, so the
// per-stream counters stay consistent when two parents deliver the same
// stream at once (a reroute); frames of different streams share nothing.
func (n *Node) receive(f *stream.Frame, msg []byte, tbl *routingTable) {
	if tbl == nil {
		return
	}
	now := time.Now()
	lat := float64(now.UnixMilli() - f.CaptureMs)

	sr := tbl.streams[f.Stream]
	slot := sr.slot
	if slot == nil {
		// Neither accepted nor forwarded under this table: a frame still
		// in flight across an unsubscribe. Rare enough for the node lock.
		n.mu.Lock()
		slot = n.slotLocked(f.Stream)
		n.mu.Unlock()
	}
	slot.mu.Lock()
	st := &slot.stats
	switch {
	case !sr.accepted:
		// The site does not (or no longer does) accept this stream: a
		// relay-only duty, or a frame in flight across an unsubscribe.
		st.Stale++
	case st.Frames > 0 && f.Seq <= st.MaxSeq:
		// Already delivered under an earlier path (e.g. the old parent
		// during a reroute): a receiver shows each frame at most once.
		st.Duplicates++
	default:
		st.Frames++
		st.totalLatMs += lat
		st.MeanLatMs = st.totalLatMs / float64(st.Frames)
		if f.Seq > st.MaxSeq {
			st.MaxSeq = f.Seq
		}
		select {
		case n.deliveries <- Delivery{Frame: f, ReceivedAt: now, LatencyMs: lat}:
			if g := slot.gain; slot.gaining {
				slot.disruptions = append(slot.disruptions, Disruption{
					Stream: f.Stream, Epoch: g.epoch,
					Applied: g.at, FirstFrame: now,
					LatencyMs: float64(now.Sub(g.at)) / float64(time.Millisecond),
				})
				slot.gaining = false
			}
		default:
			st.Dropped++
		}
	}
	slot.mu.Unlock()

	// Forward to overlay children (relay duty) under the same epoch.
	n.dispatch(sr.children(), msg, tbl)
}

// Deliveries exposes the local display feed.
func (n *Node) Deliveries() <-chan Delivery { return n.deliveries }

// slotList snapshots the slot registry in stream order.
func (n *Node) slotList() ([]stream.ID, []*streamSlot) {
	n.mu.Lock()
	ids := make([]stream.ID, 0, len(n.slots))
	for id := range n.slots {
		ids = append(ids, id)
	}
	stream.SortIDs(ids)
	slots := make([]*streamSlot, len(ids))
	for i, id := range ids {
		slots[i] = n.slots[id]
	}
	n.mu.Unlock()
	return ids, slots
}

// Stats snapshots per-stream delivery statistics: one entry per stream
// the node has received a frame of.
func (n *Node) Stats() map[stream.ID]StreamStats {
	ids, slots := n.slotList()
	out := make(map[stream.ID]StreamStats, len(ids))
	for i, s := range slots {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		if st.Frames+st.Stale+st.Duplicates > 0 {
			out[ids[i]] = st
		}
	}
	return out
}

// StaleUpdates reports how many routing updates were dropped because
// their epoch was not newer than the running table's slice for the
// sending shard — reordered or replayed deltas handled deterministically
// rather than applied.
func (n *Node) StaleUpdates() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.staleUpdates
}

// Disruptions snapshots the per-stream first-frame-after-change records
// accumulated by mid-session routing updates, grouped by stream and in
// order of occurrence within a stream.
func (n *Node) Disruptions() []Disruption {
	_, slots := n.slotList()
	var out []Disruption
	for _, s := range slots {
		s.mu.Lock()
		out = append(out, s.disruptions...)
		s.mu.Unlock()
	}
	return out
}

// Failovers snapshots the completed control-plane failovers this node
// performed (empty on a healthy session).
func (n *Node) Failovers() []FailoverEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]FailoverEvent, len(n.failovers))
	copy(out, n.failovers)
	return out
}

// Published returns the number of locally captured frames dispatched.
func (n *Node) Published() int { return int(n.published.Load()) }

// Err returns the first asynchronous failure the node observed: a peer
// link whose write failed (severed connection) or a control-plane
// protocol error. nil while the node is healthy.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.firstErr
}

// teardown is the single shutdown path shared by Close, Crash and the
// ungraceful-disconnect watcher: cancel, sever every connection, wait
// for all goroutines, then release admission bookings. Idempotent —
// whichever caller arrives first runs it; the rest block until it has
// completed (sync.Once semantics), so Close still waits for a teardown
// the context watcher started.
func (n *Node) teardown() {
	n.downOnce.Do(func() {
		if n.cancel != nil {
			n.cancel()
		}
		if n.ln != nil {
			n.ln.Close()
		}
		for _, l := range n.ctrls {
			if l != nil {
				l.close()
			}
		}
		n.mu.Lock()
		for _, link := range n.peerLinks() {
			link.conn.Close()
		}
		for conn := range n.inbound {
			conn.Close()
		}
		n.mu.Unlock()
		n.wg.Wait()
		// Return the uplink bookings after every worker has drained so a
		// late shed cannot re-book what the close already released.
		if n.cfg.Admission != nil {
			n.cfg.Admission.unbind(n.cfg.Tenant, n.cfg.Site)
			n.cfg.Admission.Release(n.cfg.Uplink, n.cfg.Tenant, n.cfg.Site, n.desiredSnapshot())
		}
	})
}

// Close shuts the node down, waits for all goroutines, and returns the
// first asynchronous failure observed during the session (nil on a clean
// run).
func (n *Node) Close() error {
	n.teardown()
	return n.Err()
}

// Crash tears the node down ungracefully — the fault injector's view of
// a process kill: the listener and every connection die immediately, no
// goodbye reaches the membership plane or the peers, and any error the
// abrupt teardown produced is deliberately not consulted. The admission
// bookings are still returned to the uplink pool (the conn-teardown
// release), which is exactly what a real supervisor reclaiming a dead
// process's reservations would do. A crashed site rejoins as a fresh
// Node carrying Desired() and LastResubID() from the corpse.
func (n *Node) Crash() {
	n.teardown()
}

// Desired snapshots the node's current desired subscription set, sorted
// — the state a rejoining replacement registers with.
func (n *Node) Desired() []stream.ID {
	return n.desiredSnapshot()
}

// LastResubID returns the node's resubscribe-ID high-water mark; a
// rejoining replacement passes it as Config.ResubFloor so the servers'
// duplicate suppression does not eat the new node's fresh diffs.
func (n *Node) LastResubID() uint64 {
	return n.resubID.Load()
}

// NextSeq returns the sequence number the node's next published frame
// will carry; a rejoining replacement passes it as Config.SeqFloor so
// receivers' duplicate watermarks do not swallow its frames. Callers
// must have stopped publishing (the node is crashed or closed).
func (n *Node) NextSeq() uint64 {
	return n.rig.NextSeq()
}
