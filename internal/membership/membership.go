// Package membership implements the membership control plane of §3.2:
// servers aggregate the per-site subscription sets from all RPs,
// construct the dissemination forest with a chosen overlay algorithm,
// and dictate per-RP routing tables back to the sites.
//
// The paper takes the centralized approach deliberately: 3DTI sessions
// are small to medium sized, so a single coordination point is simpler
// than a distributed control plane. At cluster scale the plane shards:
// several Server instances run side by side, each owning the disjoint
// slice of the stream space given by transport.TenantStreamShard.
// Every shard receives the full registration workload and constructs
// the identical forest (same seed, same algorithm), but applies
// mid-session diffs and pushes route deltas only for the trees it
// owns, so the union of the per-shard directives an RP holds is exactly
// the single-server table.
//
// Each server is a long-lived control loop: registration connections
// stay open for the whole session, and each RP may send MsgResubscribe
// diffs (view changes, joins, leaves) mid-session. Diffs are applied to
// the live forest through the overlay's dynamic Subscribe/Unsubscribe
// operations, the shard epoch is bumped, and per-site routing deltas
// (MsgRoutesUpdate) are pushed to the affected RPs only. A flush never
// rebuilds the N per-site tables: dynamic ops change only the requested
// stream's tree, so the server records the sites whose entries they can
// alter (the tree's members before the op, the requester, the source),
// patches exactly those entries from the live forest and diffs only
// those sites, so a flush costs O(what changed), not O(N). With a
// positive FlushIntervalMs a burst of churn is coalesced into one delta
// per site per flush instead of one per event.
//
// Failover needs no replication protocol and no standby: a restarted
// shard is simply a fresh Server listening at its predecessor's
// address (Config.ListenAddr), the one address the RPs already hold.
// RPs that lose the shard's control connection re-register there
// carrying their current desired subscription set, their last-seen
// epoch (so the successor resumes the epoch sequence above it) and their
// resubscribe-ID high-water mark (so retried diffs are suppressed
// instead of double-applied) — the paper's recovery primitive: state
// lives at the edge and the coordinator is reconstructible.
package membership

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// Config parameterizes the server.
type Config struct {
	// N is the number of sites expected to register.
	N int
	// Cost is the pairwise one-way latency matrix among sites: the
	// overlay edge cost the forest is built against.
	Cost [][]float64
	// Bcost is the latency bound for the forest construction.
	Bcost float64
	// Algorithm constructs the forest; nil means overlay.RJ{}.
	Algorithm overlay.Algorithm
	// Seed drives the randomized construction. 0 means 1.
	Seed int64
	// ListenAddr is the address to listen on in the fabric's scheme,
	// e.g. "127.0.0.1:0" for TCP. A virtual fabric assigns a fresh
	// address unless this is a freed one of the server's own host; a
	// restarted server passes its predecessor's Addr on either fabric.
	ListenAddr string
	// Network is the transport fabric to listen on; nil means real TCP
	// (transport.TCPNetwork), preserving pre-fabric behaviour exactly.
	Network transport.Network
	// Shards is the number of membership shards in the session's control
	// plane; 0 or 1 means the legacy single-server plane.
	Shards int
	// Shard is this server's shard index in [0, Shards). The server
	// applies diffs and pushes deltas only for streams s with
	// transport.TenantStreamShard(Tenant, s, Shards) == Shard.
	Shard int
	// FlushIntervalMs batches route distribution: received diffs are
	// queued and each flush applies the whole window as one overlay batch
	// plus one patch of the routing entries it touched, with one epoch
	// bump per interval. 0 flushes inline after every event (legacy
	// behaviour, one epoch per diff — internally a single-event batch
	// with an immediate flush).
	FlushIntervalMs float64
	// Tenant is the session's tenant index in a multi-tenant plane; 0
	// (the default) keeps the legacy shard keying bit for bit. It must
	// match the RP nodes' configured tenant — ownership hashing
	// (transport.TenantStreamShard) is shared by both sides.
	Tenant int
}

// Server is one membership coordination point (the whole control plane
// when Shards <= 1, otherwise one shard of it).
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	sites    map[int]*siteState
	computed bool

	// conns tracks every open control connection under its own mutex so
	// the shutdown watcher can sweep them even while a routing-update
	// write to a stalled peer is blocked holding s.mu — closing the
	// connection is exactly what unblocks that write.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	forest *overlay.Forest
	// cur is the routing table each site holds: built once at boot, then
	// patched in place by every flush (its Epoch field is not kept
	// current). Between flushes it equals buildRoutes of the forest as
	// of the last flush; deltas are computed against it.
	cur map[int]*transport.Routes
	// meshPeers is the session's static mesh: peer dial addresses are
	// fixed at registration, so every site's table shares this map
	// instead of holding its own O(N) copy.
	meshPeers map[int]string
	// epoch is the shard's routing-table version; bumped once per flush.
	epoch uint64
	// epochFloor is the highest epoch any registering site reported
	// having seen (Hello.Epoch). A successor taking over a crashed shard
	// starts its sequence above it so its updates are never stale.
	epochFloor uint64
	// lastResub records, per site, the highest resubscribe request ID
	// applied (seeded from Hello.LastResub on re-registration). A diff
	// whose ID is not above it is a retry racing a failover: it is
	// re-acknowledged, never re-applied.
	lastResub map[int]uint64
	// pendingAcks and dirty are the batching state: acknowledgements for
	// applied-but-unflushed diffs, and whether the forest changed since
	// the last flush.
	pendingAcks map[int][]transport.Ack
	dirty       bool
	applied     uint64
	// pendingResubs queues accepted diffs awaiting the next flush, which
	// applies the whole window through one overlay batch (batch and
	// opCounts are its reusable scratch). Everything that reads the live
	// forest (flush, resync, Forest) drains the queue first.
	pendingResubs []*transport.Resubscribe
	batch         overlay.Batch
	opCounts      []int
	// touched lists the routing entries the forest changes since the last
	// flush may have altered, and touchedTrees the streams whose members
	// are already listed (see touchLocked); the next flush patches exactly
	// these entries of cur. flushSites, updates and children are the
	// flush's reusable scratch: the sites it visits, one delta per
	// visited site, and one child list.
	touched      []siteStream
	touchedTrees map[stream.ID]struct{}
	flushSites   []int
	updates      []transport.RoutesUpdate
	children     []int
	// Per-phase maintenance timings (see PhaseStats).
	phaseConstructNs  int64
	phaseBatchApplyNs int64
	phaseRebuildNs    int64
	// pendingPeers holds mesh address changes (a site re-registered from
	// a new listen address after a crash/rejoin) awaiting distribution:
	// the next flush pushes them to every site as a Peers delta, since
	// transport.DiffRoutes deliberately never compares the static mesh.
	pendingPeers map[int]string

	// Ready is closed once routing tables have been sent to every RP.
	ready     chan struct{}
	readyOnce sync.Once
	errCh     chan error
	wg        sync.WaitGroup
}

type siteState struct {
	hello *transport.Hello
	subs  []stream.ID
	conn  net.Conn
	wmu   sync.Mutex // serializes writes on conn
}

// write sends one control message on the site's connection.
func (st *siteState) write(m *transport.Message) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	return transport.WriteMessage(st.conn, m)
}

// New creates a server and begins listening (but not accepting).
func New(cfg Config) (*Server, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("membership: N=%d < 2", cfg.N)
	}
	if len(cfg.Cost) != cfg.N {
		return nil, fmt.Errorf("membership: cost matrix has %d rows, want %d", len(cfg.Cost), cfg.N)
	}
	if cfg.Bcost <= 0 {
		return nil, errors.New("membership: Bcost must be positive")
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = overlay.RJ{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Network == nil {
		cfg.Network = transport.TCPNetwork{}
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("membership: shard %d out of range [0, %d)", cfg.Shard, cfg.Shards)
	}
	ln, err := cfg.Network.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("membership: listen: %w", err)
	}
	return &Server{
		cfg:          cfg,
		ln:           ln,
		sites:        make(map[int]*siteState),
		conns:        make(map[net.Conn]struct{}),
		lastResub:    make(map[int]uint64),
		pendingAcks:  make(map[int][]transport.Ack),
		pendingPeers: make(map[int]string),
		touchedTrees: make(map[stream.ID]struct{}),
		ready:        make(chan struct{}),
		errCh:        make(chan error, cfg.N+1),
	}, nil
}

// Addr returns the server's dial address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Forest returns the live overlay forest (nil before Ready). It is
// mutated by mid-session resubscriptions; queued-but-unflushed diffs are
// applied first so the returned forest reflects every received event.
func (s *Server) Forest() *overlay.Forest {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forest != nil {
		s.applyPendingLocked()
	}
	return s.forest
}

// PhaseStats breaks the server's cumulative forest-maintenance time into
// phases: initial construction, dynamic batch application, and routing
// table maintenance. RouteRebuildMs keeps its name but, after the boot
// build, times each flush's patch of the touched routing entries and
// the diff of the sites that hold them. The split is what the batching
// work optimizes — fewer, larger batch applies and one patch per flush
// window — so it is exported for the observability pipeline.
type PhaseStats struct {
	ConstructMs    float64
	BatchApplyMs   float64
	RouteRebuildMs float64
}

// PhaseStats returns the server's per-phase maintenance timings so far.
func (s *Server) PhaseStats() PhaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PhaseStats{
		ConstructMs:    float64(s.phaseConstructNs) / 1e6,
		BatchApplyMs:   float64(s.phaseBatchApplyNs) / 1e6,
		RouteRebuildMs: float64(s.phaseRebuildNs) / 1e6,
	}
}

// Epoch returns the current routing-table version of this shard (1
// after the initial distribution, +1 per flush).
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AppliedResubs returns how many resubscribe diffs the server has
// applied to its forest (retries suppressed by the duplicate guard are
// not counted).
func (s *Server) AppliedResubs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Flush forces an immediate distribution of any batched routing state,
// as if the flush interval had just elapsed. It is a no-op when nothing
// is pending.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.computed {
		s.flushLocked(-1, false)
	}
}

// owns reports whether this server's shard owns the stream's tree.
func (s *Server) owns(id stream.ID) bool {
	return transport.TenantStreamShard(s.cfg.Tenant, id, s.cfg.Shards) == s.cfg.Shard
}

// Serve accepts RP registrations and blocks until all N sites hold their
// initial routing tables (then returns nil), the session fails to
// assemble, or ctx is cancelled. Registration connections stay open: a
// background control loop keeps applying mid-session resubscriptions and
// pushing routing deltas until ctx is cancelled. Connections that break
// the registration protocol (duplicate site, out-of-range index) receive
// a MsgError and are dropped without failing the session. Call Wait
// after cancelling ctx to let the control loop unwind.
func (s *Server) Serve(ctx context.Context) error {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-ctx.Done()
		s.ln.Close()
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	}()
	if s.cfg.FlushIntervalMs > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(time.Duration(s.cfg.FlushIntervalMs * float64(time.Millisecond)))
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.Flush()
				}
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return // listener closed (ctx cancelled or session failed)
			}
			s.connMu.Lock()
			s.conns[conn] = struct{}{}
			s.connMu.Unlock()
			if ctx.Err() != nil {
				// Lost the race with the shutdown watcher's sweep.
				conn.Close()
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() {
					s.connMu.Lock()
					delete(s.conns, conn)
					s.connMu.Unlock()
				}()
				s.handle(conn)
			}()
		}
	}()
	select {
	case <-s.ready:
		return nil
	case err := <-s.errCh:
		s.ln.Close()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until every server goroutine has unwound; call after
// cancelling the Serve context for a clean shutdown.
func (s *Server) Wait() { s.wg.Wait() }

// rejectConn reports a registration protocol error to the peer and
// closes the connection; the session keeps waiting for valid sites.
func rejectConn(conn net.Conn, msg string) {
	_ = transport.WriteMessage(conn, &transport.Message{
		Type: transport.MsgError, Error: &transport.ProtocolError{Msg: msg},
	})
	conn.Close()
}

// handle reads one RP's Hello and Subscribe, then serves the connection
// for the session lifetime: once all sites are registered the routing
// table goes out on it, after which resubscription diffs are read and
// applied until the connection closes. A registration for a site that
// is already registered is rejected while the session is assembling
// (duplicate RP) but accepted once routes are out: it is the site
// re-registering after a control-plane failure, so the stale connection
// is replaced and the forest resynchronized to the reported state.
func (s *Server) handle(conn net.Conn) {
	m, err := transport.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return
	}
	if m.Type != transport.MsgHello {
		rejectConn(conn, fmt.Sprintf("expected hello, got type %d", m.Type))
		return
	}
	hello := m.Hello
	if hello.Site < 0 || hello.Site >= s.cfg.N {
		rejectConn(conn, fmt.Sprintf("site %d out of range [0, %d)", hello.Site, s.cfg.N))
		return
	}
	m, err = transport.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return
	}
	if m.Type != transport.MsgSubscribe || m.Subscribe.Site != hello.Site {
		rejectConn(conn, fmt.Sprintf("expected subscribe from site %d", hello.Site))
		return
	}

	st := &siteState{hello: hello, subs: m.Subscribe.Streams, conn: conn}
	complete, err := s.register(st)
	if err != nil {
		rejectConn(conn, err.Error())
		return
	}
	if complete {
		if err := s.computeAndDistribute(); err != nil {
			s.errCh <- err
			conn.Close()
			return
		}
		s.readyOnce.Do(func() { close(s.ready) })
	}

	// The RP sends nothing until its routing table arrives, so this read
	// loop implicitly waits for session readiness.
	defer conn.Close()
	for {
		m, err := transport.ReadMessage(conn)
		if err != nil {
			return
		}
		if m.Type != transport.MsgResubscribe || m.Resubscribe.Site != hello.Site {
			_ = st.write(&transport.Message{Type: transport.MsgError, Error: &transport.ProtocolError{
				Msg: fmt.Sprintf("unexpected control message type %d", m.Type),
			}})
			continue
		}
		s.applyResubscribe(m.Resubscribe)
	}
}

// register records a site's registration and reports whether it
// completes the session's initial assembly. A duplicate registration
// while the session is assembling is an error; once routes are out it is
// the site re-registering after a control-plane failure: the stale
// connection is dropped and the forest resynchronized.
func (s *Server) register(st *siteState) (complete bool, err error) {
	hello := st.hello
	s.mu.Lock()
	defer s.mu.Unlock()
	if hello.Epoch > s.epochFloor {
		s.epochFloor = hello.Epoch
	}
	if hello.LastResub > s.lastResub[hello.Site] {
		s.lastResub[hello.Site] = hello.LastResub
	}
	old, dup := s.sites[hello.Site]
	if dup && !s.computed {
		return false, fmt.Errorf("duplicate registration for site %d", hello.Site)
	}
	s.sites[hello.Site] = st
	if !dup {
		return !s.computed && len(s.sites) == s.cfg.N, nil
	}
	// Re-registration on a live shard (the RP lost and re-dialed the
	// control link): drop the stale connection and resynchronize.
	old.conn.Close()
	if hello.Addr != old.hello.Addr && s.meshPeers != nil {
		// A crash-rejoin from a fresh listen address: patch the cached
		// mesh (shared by every table this server builds) and queue the
		// change for distribution — the flush diff never compares the
		// static mesh, so peers only learn the new address through an
		// explicit delta.
		s.meshPeers[hello.Site] = hello.Addr
		s.pendingPeers[hello.Site] = hello.Addr
	}
	s.resyncLocked(st)
	return false, nil
}

// computeAndDistribute builds the forest from the global subscription
// workload and sends each RP its initial routing table. The first epoch
// is one above the highest epoch any registering site reported, so a
// successor's tables supersede a crashed predecessor's.
func (s *Server) computeAndDistribute() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.computed {
		return nil
	}
	s.computed = true

	sites := make([]workload.Site, s.cfg.N)
	subs := make([][]stream.ID, s.cfg.N)
	for i := 0; i < s.cfg.N; i++ {
		st, ok := s.sites[i]
		if !ok {
			return fmt.Errorf("membership: site %d never registered", i)
		}
		sites[i] = workload.Site{In: st.hello.In, Out: st.hello.Out, NumStreams: st.hello.NumStreams}
		subs[i] = st.subs
	}
	w, err := workload.New(sites, subs)
	if err != nil {
		return fmt.Errorf("membership: assemble workload: %w", err)
	}
	p, err := overlay.FromWorkload(w, s.cfg.Cost, s.cfg.Bcost)
	if err != nil {
		return err
	}
	start := time.Now()
	f, err := s.cfg.Algorithm.Construct(p, rand.New(rand.NewSource(s.cfg.Seed)))
	if err != nil {
		return err
	}
	s.phaseConstructNs += time.Since(start).Nanoseconds()
	if err := f.Validate(); err != nil {
		return fmt.Errorf("membership: constructed forest invalid: %w", err)
	}
	s.forest = f
	s.epoch = s.epochFloor + 1

	start = time.Now()
	s.cur = s.buildRoutes(f)
	s.phaseRebuildNs += time.Since(start).Nanoseconds()
	for i, st := range s.sites {
		// A re-registering site (a restart takeover, Epoch > 0) already
		// holds the static mesh.
		out := s.fullTableLocked(i, st.hello.Epoch == 0)
		if err := st.write(&transport.Message{Type: transport.MsgRoutes, Routes: out}); err != nil {
			return fmt.Errorf("membership: send routes to site %d: %w", i, err)
		}
	}
	return nil
}

// applyResubscribe accepts one RP's subscription diff: it is queued for
// the next flush, which applies the whole window to the live forest as
// one overlay batch (one incremental update, one patch of the touched
// routing entries) instead of one per event. With no flush interval the
// queue is flushed inline, so the diff still lands as a single-event
// batch with exactly the legacy per-event behaviour. A request ID at or
// below the site's high-water mark is a retry racing a failover: it is
// re-acknowledged at the current epoch without touching the forest.
func (s *Server) applyResubscribe(r *transport.Resubscribe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forest == nil {
		return
	}
	if r.ID != 0 && r.ID <= s.lastResub[r.Site] {
		s.reackLocked(r.Site, r.ID)
		return
	}
	if r.ID > s.lastResub[r.Site] {
		s.lastResub[r.Site] = r.ID
	}
	s.pendingResubs = append(s.pendingResubs, r)
	s.dirty = true
	s.applied++
	if s.cfg.FlushIntervalMs <= 0 {
		s.flushLocked(-1, false)
	}
}

// applyPendingLocked drains the queued resubscriptions into the forest
// through one coalesced overlay batch, restricted to the streams this
// shard owns, and records each diff's acknowledgement from the batch
// outcomes. Unknown lost requests (trace drift) are no-ops; the forest
// is authoritative. Every op's routing entries are recorded for the
// next flush before the batch runs. Callers hold s.mu with a live
// forest.
func (s *Server) applyPendingLocked() {
	if len(s.pendingResubs) == 0 {
		return
	}
	start := time.Now()
	s.batch.Reset()
	s.opCounts = s.opCounts[:0]
	for _, r := range s.pendingResubs {
		before := s.batch.Len()
		for _, id := range r.Lost {
			if s.owns(id) {
				s.touchLocked(r.Site, id)
				s.batch.Unsubscribe(overlay.Request{Node: r.Site, Stream: id})
			}
		}
		for _, id := range r.Gained {
			if s.owns(id) {
				s.touchLocked(r.Site, id)
				s.batch.Subscribe(overlay.Request{Node: r.Site, Stream: id})
			}
		}
		s.opCounts = append(s.opCounts, s.batch.Len()-before)
	}
	outs := s.forest.ApplyBatch(&s.batch)
	off := 0
	for di, r := range s.pendingResubs {
		ack := transport.Ack{ID: r.ID}
		for _, o := range outs[off : off+s.opCounts[di]] {
			if !o.Sub {
				continue
			}
			accepted := false
			switch {
			case o.Err != nil:
				// The request already exists (a replay after failover):
				// acknowledge from the forest's current admission state.
				t := s.forest.Tree(o.Req.Stream)
				accepted = t != nil && t.Contains(o.Req.Node)
			case o.Result == overlay.Joined || o.Result == overlay.AlreadyMember:
				accepted = true
			}
			if accepted {
				ack.Accepted = append(ack.Accepted, o.Req.Stream)
			} else {
				ack.Rejected = append(ack.Rejected, o.Req.Stream)
			}
		}
		off += s.opCounts[di]
		s.pendingAcks[r.Site] = append(s.pendingAcks[r.Site], ack)
	}
	s.pendingResubs = s.pendingResubs[:0]
	s.phaseBatchApplyNs += time.Since(start).Nanoseconds()
}

// reackLocked re-acknowledges a suppressed duplicate resubscribe at the
// current epoch without a table change. Callers hold s.mu.
func (s *Server) reackLocked(site int, id uint64) {
	if st := s.sites[site]; st != nil {
		_ = st.write(&transport.Message{Type: transport.MsgRoutesUpdate, Update: &transport.RoutesUpdate{
			Site:  site,
			Epoch: s.epoch,
			Shard: s.cfg.Shard,
			Acks:  []transport.Ack{{ID: id}},
		}})
	}
}

// resyncLocked reconciles the forest with a re-registered site's
// reported subscription set (its desired state survived the control-
// plane failure at the edge), then redistributes: the re-registered
// site receives a full table — its view of this shard may be
// arbitrarily stale — and every other affected site a delta. Streams
// are dropped, then admitted, in ascending stream order, so which wanted
// streams a tight In budget admits is a function of the request alone.
// Callers hold s.mu with s.computed true.
func (s *Server) resyncLocked(st *siteState) {
	// The reconciliation below reads the forest's admission state, so any
	// queued-but-unapplied diffs must land first.
	s.applyPendingLocked()
	site := st.hello.Site
	var have, want []stream.ID
	for _, r := range s.forest.Accepted() {
		if r.Node == site && s.owns(r.Stream) {
			have = append(have, r.Stream)
		}
	}
	for _, r := range s.forest.Rejected() {
		if r.Node == site && s.owns(r.Stream) {
			have = append(have, r.Stream)
		}
	}
	for _, id := range st.subs {
		if s.owns(id) {
			want = append(want, id)
		}
	}
	slices.SortFunc(have, stream.Compare)
	slices.SortFunc(want, stream.Compare)
	want = slices.Compact(want)
	for _, id := range have {
		if _, ok := slices.BinarySearchFunc(want, id, stream.Compare); !ok {
			s.touchLocked(site, id)
			_ = s.forest.Unsubscribe(overlay.Request{Node: site, Stream: id})
			s.dirty = true
		}
	}
	for _, id := range want {
		if _, ok := slices.BinarySearchFunc(have, id, stream.Compare); !ok {
			s.touchLocked(site, id)
			_, _ = s.forest.Subscribe(overlay.Request{Node: site, Stream: id})
			s.dirty = true
		}
	}
	if st.hello.Epoch > s.epoch {
		s.epoch = st.hello.Epoch
	}
	// A restart-takeover re-registration (Epoch > 0) already holds the
	// mesh; a crash-rejoin (Epoch == 0) is a fresh process that needs it.
	s.flushLocked(site, st.hello.Epoch == 0)
}

// siteStream names one routing entry: a site's directives for one
// stream (its forwarding duty and whether the stream is accepted or
// rejected there).
type siteStream struct {
	site int
	id   stream.ID
}

// compareSiteStream orders entries by site, then stream.
func compareSiteStream(a, b siteStream) int {
	if a.site != b.site {
		return cmp.Compare(a.site, b.site)
	}
	return stream.Compare(a.id, b.id)
}

// touchLocked records, before a dynamic op for (site, id) mutates the
// forest, every routing entry the op can change. Dynamic ops change only
// the requested stream's tree, so these are the entries for id of the
// requester, of the source (a brand-new tree's first forward) and of
// the tree's current members (a withdrawal re-parents or rejects the
// orphaned subtree). Members are listed once per stream per flush
// window: anyone who joins later in the window is a requester, listed
// by its own op. A stream whose source is not a site of the session
// names no entry: the overlay rejects any op on it and changes nothing.
// Callers hold s.mu with a live forest.
func (s *Server) touchLocked(site int, id stream.ID) {
	if id.Site < 0 || id.Site >= s.cfg.N {
		return
	}
	s.touched = append(s.touched, siteStream{site, id})
	if _, seen := s.touchedTrees[id]; seen {
		return
	}
	s.touchedTrees[id] = struct{}{}
	s.touched = append(s.touched, siteStream{id.Site, id})
	if t := s.forest.Tree(id); t != nil {
		t.ForEachNode(func(m int) { s.touched = append(s.touched, siteStream{m, id}) })
	}
}

// flushLocked distributes the batched routing state: one epoch bump, one
// patch of the touched routing entries, and one coalesced delta per
// affected site carrying the acknowledgements folded into it. fullFor
// >= 0 forces a full MsgRoutes table (not a delta) to that site — the
// shard-sync a re-registered site needs — and flushes even when nothing
// is dirty; withMesh keeps the static mesh in that full table (a
// crash-rejoined fresh process has none to reuse). Pending mesh address
// changes are folded into a delta to every other site. Callers hold s.mu.
func (s *Server) flushLocked(fullFor int, withMesh bool) {
	if !s.dirty && fullFor < 0 {
		return
	}
	// One batch apply and one patch cover the whole window.
	s.applyPendingLocked()
	s.epoch++
	var peerPatch map[int]string
	if len(s.pendingPeers) > 0 {
		peerPatch = s.pendingPeers
		s.pendingPeers = make(map[int]string)
	}
	start := time.Now()
	sites := s.flushSitesLocked(fullFor, peerPatch != nil)
	for len(s.updates) < len(sites) {
		s.updates = append(s.updates, transport.RoutesUpdate{})
	}
	// sites and touched both ascend by site, and every touched site is
	// visited, so one cursor hands each site its own entries.
	e := 0
	for k, i := range sites {
		lo := e
		for e < len(s.touched) && s.touched[e].site == i {
			e++
		}
		s.patchLocked(i, s.touched[lo:e], &s.updates[k])
	}
	s.touched = s.touched[:0]
	clear(s.touchedTrees)
	s.phaseRebuildNs += time.Since(start).Nanoseconds()

	// Deltas are cumulative per site, so they must hit each connection in
	// epoch order: pushing under the lock serializes concurrent flushes
	// end to end. Control messages are small and the RPs' control loops
	// always read promptly, so the writes cannot stall the session (the
	// centralized-coordinator simplicity the paper argues for).
	for k, i := range sites {
		st := s.sites[i]
		if i == fullFor {
			delete(s.pendingAcks, i)
			if st != nil {
				_ = st.write(&transport.Message{Type: transport.MsgRoutes, Routes: s.fullTableLocked(i, withMesh)})
			}
			continue
		}
		u := &s.updates[k]
		acks := s.pendingAcks[i]
		if u.Empty() && len(acks) == 0 && peerPatch == nil {
			continue
		}
		// A requester always gets an acknowledgement, even when its own
		// table is unchanged (e.g. every gain was rejected), and a mesh
		// patch reaches every site regardless of forest changes.
		u.Epoch = s.epoch
		u.Shard = s.cfg.Shard
		u.Acks = acks
		u.Peers = peerPatch
		delete(s.pendingAcks, i)
		if st != nil {
			// A site whose connection died mid-session just misses
			// updates; its handler unwinds independently.
			_ = st.write(&transport.Message{Type: transport.MsgRoutesUpdate, Update: u})
		}
		u.Acks, u.Peers = nil, nil
	}
	s.dirty = false
}

// flushSitesLocked sorts and deduplicates the touched entries and
// returns the sites a flush visits, ascending: every site with a touched
// entry, a pending acknowledgement or a forced full table — or every
// site, when a mesh patch must reach them all. Callers hold s.mu.
func (s *Server) flushSitesLocked(fullFor int, all bool) []int {
	slices.SortFunc(s.touched, compareSiteStream)
	s.touched = slices.Compact(s.touched)
	sites := s.flushSites[:0]
	if all {
		for i := 0; i < s.cfg.N; i++ {
			sites = append(sites, i)
		}
	} else {
		for _, e := range s.touched {
			if n := len(sites); n == 0 || sites[n-1] != e.site {
				sites = append(sites, e.site)
			}
		}
		for i := range s.pendingAcks {
			sites = append(sites, i)
		}
		if fullFor >= 0 {
			sites = append(sites, fullFor)
		}
		slices.Sort(sites)
		sites = slices.Compact(sites)
	}
	s.flushSites = sites
	return sites
}

// patchLocked brings cur[i]'s entries for the touched streams in
// entries (ascending, deduplicated) up to date from the live forest
// through transport.PatchRoute, so u ends up exactly the
// transport.DiffRoutes of the old and new tables. u's lists are reused
// scratch. Callers hold s.mu.
func (s *Server) patchLocked(i int, entries []siteStream, u *transport.RoutesUpdate) {
	r := s.cur[i]
	u.Site = i
	u.SetForward = u.SetForward[:0]
	u.AddAccepted, u.DelAccepted = u.AddAccepted[:0], u.DelAccepted[:0]
	u.AddRejected, u.DelRejected = u.AddRejected[:0], u.DelRejected[:0]
	for _, e := range entries {
		t := s.forest.Tree(e.id)
		member := t != nil && t.Contains(i)
		ch := s.children[:0]
		if member {
			for _, c := range t.ChildrenRef(i) {
				ch = append(ch, int(c))
			}
			slices.Sort(ch)
		}
		s.children = ch
		// Dynamic ops keep "accepted" and "a non-source tree member" the
		// same set.
		rejected := s.forest.IsRejected(overlay.Request{Node: i, Stream: e.id})
		transport.PatchRoute(r, u, e.id, ch, member && i != e.id.Site, rejected)
	}
}

// fullTableLocked returns a copy of site i's whole table at the current
// epoch, for boot and for a resync: cur[i] with empty lists as nil, so
// it encodes exactly like a freshly built table. Without withMesh it
// omits the static mesh (Peers): RPs never replace their mesh from a
// resync — it is registration-time state — and omitting it keeps a
// re-registering site's sync O(forest), not O(N), the difference
// between a sub-second and a multi-second recovery at cluster scale.
// Callers hold s.mu.
func (s *Server) fullTableLocked(i int, withMesh bool) *transport.Routes {
	r := *s.cur[i]
	r.Epoch = s.epoch
	if !withMesh {
		r.Peers = nil
	}
	if len(r.Forward) == 0 {
		r.Forward = nil
	}
	if len(r.Accepted) == 0 {
		r.Accepted = nil
	}
	if len(r.Rejected) == 0 {
		r.Rejected = nil
	}
	return &r
}

// buildRoutes converts the forest into per-site routing directives at
// the current epoch, restricted to the trees this shard owns. Slices
// are sorted so tables compare structurally. Only the boot distribution
// builds tables; every flush patches them, and tests hold the patched
// tables to this full build.
func (s *Server) buildRoutes(f *overlay.Forest) map[int]*transport.Routes {
	if s.meshPeers == nil {
		s.meshPeers = make(map[int]string, s.cfg.N)
		for i, st := range s.sites {
			s.meshPeers[i] = st.hello.Addr
		}
	}
	out := make(map[int]*transport.Routes, s.cfg.N)
	for i := 0; i < s.cfg.N; i++ {
		out[i] = &transport.Routes{
			Site:    i,
			Epoch:   s.epoch,
			Shard:   s.cfg.Shard,
			Shards:  s.cfg.Shards,
			Peers:   s.meshPeers,
			Forward: nil,
		}
	}
	f.ForEachTree(func(t *overlay.Tree) {
		if !s.owns(t.Stream) {
			return
		}
		// Walk the tree's flat membership directly: each member with
		// children contributes one forwarding directive, children sorted
		// for structural comparability.
		t.ForEachNode(func(parent int) {
			ch := t.Children(parent)
			if len(ch) == 0 {
				return
			}
			sort.Ints(ch)
			out[parent].Forward = append(out[parent].Forward, transport.Route{Stream: t.Stream, Children: ch})
		})
	})
	for _, r := range f.Accepted() {
		if s.owns(r.Stream) {
			out[r.Node].Accepted = append(out[r.Node].Accepted, r.Stream)
		}
	}
	for _, r := range f.Rejected() {
		if s.owns(r.Stream) {
			out[r.Node].Rejected = append(out[r.Node].Rejected, r.Stream)
		}
	}
	for _, r := range out {
		slices.SortFunc(r.Forward, func(a, b transport.Route) int { return stream.Compare(a.Stream, b.Stream) })
		stream.SortIDs(r.Accepted)
		stream.SortIDs(r.Rejected)
	}
	return out
}
