package membership

// Tests for the incremental flush: after every flush each site's patched
// table must equal a full buildRoutes of the live forest, each delta
// pushed must be exactly transport.DiffRoutes of the site's tables
// before and after, and the cost of an inline flush must not depend on
// how many idle sites the session has. The servers here run without a
// network: sites register through Server.register on connections that
// decode every message the server writes and apply it the way an RP
// does.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"testing"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// clientConn stands in for one RP's control connection: every message
// the server writes is decoded and applied to the site's table, and
// every delta must be byte for byte the message a full rebuild would
// send — DiffRoutes of the site's tables before and after it. Only
// Write and Close are called on it.
type clientConn struct {
	net.Conn
	tb       testing.TB
	site     int
	table    *transport.Routes
	peers    map[int]string
	full     int    // full tables received
	lastFull []byte // the last full table's wire bytes
	acks     []transport.Ack
}

func (c *clientConn) Close() error { return nil }

func (c *clientConn) Write(b []byte) (int, error) {
	m, err := transport.ReadMessage(bytes.NewReader(b))
	if err != nil {
		c.tb.Fatalf("site %d: undecodable control message: %v", c.site, err)
	}
	switch m.Type {
	case transport.MsgRoutes:
		c.full++
		c.lastFull = slices.Clone(b)
		c.table = m.Routes
		if m.Routes.Peers != nil {
			c.peers = maps.Clone(m.Routes.Peers)
		}
	case transport.MsgRoutesUpdate:
		u := m.Update
		if u.Site != c.site {
			c.tb.Fatalf("site %d received site %d's delta", c.site, u.Site)
		}
		next := applyDelta(c.table, u)
		want := transport.DiffRoutes(c.table, next)
		if want == nil {
			want = &transport.RoutesUpdate{Site: c.site}
		}
		want.Epoch, want.Shard, want.Acks, want.Peers = u.Epoch, u.Shard, u.Acks, u.Peers
		if wb := encode(c.tb, &transport.Message{Type: transport.MsgRoutesUpdate, Update: want}); !bytes.Equal(wb, b) {
			c.tb.Fatalf("site %d delta is not DiffRoutes of its tables:\ngot  %s\nwant %s", c.site, b[5:], wb[5:])
		}
		c.table = next
		c.acks = append(c.acks, u.Acks...)
		for site, addr := range u.Peers {
			c.peers[site] = addr
		}
	default:
		c.tb.Fatalf("site %d: unexpected message type %d", c.site, m.Type)
	}
	return len(b), nil
}

// applyDelta returns the table a delta turns r into, lists ascending.
func applyDelta(r *transport.Routes, u *transport.RoutesUpdate) *transport.Routes {
	fw := make(map[stream.ID][]int)
	for _, e := range r.Forward {
		fw[e.Stream] = e.Children
	}
	for _, e := range u.SetForward {
		if len(e.Children) == 0 {
			delete(fw, e.Stream)
		} else {
			fw[e.Stream] = e.Children
		}
	}
	ids := make([]stream.ID, 0, len(fw))
	for id := range fw {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, stream.Compare)
	next := &transport.Routes{Site: r.Site}
	for _, id := range ids {
		next.Forward = append(next.Forward, transport.Route{Stream: id, Children: fw[id]})
	}
	next.Accepted = applyIDs(r.Accepted, u.AddAccepted, u.DelAccepted)
	next.Rejected = applyIDs(r.Rejected, u.AddRejected, u.DelRejected)
	return next
}

func applyIDs(list, add, del []stream.ID) []stream.ID {
	var out []stream.ID
	for _, id := range list {
		if !slices.Contains(del, id) {
			out = append(out, id)
		}
	}
	out = append(out, add...)
	slices.SortFunc(out, stream.Compare)
	return out
}

// encode returns a message's wire bytes.
func encode(tb testing.TB, m *transport.Message) []byte {
	var buf bytes.Buffer
	if err := transport.WriteMessage(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameTable reports whether two tables hold the same entries in the
// same order, treating nil and empty lists alike.
func sameTable(a, b *transport.Routes) bool {
	return slices.EqualFunc(a.Forward, b.Forward, func(x, y transport.Route) bool {
		return x.Stream == y.Stream && slices.Equal(x.Children, y.Children)
	}) && slices.Equal(a.Accepted, b.Accepted) && slices.Equal(a.Rejected, b.Rejected)
}

// routesRig is a network-free server with one clientConn per site.
type routesRig struct {
	srv     *Server
	hellos  []transport.Hello
	clients []*clientConn
	nextID  []uint64
}

// newRoutesRig boots a server on the given hellos and subscriptions:
// every site registers, the forest is built and the initial tables land
// on the client connections.
func newRoutesRig(tb testing.TB, cfg Config, hellos []transport.Hello, subs [][]stream.ID) *routesRig {
	tb.Helper()
	cfg.Network = transport.NewVirtualNetwork(transport.VirtualConfig{}).Host("membership")
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	srv.ln.Close()
	g := &routesRig{srv: srv, hellos: hellos, nextID: make([]uint64, cfg.N)}
	for i := range hellos {
		c := &clientConn{tb: tb, site: i}
		g.clients = append(g.clients, c)
		h := hellos[i]
		complete, err := srv.register(&siteState{hello: &h, subs: subs[i], conn: c})
		if err != nil {
			tb.Fatal(err)
		}
		if complete != (i == cfg.N-1) {
			tb.Fatalf("registration %d: complete = %v", i, complete)
		}
	}
	if err := srv.computeAndDistribute(); err != nil {
		tb.Fatal(err)
	}
	g.check(tb, "boot")
	return g
}

// resub applies one diff from site with the site's next request ID.
func (g *routesRig) resub(site int, gained, lost []stream.ID) {
	g.nextID[site]++
	g.srv.applyResubscribe(&transport.Resubscribe{Site: site, ID: g.nextID[site], Gained: gained, Lost: lost})
}

// rejoin re-registers site with a new subscription set. A non-empty
// crashAddr is a crash-rejoin: a fresh process (epoch 0, no mesh)
// listening at that new address. Otherwise it is the same process
// re-dialing a successor: it reports its last epoch and keeps its mesh.
func (g *routesRig) rejoin(tb testing.TB, site int, subs []stream.ID, crashAddr string) {
	tb.Helper()
	h := &g.hellos[site]
	h.LastResub = g.nextID[site]
	h.Epoch = 0
	c := &clientConn{tb: tb, site: site}
	if crashAddr != "" {
		h.Addr = crashAddr
	} else {
		h.Epoch = g.srv.Epoch()
		c.peers = g.clients[site].peers
	}
	g.clients[site] = c
	hello := *h
	if _, err := g.srv.register(&siteState{hello: &hello, subs: subs, conn: c}); err != nil {
		tb.Fatal(err)
	}
	if c.full != 1 {
		tb.Fatalf("re-registered site %d received %d full tables, want 1", site, c.full)
	}
	// The full table must be byte for byte the one a rebuild sends.
	g.srv.mu.Lock()
	want := g.srv.buildRoutes(g.srv.forest)[site]
	g.srv.mu.Unlock()
	if crashAddr == "" {
		stripped := *want
		stripped.Peers = nil
		want = &stripped
	}
	if wb := encode(tb, &transport.Message{Type: transport.MsgRoutes, Routes: want}); !bytes.Equal(wb, c.lastFull) {
		tb.Fatalf("site %d full table:\ngot  %s\nwant %s", site, c.lastFull[5:], wb[5:])
	}
}

// check is the oracle: every patched table equals a full rebuild of the
// live forest, entry for entry and in order, shares its mesh, and is
// what the site itself holds after applying every message it received.
func (g *routesRig) check(tb testing.TB, when string) {
	tb.Helper()
	s := g.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pendingResubs) > 0 || len(s.touched) > 0 {
		tb.Fatalf("%s: check with unflushed changes", when)
	}
	want := s.buildRoutes(s.forest)
	for i := 0; i < s.cfg.N; i++ {
		if u := transport.DiffRoutes(s.cur[i], want[i]); u != nil || !sameTable(s.cur[i], want[i]) {
			tb.Fatalf("%s: site %d patched table differs from the full build\npatched: %+v\nbuilt:   %+v",
				when, i, s.cur[i], want[i])
		}
		if !maps.Equal(s.cur[i].Peers, want[i].Peers) {
			tb.Fatalf("%s: site %d mesh differs from the full build", when, i)
		}
		c := g.clients[i]
		if !sameTable(c.table, want[i]) {
			tb.Fatalf("%s: site %d holds %+v, full build is %+v", when, i, c.table, want[i])
		}
		if !maps.Equal(c.peers, want[i].Peers) {
			tb.Fatalf("%s: site %d holds mesh %v, want %v", when, i, c.peers, want[i].Peers)
		}
	}
}

// flush distributes a batching server's window (a no-op when inline)
// and runs the oracle.
func (g *routesRig) flush(tb testing.TB, when string) {
	tb.Helper()
	g.srv.Flush()
	g.check(tb, when)
}

func sid(site, index int) stream.ID { return stream.ID{Site: site, Index: index} }

// uniformCost is an n-site matrix with every distinct pair c apart.
func uniformCost(n int, c float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = c
			}
		}
	}
	return m
}

// TestIncrementalRoutesMatchFull runs one scripted session through every
// flush path — inline and 40 ms batching, one shard and both shards of
// two, RJ and CO-RJ — and holds every table to the full rebuild after
// every flush. The script covers a brand-new tree (the source gains its
// first forward), an unsubscribe that orphans a relayed subtree, a
// crash-rejoin with changed subscriptions and a new address, a
// restart-style re-registration, a duplicate-ID re-ack and a run of
// random view changes.
func TestIncrementalRoutesMatchFull(t *testing.T) {
	const n = 6
	s00 := sid(0, 0)
	for _, alg := range []overlay.Algorithm{overlay.RJ{}, overlay.CORJ{}} {
		for _, flush := range []float64{0, 40} {
			for _, shards := range []int{1, 2} {
				for shard := 0; shard < shards; shard++ {
					name := fmt.Sprintf("%s/flush=%g/shard=%d-of-%d", alg.Name(), flush, shard, shards)
					t.Run(name, func(t *testing.T) {
						hellos := make([]transport.Hello, n)
						for i := range hellos {
							hellos[i] = transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 4, Out: 4, NumStreams: 3}
						}
						// Site 0 can feed only one child, so its stream
						// reaches two of sites 1-3 through the third;
						// site 5 takes one stream only, so it collects
						// rejections.
						hellos[0].Out = 1
						hellos[5].In = 1
						subs := [][]stream.ID{
							{sid(1, 0)},
							{s00, sid(2, 0)},
							{s00},
							{s00, sid(1, 1)},
							{sid(2, 1)},
							{sid(1, 0), sid(2, 0), sid(3, 0)},
						}
						cfg := Config{N: n, Cost: uniformCost(n, 5), Bcost: 100, Seed: 3, Algorithm: alg,
							Shards: shards, Shard: shard, FlushIntervalMs: flush}
						g := newRoutesRig(t, cfg, hellos, subs)
						f := g.srv.Forest()
						relay := -1
						if tr := f.Tree(s00); tr != nil {
							for _, m := range tr.Nodes() {
								if m != 0 && len(tr.Children(m)) > 0 {
									relay = m
								}
							}
						}
						if g.srv.owns(s00) && relay < 0 {
							t.Fatalf("setup: no site relays %v", s00)
						}
						if shards == 1 && len(f.Rejected()) == 0 {
							t.Fatal("setup: no rejected request")
						}

						// A brand-new tree: nobody subscribed to 4's streams.
						g.resub(2, []stream.ID{sid(4, 2)}, nil)
						g.flush(t, "new tree")
						if g.srv.owns(sid(4, 2)) && len(g.clients[4].table.Forward) == 0 {
							t.Fatal("the source of a new tree holds no forward")
						}
						// The relay leaves: its subtree is orphaned.
						if relay >= 0 {
							g.resub(relay, nil, []stream.ID{s00})
						}
						g.flush(t, "orphaning unsubscribe")
						// A burst in one window, drained mid-window by a
						// Forest read, then flushed.
						g.resub(3, []stream.ID{sid(4, 2), sid(0, 1)}, []stream.ID{sid(1, 1)})
						g.resub(1, []stream.ID{s00}, nil)
						g.srv.Forest()
						g.resub(4, []stream.ID{sid(0, 1)}, []stream.ID{sid(2, 1)})
						g.resub(2, nil, []stream.ID{sid(4, 2)})
						g.flush(t, "burst")
						// Crash-rejoin from a new address with changed subs.
						g.rejoin(t, 3, []stream.ID{sid(2, 0), sid(5, 0), s00}, "h:3-new")
						g.check(t, "crash-rejoin")
						g.flush(t, "after crash-rejoin")
						// A restart-style re-registration keeping its mesh.
						g.resub(5, []stream.ID{sid(4, 0)}, nil)
						g.rejoin(t, 5, []stream.ID{sid(4, 0), sid(0, 0), sid(1, 0)}, "")
						g.check(t, "re-registration")
						// A duplicate ID is re-acknowledged, never re-applied.
						epoch := g.srv.Epoch()
						g.srv.applyResubscribe(&transport.Resubscribe{Site: 2, ID: g.nextID[2], Lost: []stream.ID{s00}})
						g.flush(t, "duplicate")
						if got := g.srv.Epoch(); got != epoch {
							t.Fatalf("duplicate moved the epoch %d -> %d", epoch, got)
						}
						// Random view changes, flushed every third event.
						rng := rand.New(rand.NewSource(int64(7 + shard)))
						for ev := 0; ev < 60; ev++ {
							site := rng.Intn(n)
							id := sid((site+1+rng.Intn(n-1))%n, rng.Intn(3))
							g.srv.mu.Lock()
							has := slices.Contains(g.srv.forest.Problem().Requests, overlay.Request{Node: site, Stream: id})
							g.srv.mu.Unlock()
							if has {
								g.resub(site, nil, []stream.ID{id})
							} else {
								g.resub(site, []stream.ID{id}, nil)
							}
							if ev%3 == 2 {
								g.flush(t, fmt.Sprintf("random event %d", ev))
							}
						}
						g.flush(t, "end")
					})
				}
			}
		}
	}
}

// TestMalformedStreamIDsRejected sends stream IDs whose source is not a
// site of the session — in a diff's gains, in its losses and in a
// re-registration's subscriptions — through every flush path. The
// server must keep running, reject each such gain in the requester's
// acknowledgement, apply the valid streams of the same diff, and keep
// every table equal to the full rebuild.
func TestMalformedStreamIDsRejected(t *testing.T) {
	const n = 4
	bad := []stream.ID{sid(n, 0), sid(-1, 0), sid(n+7, 1)}
	for _, flush := range []float64{0, 40} {
		for _, shards := range []int{1, 2} {
			for shard := 0; shard < shards; shard++ {
				t.Run(fmt.Sprintf("flush=%g/shard=%d-of-%d", flush, shard, shards), func(t *testing.T) {
					hellos := make([]transport.Hello, n)
					for i := range hellos {
						hellos[i] = transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 4, Out: 4, NumStreams: 2}
					}
					subs := [][]stream.ID{{sid(1, 0)}, {sid(0, 0)}, {sid(0, 0)}, {sid(1, 0)}}
					cfg := Config{N: n, Cost: uniformCost(n, 5), Bcost: 100, Seed: 1,
						Shards: shards, Shard: shard, FlushIntervalMs: flush}
					g := newRoutesRig(t, cfg, hellos, subs)
					owned := func(ids ...stream.ID) (out []stream.ID) {
						for _, id := range ids {
							if g.srv.owns(id) {
								out = append(out, id)
							}
						}
						return out
					}

					g.resub(2, append([]stream.ID{sid(1, 1)}, bad...), nil)
					g.flush(t, "malformed gains")
					acks := g.clients[2].acks
					if len(acks) != 1 || acks[0].ID != g.nextID[2] {
						t.Fatalf("site 2 acks %+v, want one for request %d", acks, g.nextID[2])
					}
					if want := owned(sid(1, 1)); !slices.Equal(acks[0].Accepted, want) {
						t.Errorf("accepted %v, want %v", acks[0].Accepted, want)
					}
					if want := owned(bad...); !slices.Equal(acks[0].Rejected, want) {
						t.Errorf("rejected %v, want %v", acks[0].Rejected, want)
					}

					g.resub(3, nil, append([]stream.ID{sid(1, 0)}, bad...))
					g.flush(t, "malformed losses")
					if len(g.clients[3].acks) != 1 {
						t.Fatalf("site 3 acks %+v, want one", g.clients[3].acks)
					}
					if slices.Contains(g.clients[3].table.Accepted, sid(1, 0)) {
						t.Errorf("site 3 still receives %v after dropping it", sid(1, 0))
					}

					g.rejoin(t, 1, append([]stream.ID{sid(0, 1)}, bad...), "h:1-new")
					g.check(t, "crash-rejoin with malformed subscriptions")
					g.rejoin(t, 3, append([]stream.ID{sid(0, 0)}, bad...), "")
					g.check(t, "re-registration with malformed subscriptions")
					g.resub(0, []stream.ID{sid(2, 0)}, nil)
					g.flush(t, "valid diff afterwards")
				})
			}
		}
	}
}

// TestInlineFlushIndependentOfN runs the same inline resubscribe on the
// same five-site tree in sessions padded with idle sites to N = 20 and
// N = 200. The flush must visit the same sites and allocate the same
// amount: its cost follows what changed, not N. (The allocation count
// is compared only without the race detector.)
func TestInlineFlushIndependentOfN(t *testing.T) {
	const k = 5
	gain := &transport.Resubscribe{Site: 3, Gained: []stream.ID{sid(0, 1)}}
	lose := &transport.Resubscribe{Site: 3, Lost: []stream.ID{sid(0, 1)}}
	run := func(n int) (allocs float64, sites []int) {
		hellos := make([]transport.Hello, n)
		subs := make([][]stream.ID, n)
		for i := range hellos {
			hellos[i] = transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 4, Out: 4, NumStreams: 2}
		}
		for i := 1; i < k; i++ {
			subs[i] = []stream.ID{sid(0, 0), sid(0, 1)}
		}
		subs[3] = []stream.ID{sid(0, 0)}
		g := newRoutesRig(t, Config{N: n, Cost: uniformCost(n, 5), Bcost: 100, Seed: 2}, hellos, subs)
		srv := g.srv
		// Writes go to a discarding connection so only the server's own
		// work is counted.
		for _, st := range srv.sites {
			st.conn = discardConn{}
		}
		srv.applyResubscribe(gain)
		sites = slices.Clone(srv.flushSites)
		srv.applyResubscribe(lose)
		allocs = testing.AllocsPerRun(50, func() {
			srv.applyResubscribe(gain)
			srv.applyResubscribe(lose)
		})
		return allocs, sites
	}
	a20, sites20 := run(20)
	a200, sites200 := run(200)
	if !slices.Equal(sites20, sites200) {
		t.Errorf("flush visited sites %v at N=20 but %v at N=200", sites20, sites200)
	}
	for _, i := range sites20 {
		if i >= k {
			t.Errorf("flush visited idle site %d", i)
		}
	}
	t.Logf("a gain and a loss: %v allocations at N=20, %v at N=200; flush visits %v", a20, a200, sites20)
	if raceEnabled {
		return // allocation counts vary under the race detector
	}
	if a20 != a200 {
		t.Errorf("a gain and a loss allocate %v times at N=20 but %v at N=200", a20, a200)
	}
}

// discardConn is a control connection that drops every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (discardConn) Close() error                { return nil }

// TestResyncAdmissionDeterministic re-registers a site whose In budget
// takes one stream while it wants three: the stream admitted must be the
// lowest wanted one, every time, not whichever a map range yields first.
func TestResyncAdmissionDeterministic(t *testing.T) {
	hellos := make([]transport.Hello, 4)
	for i := range hellos {
		hellos[i] = transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 4, Out: 4, NumStreams: 1}
	}
	hellos[3].In = 1
	g := newRoutesRig(t, Config{N: 4, Cost: uniformCost(4, 5), Bcost: 100, Seed: 1}, hellos, make([][]stream.ID, 4))
	want := []stream.ID{sid(2, 0), sid(0, 0), sid(1, 0)}
	for run := 0; run < 30; run++ {
		g.rejoin(t, 3, nil, "")
		g.rejoin(t, 3, want, "")
		got := g.clients[3].table.Accepted
		if !slices.Equal(got, []stream.ID{sid(0, 0)}) {
			t.Fatalf("run %d: resync admitted %v, want [%v]", run, got, sid(0, 0))
		}
		g.check(t, fmt.Sprintf("run %d", run))
	}
}

// FuzzIncrementalRoutes runs random resubscribe scripts on a server of
// at most eight sites — inline or batched, one shard or either of two,
// RJ or CO-RJ, tight degree and latency budgets — and holds every table
// to the full rebuild after every flush. Each op is three bytes: a kind
// (toggle one subscription, a view change, a duplicate ID, a flush, a
// mid-window Forest read, a re-registration, a diff naming a stream
// whose source is not a site) and two operands.
func FuzzIncrementalRoutes(f *testing.F) {
	f.Add([]byte{0, 4, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 0, 3, 1, 4, 2, 2, 5, 0, 0})
	f.Add([]byte{2, 6, 9, 9, 9, 9, 9, 9, 1, 0, 0, 1, 1, 1, 1, 2, 2, 6, 0, 0, 5, 0, 0, 7, 3, 1})
	f.Add([]byte{5, 7, 0, 3, 1, 2, 0, 1, 3, 7, 2, 8, 1, 2, 3, 4, 3, 2, 7, 5, 4, 8, 6, 6, 5, 1, 9})
	f.Add([]byte{15, 3, 3, 3, 3, 0, 1, 1, 4, 2, 2, 7, 0, 1, 8, 1, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		mode := next()
		n := 2 + next()%7
		cfg := Config{N: n, Seed: 1 + int64(next()%5), Bcost: float64(8 + next()%16)}
		if mode&1 != 0 {
			cfg.Algorithm = overlay.CORJ{}
		}
		if mode&2 != 0 {
			cfg.FlushIntervalMs = 40
		}
		if mode&4 != 0 {
			cfg.Shards, cfg.Shard = 2, (mode>>3)&1
		}
		cfg.Cost = make([][]float64, n)
		for i := range cfg.Cost {
			cfg.Cost[i] = make([]float64, n)
			for j := range cfg.Cost[i] {
				if i != j {
					cfg.Cost[i][j] = float64(1 + (i*7+j*7+int(cfg.Seed))%6)
				}
			}
		}
		const streams = 2
		// streamOf maps operands to a stream site != the site itself.
		streamOf := func(site, a, b int) stream.ID {
			return sid((site+1+a%(n-1))%n, b%streams)
		}
		hellos := make([]transport.Hello, n)
		subs := make([][]stream.ID, n)
		for i := range hellos {
			b := next()
			hellos[i] = transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 1 + b%4, Out: 1 + (b>>2)%4, NumStreams: streams}
			for k := 0; k < b>>5; k++ {
				if id := streamOf(i, b+k, k); !slices.Contains(subs[i], id) {
					subs[i] = append(subs[i], id)
				}
			}
		}
		g := newRoutesRig(t, cfg, hellos, subs)
		requested := func(site int, id stream.ID) bool {
			g.srv.mu.Lock()
			defer g.srv.mu.Unlock()
			return slices.Contains(g.srv.forest.Problem().Requests, overlay.Request{Node: site, Stream: id})
		}
		inline := cfg.FlushIntervalMs == 0
		for op := 0; len(data) > 0 && op < 64; op++ {
			kind, a, b := next()%10, next(), next()
			site := a % n
			when := fmt.Sprintf("op %d (kind %d)", op, kind)
			switch kind {
			case 0, 1, 2, 3:
				id := streamOf(site, b, b>>4)
				if requested(site, id) {
					g.resub(site, nil, []stream.ID{id})
				} else {
					g.resub(site, []stream.ID{id}, nil)
				}
			case 4:
				lost, gained := streamOf(site, b, 0), streamOf(site, b>>2, 1)
				g.resub(site, []stream.ID{gained}, []stream.ID{lost})
			case 5:
				g.srv.applyResubscribe(&transport.Resubscribe{Site: site, ID: g.nextID[site], Gained: []stream.ID{streamOf(site, b, b)}})
			case 6:
				g.flush(t, when)
			case 7:
				g.srv.Forest()
			case 8:
				var want []stream.ID
				for k := 0; k < 3; k++ {
					if b>>k&1 != 0 {
						want = append(want, streamOf(site, k, b>>3+k))
					}
				}
				addr := ""
				if b>>7 == 0 {
					addr = fmt.Sprintf("h:%d-%d", site, op)
				}
				g.rejoin(t, site, want, addr)
				g.check(t, when)
			case 9:
				bad := sid(n+b%3, b>>2)
				if b&0x80 != 0 {
					bad.Site = -1 - b%3
				}
				g.resub(site, []stream.ID{bad}, []stream.ID{bad})
			}
			if inline {
				g.check(t, when)
			}
		}
		g.flush(t, "end")
	})
}
