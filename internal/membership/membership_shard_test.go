package membership

// Tests for the sharded control plane: delta batching determinism, the
// duplicate-resubscribe guard that keeps failover retries idempotent,
// and the shard-union invariant (the union of per-shard directives an RP
// holds equals the single-server table).

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// fourSiteCost is a symmetric latency matrix for the shard tests.
var fourSiteCost = [][]float64{
	{0, 5, 9, 7},
	{5, 0, 6, 8},
	{9, 6, 0, 4},
	{7, 8, 4, 0},
}

// shardHarness is one booted server with registered RP-side connections:
// conns[i] writes as site i, updates[i] streams the pushed messages.
type shardHarness struct {
	srv     *Server
	conns   []net.Conn
	updates []chan *transport.Message
}

// startServer boots one server and registers the given workload: site i
// announces 4 streams and subs[i] subscriptions. The initial MsgRoutes
// is consumed; subsequent pushes stream on the per-site channels.
func startServer(t *testing.T, ctx context.Context, cfg Config, subs [][]stream.ID) *shardHarness {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	h := &shardHarness{
		srv:     srv,
		conns:   make([]net.Conn, cfg.N),
		updates: make([]chan *transport.Message, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		c := register(t, srv.Addr(),
			transport.Hello{Site: i, Addr: fmt.Sprintf("h:%d", i), In: 20, Out: 20, NumStreams: 4}, subs[i])
		t.Cleanup(func() { c.Close() })
		h.conns[i] = c
	}
	// Routing tables go out only once every site is registered, so the
	// initial reads happen after the full registration pass.
	for i, c := range h.conns {
		m, err := transport.ReadMessage(c)
		if err != nil || m.Type != transport.MsgRoutes {
			t.Fatalf("site %d initial routes: %v %v", i, m, err)
		}
		ch := make(chan *transport.Message, 64)
		h.updates[i] = ch
		go func(c net.Conn) {
			for {
				m, err := transport.ReadMessage(c)
				if err != nil {
					close(ch)
					return
				}
				ch <- m
			}
		}(c)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return h
}

// resubscribe writes one MsgResubscribe as the diff's site.
func (h *shardHarness) resubscribe(t *testing.T, r transport.Resubscribe) {
	t.Helper()
	if err := transport.WriteMessage(h.conns[r.Site], &transport.Message{
		Type: transport.MsgResubscribe, Resubscribe: &r,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchingDeterminism applies the same burst of churn events to an
// inline server (one epoch per event) and to a batching server (one
// coalesced flush), and requires both to converge to the identical
// routing table with monotonically increasing epochs.
func TestBatchingDeterminism(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	subs := [][]stream.ID{nil, {{Site: 0, Index: 0}}, nil, nil}
	base := Config{N: 4, Cost: fourSiteCost, Bcost: 100, Seed: 11}

	inlineCfg, batchCfg := base, base
	batchCfg.FlushIntervalMs = 3600 * 1000 // only manual Flush fires
	inline := startServer(t, ctx, inlineCfg, subs)
	batch := startServer(t, ctx, batchCfg, subs)

	burst := []transport.Resubscribe{
		{Site: 2, ID: 1, Gained: []stream.ID{{Site: 0, Index: 0}}},
		{Site: 2, ID: 2, Gained: []stream.ID{{Site: 0, Index: 1}}},
		{Site: 3, ID: 3, Gained: []stream.ID{{Site: 0, Index: 0}, {Site: 0, Index: 2}}},
		{Site: 2, ID: 4, Lost: []stream.ID{{Site: 0, Index: 1}}},
	}

	// Inline: one event at a time, awaiting each acknowledgement; epochs
	// must increase strictly.
	var lastEpoch uint64
	for _, r := range burst {
		inline.resubscribe(t, r)
		ack := awaitAck(t, inline.updates[r.Site], r.ID)
		if ack.Epoch <= lastEpoch {
			t.Errorf("inline epoch %d after %d: not monotonic", ack.Epoch, lastEpoch)
		}
		lastEpoch = ack.Epoch
	}
	if got := inline.srv.Epoch(); got != 1+uint64(len(burst)) {
		t.Errorf("inline epoch = %d, want %d (one bump per event)", got, 1+len(burst))
	}

	// Batched: the whole burst lands before any flush, then one Flush
	// coalesces it into a single epoch bump. Sends from different sites
	// ride different connections, so each apply is awaited to keep the
	// event order identical to the inline server's — determinism is
	// batched-vs-inline for one event sequence, not across reorderings.
	for i, r := range burst {
		batch.resubscribe(t, r)
		waitApplied(t, batch.srv, uint64(i+1))
	}
	if got := batch.srv.Epoch(); got != 1 {
		t.Fatalf("batch server flushed early: epoch %d", got)
	}
	batch.srv.Flush()
	if got := batch.srv.Epoch(); got != 2 {
		t.Errorf("batch epoch = %d, want 2 (initial + one coalesced flush)", got)
	}
	// Site 2 issued three requests; its one coalesced update must carry
	// all three acknowledgements.
	u := awaitAck(t, batch.updates[2], 4)
	if len(u.Acks) != 3 {
		t.Errorf("coalesced update carries %d acks, want 3: %+v", len(u.Acks), u.Acks)
	}

	// Both planes must converge to the identical routing table.
	inlineTab, batchTab := snapshotTables(inline.srv), snapshotTables(batch.srv)
	for i := 0; i < base.N; i++ {
		if !routesEquivalent(inlineTab[i], batchTab[i]) {
			t.Errorf("site %d tables diverge:\ninline: %+v\nbatch:  %+v", i, inlineTab[i], batchTab[i])
		}
	}
}

// TestDuplicateResubscribeNotDoubleApplied replays the exact same
// resubscribe (same request ID) — the retry an RP issues when a failover
// races its in-flight request — and requires the second copy to be
// re-acknowledged without touching the forest or the epoch.
func TestDuplicateResubscribeNotDoubleApplied(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	subs := [][]stream.ID{nil, nil, nil, nil}
	h := startServer(t, ctx, Config{N: 4, Cost: fourSiteCost, Bcost: 100, Seed: 5}, subs)

	r := transport.Resubscribe{Site: 1, ID: 7, Gained: []stream.ID{{Site: 0, Index: 0}}}
	for attempt := 0; attempt < 2; attempt++ {
		h.resubscribe(t, r)
		u := awaitAck(t, h.updates[1], 7)
		if u.Epoch != 2 {
			t.Errorf("attempt %d acked at epoch %d, want 2", attempt, u.Epoch)
		}
		if attempt == 1 && len(u.AddAccepted) != 0 {
			t.Errorf("duplicate re-applied: AddAccepted = %v", u.AddAccepted)
		}
	}
	if got := h.srv.AppliedResubs(); got != 1 {
		t.Errorf("applied %d resubscribes, want 1 (duplicate suppressed)", got)
	}
	if got := h.srv.Epoch(); got != 2 {
		t.Errorf("epoch = %d, want 2 (duplicate must not bump)", got)
	}
}

// TestShardedUnionMatchesSingleServer registers the identical workload
// with a single-server plane and with both shards of a two-shard plane,
// then checks that for every site the union of the two shard tables is
// exactly the single-server table — the invariant that makes sharding
// transparent to the RPs.
func TestShardedUnionMatchesSingleServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	subs := [][]stream.ID{
		{{Site: 1, Index: 0}, {Site: 2, Index: 0}},
		{{Site: 2, Index: 1}, {Site: 3, Index: 0}},
		{{Site: 0, Index: 0}, {Site: 3, Index: 1}},
		{{Site: 0, Index: 1}, {Site: 1, Index: 1}},
	}
	base := Config{N: 4, Cost: fourSiteCost, Bcost: 200, Seed: 9}
	single := startServer(t, ctx, base, subs)

	shard0, shard1 := base, base
	shard0.Shards, shard0.Shard = 2, 0
	shard1.Shards, shard1.Shard = 2, 1
	s0 := startServer(t, ctx, shard0, subs)
	s1 := startServer(t, ctx, shard1, subs)

	want, t0, t1 := snapshotTables(single.srv), snapshotTables(s0.srv), snapshotTables(s1.srv)
	for i := 0; i < base.N; i++ {
		got := unionRoutes(t0[i], t1[i])
		if !routesEquivalent(want[i], got) {
			t.Errorf("site %d: shard union != single-server table\nsingle: %+v\nunion:  %+v",
				i, want[i], got)
		}
	}
	// Sanity: every stream's directives came from exactly one shard.
	for i := 0; i < base.N; i++ {
		for _, r := range t0[i].Forward {
			if transport.TenantStreamShard(0, r.Stream, 2) != 0 {
				t.Errorf("shard 0 pushed directive for foreign stream %v", r.Stream)
			}
		}
		for _, r := range t1[i].Forward {
			if transport.TenantStreamShard(0, r.Stream, 2) != 1 {
				t.Errorf("shard 1 pushed directive for foreign stream %v", r.Stream)
			}
		}
	}
}

// awaitAck reads pushed updates on ch until one acknowledges request id.
func awaitAck(t *testing.T, ch chan *transport.Message, id uint64) *transport.RoutesUpdate {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatal("control connection closed before ack")
			}
			if m.Type != transport.MsgRoutesUpdate {
				continue
			}
			for _, a := range m.Update.Acks {
				if a.ID == id {
					return m.Update
				}
			}
		case <-deadline:
			t.Fatalf("no ack for request %d", id)
		}
	}
}

// waitApplied blocks until the server has applied n resubscribes.
func waitApplied(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.AppliedResubs() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never applied %d resubscribes (at %d)", n, srv.AppliedResubs())
}

// snapshotTables copies the server's current per-site routing tables.
func snapshotTables(srv *Server) map[int]*transport.Routes {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make(map[int]*transport.Routes, len(srv.cur))
	for i, r := range srv.cur {
		out[i] = r
	}
	return out
}

// unionRoutes merges two disjoint shard tables for one site.
func unionRoutes(a, b *transport.Routes) *transport.Routes {
	u := &transport.Routes{Site: a.Site}
	u.Forward = append(append([]transport.Route(nil), a.Forward...), b.Forward...)
	u.Accepted = append(append([]stream.ID(nil), a.Accepted...), b.Accepted...)
	u.Rejected = append(append([]stream.ID(nil), a.Rejected...), b.Rejected...)
	return u
}

// routesEquivalent compares the overlay-derived fields of two tables
// (forwarding directives, admission outcomes) ignoring order, epoch and
// shard labeling.
func routesEquivalent(a, b *transport.Routes) bool {
	fa := make(map[stream.ID]string, len(a.Forward))
	for _, r := range a.Forward {
		fa[r.Stream] = intsKey(r.Children)
	}
	fb := make(map[stream.ID]string, len(b.Forward))
	for _, r := range b.Forward {
		fb[r.Stream] = intsKey(r.Children)
	}
	if len(fa) != len(fb) {
		return false
	}
	for id, k := range fa {
		if fb[id] != k {
			return false
		}
	}
	return idSetEqual(a.Accepted, b.Accepted) && idSetEqual(a.Rejected, b.Rejected)
}

func idSetEqual(a, b []stream.ID) bool {
	sa := make(map[stream.ID]bool, len(a))
	for _, id := range a {
		sa[id] = true
	}
	if len(sa) != len(b) {
		return false
	}
	for _, id := range b {
		if !sa[id] {
			return false
		}
	}
	return true
}

func intsKey(xs []int) string { return fmt.Sprint(xs) }
