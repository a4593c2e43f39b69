package rp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// sids builds stream IDs from (site, index) pairs.
func sids(pairs ...int) []stream.ID {
	out := make([]stream.ID, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, stream.ID{Site: pairs[i], Index: pairs[i+1]})
	}
	return out
}

// staleUpdates reads how many routing updates the node dropped as not
// newer than its table's slice for the sending shard.
func staleUpdates(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.staleUpdates
}

// tableNode returns an unstarted node for site 4 of a plane with the
// given shard count, ready for direct table transitions.
func tableNode(t testing.TB, shards int) *Node {
	t.Helper()
	n, err := New(Config{Site: 4, Cameras: 1, Profile: testProfile()})
	if err != nil {
		t.Fatal(err)
	}
	n.shards = shards
	return n
}

// TestRoutesSortedAfterDeltas: after deltas that touch many streams,
// Routes() is the table the server would send — every list sorted by
// stream — not the snapshot's map order.
func TestRoutesSortedAfterDeltas(t *testing.T) {
	n := tableNode(t, 1)
	peers := map[int]string{0: "a:1", 1: "b:1", 2: "c:1"}
	n.installShardRoutes([]*transport.Routes{{Site: 4, Epoch: 1, Peers: peers}})

	var fwd []transport.Route
	for i := 0; i < 8; i++ {
		fwd = append(fwd, transport.Route{Stream: stream.ID{Site: 4, Index: i}, Children: []int{1, 2}})
	}
	acc := sids(0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 1, 2, 1, 3)
	rej := sids(2, 0, 2, 1, 2, 2, 2, 3, 3, 0, 3, 1, 3, 2, 3, 3)
	n.applyUpdate(&transport.RoutesUpdate{Site: 4, Epoch: 2, SetForward: fwd, AddAccepted: acc, AddRejected: rej})
	n.applyUpdate(&transport.RoutesUpdate{
		Site: 4, Epoch: 3,
		SetForward:  []transport.Route{{Stream: stream.ID{Site: 4, Index: 3}}, {Stream: stream.ID{Site: 4, Index: 9}, Children: []int{0}}},
		AddAccepted: sids(0, 5),
		DelAccepted: sids(1, 1),
		AddRejected: sids(1, 1),
		DelRejected: sids(3, 3),
	})

	want := &transport.Routes{Site: 4, Epoch: 3, Peers: peers}
	for i := 0; i < 10; i++ {
		switch i {
		case 3, 8:
		case 9:
			want.Forward = append(want.Forward, transport.Route{Stream: stream.ID{Site: 4, Index: 9}, Children: []int{0}})
		default:
			want.Forward = append(want.Forward, transport.Route{Stream: stream.ID{Site: 4, Index: i}, Children: []int{1, 2}})
		}
	}
	want.Accepted = sids(0, 0, 0, 1, 0, 2, 0, 3, 0, 5, 1, 0, 1, 2, 1, 3)
	want.Rejected = sids(1, 1, 2, 0, 2, 1, 2, 2, 2, 3, 3, 0, 3, 1, 3, 2)
	if got := n.Routes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Routes() =\n%+v\nwant\n%+v", got, want)
	}
}

// TestShardSyncMatchesDelta: a full shard table is applied as the delta
// from the held slice, so it leaves the node exactly where the
// equivalent delta does; a stale sync changes and settles nothing; a
// sync settles the shard's in-flight gains from the synced state. The
// node runs two shards: shard 0 owns even source sites, shard 1 odd.
func TestShardSyncMatchesDelta(t *testing.T) {
	boot := func(t *testing.T) *Node {
		n := tableNode(t, 2)
		n.installShardRoutes([]*transport.Routes{
			{Site: 4, Epoch: 5, Peers: map[int]string{0: "a:1"},
				Forward:  []transport.Route{{Stream: stream.ID{Site: 0, Index: 0}, Children: []int{1, 2}}},
				Accepted: sids(2, 0), Rejected: sids(2, 1)},
			{Site: 4, Epoch: 2, Shard: 1,
				Forward: []transport.Route{
					{Stream: stream.ID{Site: 1, Index: 0}, Children: []int{3}},
					{Stream: stream.ID{Site: 3, Index: 1}, Children: []int{0}},
				},
				Accepted: sids(1, 1, 3, 0), Rejected: sids(1, 2)},
		})
		return n
	}
	// Shard 1's next table: s1^0 reroutes, s3^1's duty ends, s3^2 is
	// gained, s1^1 moves from accepted to rejected, s1^2's rejection ends.
	sync := func(epoch uint64) *transport.Routes {
		return &transport.Routes{Site: 4, Epoch: epoch, Shard: 1,
			Forward:  []transport.Route{{Stream: stream.ID{Site: 1, Index: 0}, Children: []int{3, 5}}},
			Accepted: sids(3, 2, 3, 0), Rejected: sids(1, 1)}
	}
	delta := &transport.RoutesUpdate{Site: 4, Epoch: 3, Shard: 1,
		SetForward:  []transport.Route{{Stream: stream.ID{Site: 1, Index: 0}, Children: []int{3, 5}}, {Stream: stream.ID{Site: 3, Index: 1}}},
		AddAccepted: sids(3, 2), DelAccepted: sids(1, 1),
		AddRejected: sids(1, 1), DelRejected: sids(1, 2)}

	cases := []struct {
		name   string
		epoch  uint64 // the sync's epoch; shard 1 holds 2
		twin   bool   // compare against the delta applied to a twin node
		stale  bool
		settle bool // check the in-flight requests' settlement
	}{
		{name: "full table equals delta", epoch: 3, twin: true},
		{name: "stale sync", epoch: 2, stale: true},
		{name: "in-flight gains settled", epoch: 3, settle: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := boot(t)
			before := n.table()
			// s3^3 is in neither synced set: lost in the failover window.
			ch1 := make(chan *ResubscribeResult, 1)
			ch0 := make(chan *ResubscribeResult, 1)
			n.inflight[1] = &inflightReq{shard: 1, gained: sids(3, 2, 1, 1, 3, 3), ch: ch1}
			n.inflight[2] = &inflightReq{shard: 0, gained: sids(2, 5), ch: ch0}

			n.applySync(sync(c.epoch))

			if c.stale {
				if staleUpdates(n) != 1 || n.table() != before {
					t.Errorf("stale sync applied: stale updates %d, table replaced %v", staleUpdates(n), n.table() != before)
				}
				if len(n.inflight) != 2 || len(ch1) != 0 {
					t.Errorf("stale sync settled requests: %d left in flight", len(n.inflight))
				}
				return
			}
			tbl := n.table()
			if staleUpdates(n) != 0 || !reflect.DeepEqual(tbl.epochs, []uint64{5, 3}) || tbl.epoch != 5 {
				t.Errorf("stale %d, epochs %v (max %d), want 0, [5 3] (max 5)", staleUpdates(n), tbl.epochs, tbl.epoch)
			}
			for id, sr := range before.streams {
				if id.Site%2 == 0 && tbl.streams[id] != sr {
					t.Errorf("shard 0 entry %v changed: %+v -> %+v", id, sr, tbl.streams[id])
				}
			}
			if !tbl.rejected[stream.ID{Site: 2, Index: 1}] {
				t.Error("shard 0's rejection dropped by shard 1's sync")
			}

			if c.twin {
				twin := boot(t)
				twin.applyUpdate(delta)
				if got, want := n.Routes(), twin.Routes(); !reflect.DeepEqual(got, want) {
					t.Errorf("sync Routes() =\n%+v\ndelta Routes() =\n%+v", got, want)
				}
				if !reflect.DeepEqual(tbl.epochs, twin.table().epochs) {
					t.Errorf("epochs %v, delta's %v", tbl.epochs, twin.table().epochs)
				}
				if got, want := gainMarks(n), gainMarks(twin); !reflect.DeepEqual(got, want) {
					t.Errorf("gain marks %v, delta's %v", got, want)
				}
				if want := map[stream.ID]uint64{{Site: 3, Index: 2}: 3}; !reflect.DeepEqual(gainMarks(n), want) {
					t.Errorf("gain marks %v, want %v", gainMarks(n), want)
				}
			}

			if !c.settle {
				return
			}
			res := <-ch1
			if res.Epoch != 3 || !reflect.DeepEqual(res.Accepted, sids(3, 2)) || !reflect.DeepEqual(res.Rejected, sids(1, 1)) {
				t.Errorf("settled %+v, want epoch 3, accepted [s3^2], rejected [s1^1]", res)
			}
			if res.Epochs[stream.ID{Site: 3, Index: 2}] != 3 || len(res.Epochs) != 1 {
				t.Errorf("settled epochs %v, want s3^2 at 3", res.Epochs)
			}
			if _, ok := n.inflight[2]; !ok || len(ch0) != 0 || len(n.inflight) != 1 {
				t.Error("shard 1's sync settled a request toward shard 0")
			}
		})
	}
}

// gainMarks maps every stream awaiting its first frame to the epoch that
// gained it.
func gainMarks(n *Node) map[stream.ID]uint64 {
	out := make(map[stream.ID]uint64)
	ids, slots := n.slotList()
	for i, s := range slots {
		if s.gaining {
			out[ids[i]] = s.gain.epoch
		}
	}
	return out
}

// randomShardTable draws a sorted shard-k table over streams whose source
// site has parity k: each stream may carry a forwarding duty and is
// accepted, rejected or neither.
func randomShardTable(rng *rand.Rand, k int, epoch uint64) *transport.Routes {
	r := &transport.Routes{Site: 4, Epoch: epoch, Shard: k}
	for site := k; site < 6; site += 2 {
		for q := 0; q < 4; q++ {
			id := stream.ID{Site: site, Index: q}
			if rng.Intn(3) == 0 {
				var ch []int
				for c := 0; c < 6; c++ {
					if rng.Intn(3) == 0 {
						ch = append(ch, c)
					}
				}
				if len(ch) > 0 {
					r.Forward = append(r.Forward, transport.Route{Stream: id, Children: ch})
				}
			}
			switch rng.Intn(3) {
			case 0:
				r.Accepted = append(r.Accepted, id)
			case 1:
				r.Rejected = append(r.Rejected, id)
			}
		}
	}
	return r
}

// slice restricts a sorted table to the streams of one shard.
func slice(r *transport.Routes, k int) *transport.Routes {
	keep := func(id stream.ID) bool { return id.Site%2 == k }
	out := &transport.Routes{}
	for _, f := range r.Forward {
		if keep(f.Stream) {
			out.Forward = append(out.Forward, f)
		}
	}
	for _, id := range r.Accepted {
		if keep(id) {
			out.Accepted = append(out.Accepted, id)
		}
	}
	for _, id := range r.Rejected {
		if keep(id) {
			out.Rejected = append(out.Rejected, id)
		}
	}
	return out
}

// FuzzShardSync boots a two-shard node on random tables, then syncs a
// random new table for one shard: Routes() must hold exactly that table
// for the synced shard and be unchanged for the other.
func FuzzShardSync(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1))
	f.Add(int64(7), uint8(1), uint8(3))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shard, bump uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := int(shard % 2)
		n := tableNode(t, 2)
		boot := []*transport.Routes{randomShardTable(rng, 0, uint64(1+rng.Intn(4))), randomShardTable(rng, 1, uint64(1+rng.Intn(4)))}
		held := boot[k].Epoch
		n.installShardRoutes(boot)
		before := n.Routes()
		next := randomShardTable(rng, k, held+1+uint64(bump%4))
		want := slice(next, k)
		n.applySync(next)

		got := n.Routes()
		if !reflect.DeepEqual(slice(got, k), want) {
			t.Fatalf("shard %d after sync =\n%+v\nwant\n%+v", k, slice(got, k), want)
		}
		if !reflect.DeepEqual(slice(got, 1-k), slice(before, 1-k)) {
			t.Fatalf("shard %d changed by shard %d's sync:\n%+v\nwas\n%+v", 1-k, k, slice(got, 1-k), slice(before, 1-k))
		}
		if !sort.SliceIsSorted(got.Accepted, func(a, b int) bool { return got.Accepted[a].Less(got.Accepted[b]) }) {
			t.Fatalf("Accepted unsorted: %v", got.Accepted)
		}
		if e := n.table().shardEpoch(k); e != next.Epoch {
			t.Fatalf("shard %d epoch %d, want %d", k, e, next.Epoch)
		}
	})
}
