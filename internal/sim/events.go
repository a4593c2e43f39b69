package sim

// events.go makes the simulator event-driven: RunEvents accepts a
// time-stamped control trace — subscribe, unsubscribe and FOV view-change
// events — and applies it to the live forest mid-session through the
// overlay's dynamic operations. Frames keep flowing while the forest
// reconfigures: a frame already in flight to a node that just left is
// discarded at arrival, a subtree re-attached under a new parent misses
// the frames its old parent would have forwarded, and a freshly admitted
// subscriber starts receiving at the next frame its parent forwards.
//
// The headline metric this unlocks is *disruption latency*: for every
// event that gains streams (a view change rotating a display's FOV, or a
// plain subscribe), the time from the event to the first delivered frame
// of each newly needed stream. This is what a viewer actually experiences
// when the view changes mid-session — the quantity the paper's §6 future
// work points at measuring for ViewCast-style view dynamics.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

// EventKind classifies a control event.
type EventKind int

const (
	// EventSubscribe adds the Gained streams to the node's subscriptions.
	EventSubscribe EventKind = iota
	// EventUnsubscribe withdraws the Lost streams from the node.
	EventUnsubscribe
	// EventViewChange atomically swaps part of the node's view: the Lost
	// streams are withdrawn, then the Gained streams are subscribed — the
	// dissemination-level image of a display's FOV rotating.
	EventViewChange
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSubscribe:
		return "subscribe"
	case EventUnsubscribe:
		return "unsubscribe"
	case EventViewChange:
		return "view-change"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one time-stamped control operation on the live forest.
type Event struct {
	// AtMs is the event time in session-relative milliseconds.
	AtMs float64
	// Kind selects the operation.
	Kind EventKind
	// Node is the subscribing RP.
	Node int
	// Gained lists streams to subscribe (EventSubscribe, EventViewChange).
	Gained []stream.ID
	// Lost lists streams to unsubscribe (EventUnsubscribe, EventViewChange).
	Lost []stream.ID
}

// EventOutcome reports what one event did to the forest and what the
// subscriber experienced afterwards.
type EventOutcome struct {
	// Index is the event's position in the (time-sorted) trace.
	Index int
	AtMs  float64
	Kind  EventKind
	Node  int
	// GainedAccepted and GainedRejected partition the event's admitted
	// gained streams by join outcome; Skipped counts operations the forest
	// could not apply (duplicate subscribes, unknown unsubscribes, invalid
	// targets) — a replayed trace that drifted from the forest state.
	GainedAccepted int
	GainedRejected int
	Skipped        int
	// LostApplied counts successful unsubscribes.
	LostApplied int
	// DeliveredGained counts accepted gained streams that received at
	// least one frame before session end; Undelivered the remainder —
	// gains still dry at session end, plus gains withdrawn (or
	// superseded by a re-subscribe) before their first frame arrived.
	// DeliveredGained + Undelivered == GainedAccepted always holds.
	DeliveredGained int
	Undelivered     int
	// MeanDisruptionMs and MaxDisruptionMs summarize, over the delivered
	// gained streams, the time from the event to the first delivered frame
	// of that stream.
	MeanDisruptionMs float64
	MaxDisruptionMs  float64
}

// EventResult is a completed event-driven simulation.
type EventResult struct {
	// PerSubscription accumulates delivery stats per (node, stream) pair
	// over the whole session, including pairs whose membership started or
	// ended mid-session; sorted by (node, stream). Hops is the overlay
	// path length at session end (0 if the node is no longer a member).
	PerSubscription []DeliveryStats
	// TotalFrames counts frame deliveries; MaxLatencyMs the worst frame
	// latency observed anywhere.
	TotalFrames  int
	MaxLatencyMs float64
	// Events holds one outcome per control event, in trace order.
	Events []EventOutcome
	// MeanDisruptionMs and MaxDisruptionMs aggregate disruption latency
	// over every delivered gained stream of every event.
	MeanDisruptionMs float64
	MaxDisruptionMs  float64
	// DeliveredGained / UndeliveredGained aggregate the per-event counts.
	DeliveredGained   int
	UndeliveredGained int
	// FinalAccepted and FinalRejected snapshot the forest's accounting at
	// session end.
	FinalAccepted int
	FinalRejected int
	// BatchApplyMs is the wall-clock time spent applying control events to
	// the live forest (the subscribe/unsubscribe mutations, not the frame
	// replay) — the simulator's half of the per-phase observability the
	// maintenance pipeline reports. Being a wall-clock measurement it is
	// the one field of the result outside the determinism contract.
	BatchApplyMs float64
}

// propItem is a heap entry for one frame copy in flight between overlay
// nodes. Source emissions and control events are not heap entries: they
// are generated from sorted cursors and merged with the heap head, so the
// heap only ever holds the (small) set of frames currently on the wire.
type propItem struct {
	// key is math.Float64bits of the arrival time: times are nonnegative,
	// so unsigned comparison of the IEEE bits preserves float order while
	// costing one integer compare in the heap's hot path.
	key  uint64
	ord  int32 // push order: the final, total tie-break
	pair int32 // node*S + stream index
	seq  int32 // frame sequence
}

func (a propItem) before(b propItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.ord < b.ord
}

// propHeap is a 4-ary min-heap on propItem.before. The wider fan-out
// halves the tree depth versus a binary heap, which cuts the sift-down
// cost of pop — the simulator's hottest operation — while pop order is
// unchanged: before is a total order (ord is unique), so any valid heap
// shape pops the same sequence.
type propHeap []propItem

func (h *propHeap) push(e propItem) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if a[p].before(a[i]) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *propHeap) pop() propItem {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(a[m]) {
				m = j
			}
		}
		if !a[m].before(a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// propQueue is a calendar queue over propItems: a frame in flight lands in
// the 1ms bucket of its arrival time, and only the active band — every
// queued item with arrival before float64(curB+1) — lives in a (tiny)
// heap. The engine's pushes are monotone: a child's arrival is strictly
// after the delivery generating it, so the band cursor only moves forward
// and a pop costs O(band) instead of O(log queue). A push at or before the
// band goes straight into the band heap, which keeps the minimum in cur
// whenever cur is non-empty; future buckets hold their items as arena
// linked lists, newest first, and are heapified wholesale when the cursor
// reaches them. before is a total order, so the pop sequence is
// bit-identical to a single global heap's.
type propQueue struct {
	cur   propHeap
	curB  int
	heads []int32 // bucket -> arena index of its newest item; -1 empty
	arena []linkedItem
	free  int32 // freelist of drained arena slots, linked via next; -1 empty
	size  int
}

type linkedItem struct {
	propItem
	next int32 // previously pushed item of the same bucket
}

func (q *propQueue) push(e propItem) {
	q.size++
	b := int(math.Float64frombits(e.key))
	if b <= q.curB {
		q.cur.push(e)
		return
	}
	for b >= len(q.heads) {
		q.heads = append(q.heads, -1)
	}
	if idx := q.free; idx >= 0 {
		q.free = q.arena[idx].next
		q.arena[idx] = linkedItem{propItem: e, next: q.heads[b]}
		q.heads[b] = idx
		return
	}
	idx := int32(len(q.arena))
	q.arena = append(q.arena, linkedItem{propItem: e, next: q.heads[b]})
	q.heads[b] = idx
}

// settle advances the band cursor to the first non-empty bucket and drains
// it into the band heap, recycling the drained arena slots — the arena
// stays sized to the peak number of frames simultaneously in flight.
// Callers guarantee size > 0.
func (q *propQueue) settle() {
	for len(q.cur) == 0 {
		q.curB++
		for idx := q.heads[q.curB]; idx >= 0; {
			nxt := q.arena[idx].next
			q.cur.push(q.arena[idx].propItem)
			q.arena[idx].next = q.free
			q.free = idx
			idx = nxt
		}
		q.heads[q.curB] = -1
	}
}

// headKey returns the minimum item's key; call only when size > 0.
func (q *propQueue) headKey() uint64 {
	q.settle()
	return q.cur[0].key
}

func (q *propQueue) pop() propItem {
	q.settle()
	q.size--
	return q.cur.pop()
}

// RunEvents executes an event-driven simulation: the frame schedule of
// every stream the session ever needs plays over cfg.Forest while the
// control trace reconfigures it live. The forest is mutated in place; it
// ends in the post-trace state (callers needing the original forest must
// construct a fresh one). Events are applied in time order; ties keep the
// trace order. The trace may be unsorted.
func RunEvents(cfg Config, events []Event) (*EventResult, error) {
	if cfg.Forest == nil {
		return nil, errors.New("sim: nil forest")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.DurationMs <= 0 {
		return nil, fmt.Errorf("sim: duration %v <= 0", cfg.DurationMs)
	}
	if cfg.HopOverheadMs < 0 || math.IsNaN(cfg.HopOverheadMs) {
		return nil, fmt.Errorf("sim: hop overhead %v invalid", cfg.HopOverheadMs)
	}
	for i, e := range events {
		if math.IsNaN(e.AtMs) || e.AtMs < 0 || e.AtMs >= cfg.DurationMs {
			return nil, fmt.Errorf("sim: event %d at %vms outside [0, %v)", i, e.AtMs, cfg.DurationMs)
		}
		switch e.Kind {
		case EventSubscribe, EventUnsubscribe, EventViewChange:
		default:
			return nil, fmt.Errorf("sim: event %d has unknown kind %d", i, int(e.Kind))
		}
	}

	f := cfg.Forest
	p := f.Problem()
	interval := cfg.Profile.FrameIntervalMs()
	frames := int(cfg.DurationMs / interval)
	if frames < 1 {
		frames = 1
	}

	// Time-sort a copy of the trace; stable keeps trace order for ties.
	trace := make([]Event, len(events))
	copy(trace, events)
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].AtMs < trace[j].AtMs })

	// Capture events cover every stream the session ever disseminates:
	// the initial forest's trees plus every stream any event gains.
	// Sources capture regardless of demand; frames of a stream with no
	// subscribers die at the source.
	captured := make(map[stream.ID]bool)
	for _, t := range f.Trees() {
		captured[t.Stream] = true
	}
	for _, e := range trace {
		for _, id := range e.Gained {
			if id.Site >= 0 && id.Site < p.N() {
				captured[id] = true
			}
		}
	}
	capturedIDs := make([]stream.ID, 0, len(captured))
	for id := range captured {
		capturedIDs = append(capturedIDs, id)
	}
	stream.SortIDs(capturedIDs)

	// Dense pair indexing: pair = node*S + stream index into capturedIDs.
	// Every stream a successful dynamic operation can touch is captured
	// (gained streams are added above; any stream with live requests has a
	// tree at start), so per-pair simulation state lives in flat arrays
	// instead of maps keyed by (node, stream.ID).
	n := p.N()
	S := len(capturedIDs)
	sidx := make(map[stream.ID]int32, S)
	for i, id := range capturedIDs {
		sidx[id] = int32(i)
	}
	pairs := n * S

	res := &EventResult{Events: make([]EventOutcome, len(trace))}
	for i, e := range trace {
		res.Events[i] = EventOutcome{Index: i, AtMs: e.AtMs, Kind: e.Kind, Node: e.Node}
	}

	acc := make([]DeliveryStats, pairs)
	// pendingEvent/pendingSince track one accepted gained stream per pair
	// until its first frame (-1: none); a re-subscribe of the same pair
	// supersedes the older entry.
	pendingEvent := make([]int32, pairs)
	for i := range pendingEvent {
		pendingEvent[i] = -1
	}
	pendingSince := make([]float64, pairs)
	// delivered dedups frame copies: during a re-attachment a node can be
	// sent the same frame twice — once in flight from its detached old
	// parent, once forwarded by its new parent. A real receiver discards
	// the duplicate and does not re-forward it. The suppression is scoped
	// to one membership epoch: a pair that unsubscribes and re-subscribes
	// starts a fresh epoch, so a sequence legitimately re-delivered to the
	// new membership — e.g. via a slower relay that had not yet forwarded
	// it — is counted again. Epochs only ever advance, so "new epoch"
	// reduces to clearing the pair's seen-sequence bitmap.
	stride := (frames + 63) / 64
	delivered := make([]uint64, pairs*stride)

	// Per-stream tree cache: Tree() lookups dominate the frame loop and
	// trees only change while a control event runs, so cache lookups and
	// invalidate the cache after every control event.
	trees := make([]*overlay.Tree, S)
	treeKnown := make([]bool, S)
	lookupTree := func(si int32) *overlay.Tree {
		if !treeKnown[si] {
			trees[si] = f.Tree(capturedIDs[si])
			treeKnown[si] = true
		}
		return trees[si]
	}

	// Event sources, merged in the engine's total order (at, control
	// before frames, insertion order):
	//   - control events from the sorted trace (cursor ci);
	//   - source emissions, generated seq-major then stream-minor — the
	//     exact (at, ord) order the historical pre-pushed emissions had;
	//   - in-flight propagations in a calendar queue ordered by
	//     (at, push order).
	// Emission insertion orders are always below propagation ones, so at
	// equal times emissions win; controls win every tie by construction.
	var pq propQueue
	pq.heads = make([]int32, int(cfg.DurationMs)+2)
	for i := range pq.heads {
		pq.heads[i] = -1
	}
	pq.arena = make([]linkedItem, 0, 256)
	pq.cur = make(propHeap, 0, 64)
	pq.free = -1
	var propOrd int32
	ci := 0
	eSeq, eSidx := 0, 0
	if S == 0 {
		eSeq = frames // no streams: nothing ever emitted
	}

	for {
		haveC := ci < len(trace)
		haveE := eSeq < frames
		haveP := pq.size > 0
		if !haveC && !haveE && !haveP {
			break
		}
		eAt := math.Inf(1)
		if haveE {
			eAt = float64(eSeq) * interval
		}
		pAt := math.Inf(1)
		if haveP {
			pAt = math.Float64frombits(pq.headKey())
		}

		if haveC && trace[ci].AtMs <= eAt && trace[ci].AtMs <= pAt {
			applyStart := time.Now()
			e := trace[ci]
			out := &res.Events[ci]
			for _, id := range e.Lost {
				if err := f.Unsubscribe(overlay.Request{Node: e.Node, Stream: id}); err != nil {
					out.Skipped++
					continue
				}
				out.LostApplied++
				// A gain withdrawn before its first frame never delivers:
				// settle it as Undelivered on its subscribing event so
				// DeliveredGained + Undelivered always equals GainedAccepted.
				if si, ok := sidx[id]; ok {
					k := e.Node*S + int(si)
					if pendingEvent[k] >= 0 {
						res.Events[pendingEvent[k]].Undelivered++
						pendingEvent[k] = -1
					}
				}
			}
			for _, id := range e.Gained {
				r, err := f.Subscribe(overlay.Request{Node: e.Node, Stream: id})
				if err != nil {
					out.Skipped++
					continue
				}
				switch r {
				case overlay.Joined, overlay.AlreadyMember:
					out.GainedAccepted++
					si := sidx[id]
					k := e.Node*S + int(si)
					// A new membership epoch: old delivered entries no
					// longer suppress this subscription's frames. A
					// superseded pending gain (re-subscribe before any
					// frame) settles as Undelivered first.
					clear(delivered[k*stride : (k+1)*stride])
					if pendingEvent[k] >= 0 {
						res.Events[pendingEvent[k]].Undelivered++
					}
					pendingEvent[k] = int32(ci)
					pendingSince[k] = e.AtMs
				default:
					out.GainedRejected++
				}
			}
			ci++
			// The forest may have grown, pruned or recycled trees.
			clear(treeKnown)
			res.BatchApplyMs += float64(time.Since(applyStart)) / float64(time.Millisecond)
			continue
		}

		var at float64
		var node int
		var si int32
		var seq int
		if haveE && eAt <= pAt {
			at, si, seq = eAt, int32(eSidx), eSeq
			node = capturedIDs[eSidx].Site
			eSidx++
			if eSidx == S {
				eSidx, eSeq = 0, eSeq+1
			}
		} else {
			item := pq.pop()
			at, seq = math.Float64frombits(item.key), int(item.seq)
			node, si = int(item.pair)/S, item.pair%int32(S)
		}

		t := lookupTree(si)
		if t == nil || !t.Contains(node) {
			// The carrier left (or the stream lost its tree) while the
			// frame was in flight; the frame is discarded.
			continue
		}
		if node != t.Source {
			k := node*S + int(si)
			word, bit := k*stride+seq/64, uint64(1)<<(seq%64)
			if delivered[word]&bit != 0 {
				continue
			}
			delivered[word] |= bit
			st := &acc[k]
			if st.Frames == 0 {
				st.Node, st.Stream = node, capturedIDs[si]
			}
			lat := at - float64(seq)*interval
			st.Frames++
			st.MeanLatMs += (lat - st.MeanLatMs) / float64(st.Frames)
			// Latencies and disruptions are positive finite, so a plain
			// compare matches math.Max without the NaN/signed-zero checks.
			if lat > st.MaxLatMs {
				st.MaxLatMs = lat
			}
			res.TotalFrames++
			if lat > res.MaxLatencyMs {
				res.MaxLatencyMs = lat
			}
			if pendingEvent[k] >= 0 {
				d := at - pendingSince[k]
				out := &res.Events[pendingEvent[k]]
				out.DeliveredGained++
				out.MeanDisruptionMs += (d - out.MeanDisruptionMs) / float64(out.DeliveredGained)
				if d > out.MaxDisruptionMs {
					out.MaxDisruptionMs = d
				}
				pendingEvent[k] = -1
			}
		}
		costRow := p.Cost[node]
		for _, child := range t.ChildrenRef(node) {
			pq.push(propItem{
				key:  math.Float64bits(at + costRow[child] + cfg.HopOverheadMs),
				ord:  propOrd,
				pair: int32(child)*int32(S) + si,
				seq:  int32(seq),
			})
			propOrd++
		}
	}

	// Accepted gains that never saw a frame.
	for _, ev := range pendingEvent {
		if ev >= 0 {
			res.Events[ev].Undelivered++
		}
	}
	// Aggregate disruption across events in trace order.
	var sum float64
	for _, out := range res.Events {
		res.DeliveredGained += out.DeliveredGained
		res.UndeliveredGained += out.Undelivered
		sum += out.MeanDisruptionMs * float64(out.DeliveredGained)
		res.MaxDisruptionMs = math.Max(res.MaxDisruptionMs, out.MaxDisruptionMs)
	}
	if res.DeliveredGained > 0 {
		res.MeanDisruptionMs = sum / float64(res.DeliveredGained)
	}

	// Pair order is (node, stream) with streams sorted, so iterating flat
	// accumulators yields PerSubscription already in its documented order.
	for k := range acc {
		st := &acc[k]
		if st.Frames == 0 {
			continue
		}
		node, si := k/S, int32(k%S)
		if t := lookupTree(si); t != nil && t.Contains(node) && node != t.Source {
			h := 0
			for cur := node; cur != t.Source; h++ {
				parent, ok := t.Parent(cur)
				if !ok {
					return nil, fmt.Errorf("sim: tree %s disconnected at %d", t.Stream, cur)
				}
				cur = parent
			}
			st.Hops = h
		}
		res.PerSubscription = append(res.PerSubscription, *st)
	}
	res.FinalAccepted = f.NumAccepted()
	res.FinalRejected = f.NumRejected()
	return res, nil
}

// MinEdgeCostMs returns the smallest off-diagonal edge cost of the
// problem's latency matrix — the graph lower bound on any single overlay
// hop, and therefore on any delivered frame's latency.
func MinEdgeCostMs(p *overlay.Problem) float64 {
	min := math.Inf(1)
	for i := range p.Cost {
		for j, c := range p.Cost[i] {
			if i != j && c < min {
				min = c
			}
		}
	}
	return min
}

// VerifyEventLowerBound checks that no delivered frame beat the graph
// lower bound: every delivery crosses at least one overlay edge, so the
// per-subscription mean and max latencies must be at least the cheapest
// edge of the cost matrix. The fuzz harness runs this after every random
// trace — a simulator bug that teleports frames fails here.
func VerifyEventLowerBound(cfg Config, res *EventResult) error {
	bound := MinEdgeCostMs(cfg.Forest.Problem())
	const eps = 1e-9
	for _, st := range res.PerSubscription {
		if st.Frames == 0 {
			continue
		}
		if st.MeanLatMs+eps < bound {
			return fmt.Errorf("sim: node %d stream %s mean latency %.4fms below edge bound %.4fms",
				st.Node, st.Stream, st.MeanLatMs, bound)
		}
		if st.MaxLatMs+eps < st.MeanLatMs {
			return fmt.Errorf("sim: node %d stream %s max latency %.4fms below mean %.4fms",
				st.Node, st.Stream, st.MaxLatMs, st.MeanLatMs)
		}
	}
	if res.TotalFrames > 0 && res.MaxLatencyMs+eps < bound {
		return fmt.Errorf("sim: max latency %.4fms below edge bound %.4fms", res.MaxLatencyMs, bound)
	}
	return nil
}
