// Package overlay implements the paper's core contribution: static
// construction of the data-dissemination overlay among rendezvous points
// (RPs) in a multi-site 3D tele-immersive session (§4).
//
// The overlay is a forest of multicast trees — one tree per subscribed
// stream, rooted at the stream's originating RP — built subject to
// per-node inbound/outbound degree limits (bandwidth, in stream units) and
// an end-to-end latency bound, minimizing the subscription rejection
// ratio. The underlying decision problem is NP-complete (Wang & Crowcroft
// 1996), so the package provides the paper's heuristics: the basic node
// join algorithm with its out-degree reservation mechanism, the tree-based
// orderings LTF / STF / MCTF, the randomized algorithm RJ, the granularity
// spectrum Gran-LTF between them, and the correlation-aware CO-RJ.
package overlay

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/workload"
)

// Request is one subscription request r_i(s_j^q): RP Node asks to receive
// Stream (originating at site Stream.Site with local index Stream.Index).
type Request struct {
	Node   int
	Stream stream.ID
}

// String renders the request in the paper's notation.
func (r Request) String() string { return fmt.Sprintf("r%d(%s)", r.Node, r.Stream) }

// Problem is one instance of the forest construction problem (§4.2).
type Problem struct {
	// In and Out are the per-RP bandwidth limits I_i and O_i, in streams.
	In, Out []int
	// Cost is the pairwise one-way latency matrix; Cost[i][j] is the cost
	// of an overlay edge from RP i to RP j.
	Cost [][]float64
	// Bcost is the upper bound on expected source-to-subscriber latency.
	Bcost float64
	// Requests is the full subscription workload, deduplicated.
	Requests []Request
	// JoinPolicy selects the parent-selection rule of the basic node
	// join algorithm. The zero value is PolicyMaxRFC (the paper's
	// load-balancing rule as described in §4.3.1); PolicyRelayFirst
	// follows the Appendix pseudocode's branch structure, which lets any
	// positive-rfc relay take precedence over the source. Exposed as a
	// problem knob for the ablation benchmarks.
	JoinPolicy JoinPolicy
	// Reservation selects how the out-degree reservation mechanism (m̂)
	// of §4.3.1 is applied; see ReservationMode. The zero value is
	// ReservationRankOnly.
	Reservation ReservationMode
}

// ReservationMode controls how the reservation counters m̂ interact with
// the basic node join algorithm. The paper's Appendix pseudocode admits
// two readings of `O_k − m̂_k − dout(k) > max` with max initialized to 0:
// either a node whose capacity is fully reserved is ineligible to relay
// (ReservationBlocking), or reservations merely rank candidates — steering
// load away from nodes with pending local sends — while any node with
// dout < O remains eligible (ReservationRankOnly). The blocking reading
// freezes almost all relaying early in a session (Σm̂ ≈ 0.85·ΣO for the
// paper's workloads) and inverts the reported STF/LTF/RJ ordering in our
// reconstruction; the rank-only reading reproduces the paper's Figure 8
// ordering, so it is the default. ReservationOff is the ablation without
// any reservation accounting.
type ReservationMode int

const (
	// ReservationRankOnly: m̂ lowers a candidate's rank but never makes
	// it ineligible (default; reproduces the paper's results).
	ReservationRankOnly ReservationMode = iota
	// ReservationBlocking: nodes with O−dout−m̂ ≤ 0 cannot serve joins,
	// except a source spending its own stream's reserved slot.
	ReservationBlocking
	// ReservationOff: m̂ is ignored entirely.
	ReservationOff
)

// String implements fmt.Stringer.
func (m ReservationMode) String() string {
	switch m {
	case ReservationRankOnly:
		return "rank-only"
	case ReservationBlocking:
		return "blocking"
	case ReservationOff:
		return "off"
	default:
		return fmt.Sprintf("ReservationMode(%d)", int(m))
	}
}

// JoinPolicy selects among parent-selection interpretations of the basic
// node join algorithm.
type JoinPolicy int

const (
	// PolicyMaxRFC picks the eligible node with maximum remaining
	// forwarding capacity, source included on equal terms (§4.3.1: "a
	// close-by node with maximum available bandwidth left").
	PolicyMaxRFC JoinPolicy = iota
	// PolicyRelayFirst mirrors the Appendix pseudocode literally: the
	// source is the fallback candidate; any non-source tree member with
	// positive rfc takes precedence, keeping source slots free.
	PolicyRelayFirst
)

// String implements fmt.Stringer.
func (p JoinPolicy) String() string {
	switch p {
	case PolicyMaxRFC:
		return "max-rfc"
	case PolicyRelayFirst:
		return "relay-first"
	default:
		return fmt.Sprintf("JoinPolicy(%d)", int(p))
	}
}

// N returns the number of RP nodes.
func (p *Problem) N() int { return len(p.In) }

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	_, err := p.validateScratch(nil)
	return err
}

// validateScratch is Validate with caller-owned duplicate-check scratch:
// the (possibly grown) buffer is returned for reuse, so per-construction
// validation — Forest.Reset runs it on every Monte-Carlo sample — stays
// allocation-free. The problem itself is only read, so concurrent
// validation of one problem from several workers remains safe as long as
// each worker passes its own scratch.
func (p *Problem) validateScratch(keys []uint64) ([]uint64, error) {
	n := p.N()
	if n < 2 {
		return keys, fmt.Errorf("overlay: %d nodes < 2", n)
	}
	if len(p.Out) != n {
		return keys, fmt.Errorf("overlay: len(Out)=%d != len(In)=%d", len(p.Out), n)
	}
	if len(p.Cost) != n {
		return keys, fmt.Errorf("overlay: cost matrix has %d rows, want %d", len(p.Cost), n)
	}
	for i := range p.Cost {
		if len(p.Cost[i]) != n {
			return keys, fmt.Errorf("overlay: cost row %d has %d cols, want %d", i, len(p.Cost[i]), n)
		}
		for j, c := range p.Cost[i] {
			if i == j {
				if c != 0 {
					return keys, fmt.Errorf("overlay: Cost[%d][%d]=%v, want 0", i, j, c)
				}
				continue
			}
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return keys, fmt.Errorf("overlay: Cost[%d][%d]=%v not a positive finite cost", i, j, c)
			}
		}
	}
	for i, v := range p.In {
		if v < 0 || p.Out[i] < 0 {
			return keys, fmt.Errorf("overlay: node %d has negative capacity (I=%d, O=%d)", i, v, p.Out[i])
		}
	}
	if p.Bcost <= 0 {
		return keys, fmt.Errorf("overlay: Bcost=%v <= 0", p.Bcost)
	}
	for _, r := range p.Requests {
		if r.Node < 0 || r.Node >= n {
			return keys, fmt.Errorf("overlay: request %v from nonexistent node", r)
		}
		if r.Stream.Site < 0 || r.Stream.Site >= n {
			return keys, fmt.Errorf("overlay: request %v for stream of nonexistent site", r)
		}
		if r.Stream.Index < 0 || r.Stream.Index >= maxStreamIndex {
			return keys, fmt.Errorf("overlay: request %v has stream index out of range", r)
		}
		if r.Stream.Site == r.Node {
			return keys, fmt.Errorf("overlay: request %v is for the node's own stream", r)
		}
	}
	// Duplicate detection: with the field bounds established above, every
	// request packs into one uint64, and a sorted scan finds duplicates
	// without the bucket allocations of the historical map fill — Validate
	// runs on every Forest.Reset, so this is a Monte-Carlo hot path.
	if n <= 1<<packSiteBits {
		keys = keys[:0]
		for _, r := range p.Requests {
			keys = append(keys, uint64(r.Stream.Site)<<(packIdxBits+packNodeBits)|
				uint64(r.Stream.Index)<<packNodeBits|uint64(r.Node))
		}
		slices.Sort(keys)
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				k := keys[i]
				r := Request{
					Node:   int(k & (1<<packNodeBits - 1)),
					Stream: stream.ID{Site: int(k >> (packIdxBits + packNodeBits)), Index: int(k >> packNodeBits & (1<<packIdxBits - 1))},
				}
				return keys, fmt.Errorf("overlay: duplicate request %v", r)
			}
		}
		return keys, nil
	}
	seen := make(map[Request]bool, len(p.Requests))
	for _, r := range p.Requests {
		if seen[r] {
			return keys, fmt.Errorf("overlay: duplicate request %v", r)
		}
		seen[r] = true
	}
	return keys, nil
}

// FromWorkload assembles a Problem from a workload sample, a pairwise cost
// matrix, and the latency bound.
func FromWorkload(w *workload.Workload, cost [][]float64, bcost float64) (*Problem, error) {
	if w == nil {
		return nil, errors.New("overlay: nil workload")
	}
	n := w.N()
	p := &Problem{
		In:    make([]int, n),
		Out:   make([]int, n),
		Cost:  cost,
		Bcost: bcost,
	}
	for i, s := range w.Sites {
		p.In[i] = s.In
		p.Out[i] = s.Out
	}
	for i, subs := range w.Subs {
		for _, id := range subs {
			p.Requests = append(p.Requests, Request{Node: i, Stream: id})
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Group is a multicast group G(s): the stream plus the RPs requesting it.
type Group struct {
	Stream  stream.ID
	Members []int // requesting nodes, sorted; excludes the source
}

// Source returns the RP originating the group's stream.
func (g Group) Source() int { return g.Stream.Site }

// Size returns |G(s)|, the number of requesting RPs.
func (g Group) Size() int { return len(g.Members) }

// Groups partitions the problem's requests into multicast groups, sorted
// by stream ID for determinism.
func (p *Problem) Groups() []Group {
	groups, _, _ := splitGroups(p.Requests, nil, nil, nil)
	return groups
}

// RequestMatrix returns u where u[i][j] is the number of requests node i
// makes for streams originating at node j (the paper's u_{i→j}).
func (p *Problem) RequestMatrix() [][]int {
	n := p.N()
	u := make([][]int, n)
	for i := range u {
		u[i] = make([]int, n)
	}
	for _, r := range p.Requests {
		u[r.Node][r.Stream.Site]++
	}
	return u
}
