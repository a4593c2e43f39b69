// Package exact finds the optimal dissemination forest for tiny problem
// instances by exhaustive search. The forest construction problem is
// NP-complete (§4.2), so this solver exists purely as a reference: the
// test suite uses it to measure how far the paper's heuristics sit from
// the optimum on instances small enough to enumerate.
package exact

import (
	"errors"
	"math"

	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/stream"
)

// MaxRequests bounds the instance size the solver accepts; beyond this
// the search space explodes.
const MaxRequests = 12

// ErrTooLarge is returned for instances exceeding MaxRequests.
var ErrTooLarge = errors.New("exact: instance too large for exhaustive search")

// ErrBudget is returned when the search exceeds its work budget.
var ErrBudget = errors.New("exact: work budget exhausted")

// Result carries the optimum.
type Result struct {
	// MaxAccepted is the maximum number of satisfiable requests.
	MaxAccepted int
	// Parents maps each accepted request to its tree parent.
	Parents map[overlay.Request]int
}

// assignment is the per-request decision: reject (-1) or a parent node.
type solver struct {
	p        *overlay.Problem
	requests []overlay.Request
	members  map[stream.ID][]int // group members per stream
	choice   []int               // current assignment, -1 = reject
	din      []int
	dout     []int
	best     int
	bestSol  []int
	work     int
	budget   int
}

// Solve exhaustively searches for the forest maximizing accepted
// requests. Instances must have at most MaxRequests requests.
func Solve(p *overlay.Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Requests) > MaxRequests {
		return nil, ErrTooLarge
	}
	s := &solver{
		p:       p,
		members: make(map[stream.ID][]int),
		choice:  make([]int, len(p.Requests)),
		din:     make([]int, p.N()),
		dout:    make([]int, p.N()),
		best:    -1,
		budget:  20_000_000,
	}
	// Group requests by stream so parent candidates are cheap to list.
	for _, g := range p.Groups() {
		s.members[g.Stream] = g.Members
	}
	s.requests = append(s.requests, p.Requests...)
	if err := s.dfs(0, 0); err != nil {
		return nil, err
	}
	res := &Result{MaxAccepted: s.best, Parents: make(map[overlay.Request]int)}
	for k, c := range s.bestSol {
		if c >= 0 {
			res.Parents[s.requests[k]] = c
		}
	}
	return res, nil
}

// dfs assigns request k. accepted counts the accepted requests so far.
func (s *solver) dfs(k, accepted int) error {
	s.work++
	if s.work > s.budget {
		return ErrBudget
	}
	// Bound: even accepting everything left cannot beat the best.
	if accepted+(len(s.requests)-k) <= s.best {
		return nil
	}
	if k == len(s.requests) {
		if !s.feasible() {
			return nil
		}
		if accepted > s.best {
			s.best = accepted
			s.bestSol = append(s.bestSol[:0], s.choice...)
		}
		return nil
	}
	r := s.requests[k]
	// Try parents: the source plus every other group member (membership
	// of the parent is verified in the final feasibility pass).
	candidates := make([]int, 0, len(s.members[r.Stream])+1)
	candidates = append(candidates, r.Stream.Site)
	for _, m := range s.members[r.Stream] {
		if m != r.Node {
			candidates = append(candidates, m)
		}
	}
	for _, parent := range candidates {
		if s.dout[parent] >= s.p.Out[parent] || s.din[r.Node] >= s.p.In[r.Node] {
			continue
		}
		if s.p.Cost[parent][r.Node] >= s.p.Bcost {
			continue // even the single edge exceeds the bound
		}
		s.choice[k] = parent
		s.dout[parent]++
		s.din[r.Node]++
		err := s.dfs(k+1, accepted+1)
		s.dout[parent]--
		s.din[r.Node]--
		if err != nil {
			return err
		}
	}
	// Reject branch.
	s.choice[k] = -1
	return s.dfs(k+1, accepted)
}

// feasible verifies the completed assignment: within every stream's
// accepted member set the parent edges must form a tree rooted at the
// source with all path costs under the bound, and every non-source parent
// must itself be an accepted member.
func (s *solver) feasible() bool {
	type node struct {
		parent int
		ok     bool
	}
	byStream := make(map[stream.ID]map[int]node)
	for k, c := range s.choice {
		if c < 0 {
			continue
		}
		r := s.requests[k]
		m, okS := byStream[r.Stream]
		if !okS {
			m = make(map[int]node)
			byStream[r.Stream] = m
		}
		m[r.Node] = node{parent: c}
	}
	for id, m := range byStream {
		src := id.Site
		for child := range m {
			// Walk to the source accumulating cost.
			cost := 0.0
			cur := child
			steps := 0
			for cur != src {
				nd, ok := m[cur]
				if !ok {
					return false // parent chain leaves the accepted set
				}
				if nd.parent != src {
					if _, ok := m[nd.parent]; !ok {
						return false // parent not an accepted member
					}
				}
				cost += s.p.Cost[nd.parent][cur]
				cur = nd.parent
				steps++
				if steps > len(m)+1 {
					return false // cycle
				}
			}
			if cost >= s.p.Bcost {
				return false
			}
		}
	}
	return true
}

// Gap reports the heuristic's acceptance shortfall versus the optimum as
// a fraction of total requests; 0 means the heuristic matched the optimum.
func Gap(p *overlay.Problem, heuristicAccepted int, res *Result) float64 {
	if len(p.Requests) == 0 {
		return 0
	}
	return math.Max(0, float64(res.MaxAccepted-heuristicAccepted)) / float64(len(p.Requests))
}
