// Package routing implements the self-stabilizing silent routing algorithm
// A that SSMFP assumes (§3.1 of the paper): an algorithm that computes
// routing tables, stabilizes from any initial table state, is silent (no
// action enabled after convergence), induces minimal paths, and runs
// simultaneously with SSMFP *with priority* (a processor with enabled
// actions of both always executes A's).
//
// The concrete algorithm is the classic self-stabilizing BFS distance
// vector (in the spirit of the paper's references [16, 9]): every processor
// p maintains, per destination d, a distance Dist_p(d) ∈ {0..n} and a
// parent Parent_p(d) ∈ N_p. The destination pins Dist to 0; every other
// processor corrects (Dist, Parent) to (min over neighbors of Dist_q(d)+1
// capped at n, the smallest-ID neighbor achieving the minimum). The
// canonical argmin makes the algorithm silent exactly when every table
// entry is canonical, and nextHop_p(d) = Parent_p(d) then lies on a
// minimal path. The rule has one home, Start and Route.Relax, which the
// live distance vector of internal/msgpass runs too.
package routing

import (
	"fmt"
	"math/rand"
	"slices"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// Priority is the rule priority of the routing algorithm; SSMFP must use a
// strictly larger value so that A takes precedence.
const Priority = 0

// Route is one destination's entry of a routing table.
type Route struct {
	Dist   int             // ∈ [0, n]
	Parent graph.ProcessID // ∈ N_p ∪ {p}; p itself at the destination
}

// NodeState holds one processor's routing table, a Route per destination.
type NodeState struct {
	Routes []Route

	staged *sm.Staged[Route] // set on a scratch only (Stage)
}

// NewState returns a table of n zero routes.
func NewState(n int) *NodeState {
	return &NodeState{Routes: make([]Route, n)}
}

// Clone copies the routing table; the copy shares nothing with s.
func (s *NodeState) Clone() *NodeState {
	return &NodeState{Routes: append([]Route(nil), s.Routes...)}
}

// Stage makes s a scratch of live for a move of destination d (see
// statemodel.SlotState): s reads live's table, and SetRoute on s stages
// d's entry in w, which w.Commit(live.Routes) installs.
func (s *NodeState) Stage(live *NodeState, d graph.ProcessID, w *sm.Staged[Route]) {
	w.Reset(int(d))
	*s = NodeState{Routes: live.Routes, staged: w}
}

// Route returns destination d's entry.
func (s *NodeState) Route(d graph.ProcessID) Route { return s.Routes[d] }

// SetRoute writes destination d's entry: in place, or on a scratch into
// its staged write, which panics for any destination but the move's own.
func (s *NodeState) SetRoute(d graph.ProcessID, r Route) {
	if s.staged != nil {
		s.staged.Put(int(d), r)
		return
	}
	s.Routes[d] = r
}

// NextHop returns nextHop_p(d) as read from the table. It is only
// meaningful at p ≠ d; the protocol never consults it at the destination.
func (s *NodeState) NextHop(d graph.ProcessID) graph.ProcessID { return s.Routes[d].Parent }

// Accessor extracts the routing component from a composed scenario state.
// Scenario states embed a routing NodeState next to the forwarding state;
// the rules built by NewProgram reach it through this function. A's
// actions write an entry through SetRoute, so a composed state that is a
// statemodel.SlotState stages it by giving its scratch a routing table
// made by Stage.
type Accessor func(sm.State) *NodeState

// SlotOf is the engine slot of destination d (statemodel.Rule.Slot):
// A@d lives in slot d+1, slot 0 being the whole processor.
func SlotOf(d graph.ProcessID) int { return int(d) + 1 }

// NewProgram returns the guarded-action program of A over graph g: one rule
// per destination ("A@d"), each at Priority, correcting (Dist, Parent) for
// that destination. Rules are generated per destination so the composed
// system matches the paper's "one algorithm per destination running
// simultaneously" structure; A@d reads and writes only destination d's
// entries, so it lives in slot SlotOf(d).
func NewProgram(g *graph.Graph, acc Accessor) sm.Program { return program(g, acc, false) }

// program builds A@d for every destination d; slow selects
// NewSlowProgram's one-unit distance steps.
func program(g *graph.Graph, acc Accessor, slow bool) sm.Program {
	n := g.N()
	rules := make([]sm.Rule, 0, n)
	for dd := 0; dd < n; dd++ {
		d := graph.ProcessID(dd)
		rules = append(rules, sm.Rule{
			Name:     fmt.Sprintf("A@%d", d),
			Priority: Priority,
			Slot:     SlotOf(d),
			Guard: func(v *sm.View) bool {
				return acc(v.Self()).Route(d) != target(g, v, acc, d)
			},
			Action: func(v *sm.View) {
				want := target(g, v, acc, d)
				s := acc(v.Self())
				r := s.Route(d)
				switch {
				case slow && r.Dist < want.Dist:
					want = Route{Dist: r.Dist + 1, Parent: r.Parent}
				case slow && r.Dist > want.Dist:
					want = Route{Dist: r.Dist - 1, Parent: r.Parent}
				case v.Observing() && r.Parent != want.Parent:
					v.Observe(obs.Event{Kind: obs.KindRoute, Dest: d, To: want.Parent})
				}
				s.SetRoute(d, want)
			},
		})
	}
	return sm.NewProgram(rules...)
}

// Start is the route A starts from before it has heard any neighbour:
// (0, p) at the destination, otherwise the infinite distance n through
// the first (smallest-ID) neighbour, or through p itself when p has none.
func Start(p, d graph.ProcessID, nbrs []graph.ProcessID, n int) Route {
	switch {
	case p == d:
		return Route{Dist: 0, Parent: p}
	case len(nbrs) == 0:
		return Route{Dist: n, Parent: p}
	}
	return Route{Dist: n, Parent: nbrs[0]}
}

// Relax folds neighbour q's advertised distance dq into r: dq is clamped
// into [0, n] (tolerating ill-typed corruption, so dq+1 cannot wrap),
// then one hop is added and the sum capped at n. r changes only when the
// result is strictly shorter, so over neighbours relaxed in ascending ID
// order the smallest ID wins ties. Relaxing never lowers Start's 0 at
// the destination.
func (r Route) Relax(q graph.ProcessID, dq, n int) Route {
	if c := min(min(max(dq, 0), n)+1, n); c < r.Dist {
		return Route{Dist: c, Parent: q}
	}
	return r
}

// target computes the canonical route processor v.ID() should hold for
// destination d given its neighbors' current tables.
func target(g *graph.Graph, v *sm.View, acc Accessor, d graph.ProcessID) Route {
	p, n, nbrs := v.ID(), g.N(), v.Neighbors()
	r := Start(p, d, nbrs, n)
	if p == d {
		return r
	}
	for _, q := range nbrs {
		r = r.Relax(q, acc(v.Read(q)).Route(d).Dist, n)
	}
	return r
}

// CorrectState returns the canonical stabilized routing table for processor
// p on g: true BFS distances and smallest-ID shortest-path parents.
func CorrectState(g *graph.Graph, p graph.ProcessID) *NodeState {
	n := g.N()
	s := NewState(n)
	for dd := 0; dd < n; dd++ {
		d := graph.ProcessID(dd)
		if p == d {
			s.Routes[dd] = Route{Dist: 0, Parent: p}
			continue
		}
		next := g.ShortestPathNext(p, d)
		// Neighbors() is sorted, so next[0] is the smallest ID.
		s.Routes[dd] = Route{Dist: g.Dist(p, d), Parent: next[0]}
	}
	return s
}

// Correct reports whether processor p's table equals the canonical
// stabilized table (the silent fixpoint of A).
func Correct(g *graph.Graph, p graph.ProcessID, s *NodeState) bool {
	return slices.Equal(s.Routes, CorrectState(g, p).Routes)
}

// LoopFree reports whether, for destination d, following Parent pointers
// from every processor reaches d without revisiting a processor. Corrupted
// tables typically violate this (routing cycles), which is exactly the
// hazard SSMFP tolerates.
func LoopFree(g *graph.Graph, d graph.ProcessID, tables []*NodeState) bool {
	for start := 0; start < g.N(); start++ {
		p := graph.ProcessID(start)
		seen := make(map[graph.ProcessID]bool)
		for p != d {
			if seen[p] {
				return false
			}
			seen[p] = true
			p = tables[p].NextHop(d)
		}
	}
	return true
}

// RandomState returns a well-typed but arbitrary routing table for p:
// distances uniform in [0, n], parents uniform over N_p (the paper's
// arbitrary initial configuration keeps variables in their domains).
func RandomState(g *graph.Graph, p graph.ProcessID, rng *rand.Rand) *NodeState {
	n := g.N()
	s := NewState(n)
	ns := g.Neighbors(p)
	for d := 0; d < n; d++ {
		r := &s.Routes[d]
		r.Dist = rng.Intn(n + 1)
		r.Parent = ns[rng.Intn(len(ns))]
		if graph.ProcessID(d) == p {
			// Even "arbitrary" tables keep Parent ∈ N_p ∪ {p}; give the
			// destination entry a chance to be corrupt too.
			if rng.Intn(2) == 0 {
				*r = Route{Dist: 0, Parent: p}
			}
		}
	}
	return s
}

// CycleCorrupt overwrites the tables of the endpoints of edge (u, v) so
// that, for destination d, u routes to v and v routes to u: a guaranteed
// routing loop. Dist entries are set to plausible-looking small values so
// the corruption is not trivially detectable locally.
func CycleCorrupt(g *graph.Graph, d graph.ProcessID, u, v graph.ProcessID, tables []*NodeState) {
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("routing: CycleCorrupt needs an edge (%d,%d)", u, v))
	}
	tables[u].SetRoute(d, Route{Dist: 2, Parent: v})
	tables[v].SetRoute(d, Route{Dist: 2, Parent: u})
}

// NewSlowProgram returns a deliberately slow variant of A for the R_A
// ablation (experiment E-RA): instead of jumping straight to the canonical
// value, each action moves the distance one unit toward it, and the parent
// is corrected only once the distance has settled. The variant is still
// self-stabilizing and silent — it reaches the same fixpoint as NewProgram
// — but its stabilization time R_A grows with the magnitude of the initial
// corruption, letting experiments vary the max(R_A, ·) term of the paper's
// Propositions 5-7 independently of the topology. Its rules share
// NewProgram's slots.
func NewSlowProgram(g *graph.Graph, acc Accessor) sm.Program { return program(g, acc, true) }
