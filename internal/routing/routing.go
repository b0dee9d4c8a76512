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
// minimal path.
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

// NodeState holds one processor's routing table: Dist and Parent indexed by
// destination. At the destination itself Parent is the processor's own ID.
type NodeState struct {
	Dist   []int             // Dist[d] ∈ [0, n]
	Parent []graph.ProcessID // Parent[d] ∈ N_p ∪ {p}
}

// Clone deep-copies the routing table.
func (s *NodeState) Clone() *NodeState {
	return &NodeState{
		Dist:   append([]int(nil), s.Dist...),
		Parent: append([]graph.ProcessID(nil), s.Parent...),
	}
}

// NextHop returns nextHop_p(d) as read from the table. It is only
// meaningful at p ≠ d; the protocol never consults it at the destination.
func (s *NodeState) NextHop(d graph.ProcessID) graph.ProcessID { return s.Parent[d] }

// set writes destination d's entry into fresh copies of Dist and Parent:
// A never writes the arrays in place.
func (s *NodeState) set(d graph.ProcessID, dist int, parent graph.ProcessID) {
	s.Dist, s.Parent = slices.Clone(s.Dist), slices.Clone(s.Parent)
	s.Dist[d], s.Parent[d] = dist, parent
}

// Accessor extracts the routing component from a composed scenario state.
// Scenario states embed a routing NodeState next to the forwarding state;
// the rules built by NewProgram reach it through this function. A's
// actions replace the table's Dist and Parent arrays instead of writing
// them, so a slot-scoped copy of the composed state
// (statemodel.SlotState) must own the NodeState struct but may share
// its arrays.
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
func NewProgram(g *graph.Graph, acc Accessor) sm.Program {
	n := g.N()
	rules := make([]sm.Rule, 0, n)
	for dd := 0; dd < n; dd++ {
		d := graph.ProcessID(dd)
		rules = append(rules, sm.Rule{
			Name:     fmt.Sprintf("A@%d", d),
			Priority: Priority,
			Slot:     SlotOf(d),
			Guard: func(v *sm.View) bool {
				wantDist, wantParent := target(g, v, acc, d)
				s := acc(v.Self())
				return s.Dist[d] != wantDist || s.Parent[d] != wantParent
			},
			Action: func(v *sm.View) {
				wantDist, wantParent := target(g, v, acc, d)
				s := acc(v.Self())
				if v.Observing() && s.Parent[d] != wantParent {
					v.Observe(obs.Event{Kind: obs.KindRoute, Dest: d, To: wantParent})
				}
				s.set(d, wantDist, wantParent)
			},
		})
	}
	return sm.NewProgram(rules...)
}

// target computes the canonical (Dist, Parent) pair processor v.ID() should
// hold for destination d given its neighbors' current tables.
func target(g *graph.Graph, v *sm.View, acc Accessor, d graph.ProcessID) (int, graph.ProcessID) {
	p := v.ID()
	if p == d {
		return 0, p
	}
	n := g.N()
	bestDist := n
	bestParent := v.Neighbors()[0] // neighbors are sorted: first min is the smallest ID
	for _, q := range v.Neighbors() {
		dq := acc(v.Read(q)).Dist[d]
		if dq < 0 {
			dq = 0 // tolerate ill-typed corruption
		}
		cand := dq + 1
		if cand > n {
			cand = n
		}
		if cand < bestDist {
			bestDist, bestParent = cand, q
		}
	}
	return bestDist, bestParent
}

// CorrectState returns the canonical stabilized routing table for processor
// p on g: true BFS distances and smallest-ID shortest-path parents.
func CorrectState(g *graph.Graph, p graph.ProcessID) *NodeState {
	n := g.N()
	s := &NodeState{Dist: make([]int, n), Parent: make([]graph.ProcessID, n)}
	for dd := 0; dd < n; dd++ {
		d := graph.ProcessID(dd)
		if p == d {
			s.Dist[d] = 0
			s.Parent[d] = p
			continue
		}
		s.Dist[d] = g.Dist(p, d)
		next := g.ShortestPathNext(p, d)
		s.Parent[d] = next[0] // Neighbors() is sorted, so next[0] is the smallest ID
	}
	return s
}

// Correct reports whether processor p's table equals the canonical
// stabilized table (the silent fixpoint of A).
func Correct(g *graph.Graph, p graph.ProcessID, s *NodeState) bool {
	want := CorrectState(g, p)
	for d := 0; d < g.N(); d++ {
		if s.Dist[d] != want.Dist[d] || s.Parent[d] != want.Parent[d] {
			return false
		}
	}
	return true
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
			p = tables[p].Parent[d]
		}
	}
	return true
}

// RandomState returns a well-typed but arbitrary routing table for p:
// distances uniform in [0, n], parents uniform over N_p (the paper's
// arbitrary initial configuration keeps variables in their domains).
func RandomState(g *graph.Graph, p graph.ProcessID, rng *rand.Rand) *NodeState {
	n := g.N()
	s := &NodeState{Dist: make([]int, n), Parent: make([]graph.ProcessID, n)}
	ns := g.Neighbors(p)
	for d := 0; d < n; d++ {
		s.Dist[d] = rng.Intn(n + 1)
		s.Parent[d] = ns[rng.Intn(len(ns))]
		if graph.ProcessID(d) == p {
			// Even "arbitrary" tables keep Parent ∈ N_p ∪ {p}; give the
			// destination entry a chance to be corrupt too.
			if rng.Intn(2) == 0 {
				s.Dist[d] = 0
				s.Parent[d] = p
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
	tables[u].Parent[d] = v
	tables[u].Dist[d] = 2
	tables[v].Parent[d] = u
	tables[v].Dist[d] = 2
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
func NewSlowProgram(g *graph.Graph, acc Accessor) sm.Program {
	n := g.N()
	rules := make([]sm.Rule, 0, n)
	for dd := 0; dd < n; dd++ {
		d := graph.ProcessID(dd)
		rules = append(rules, sm.Rule{
			Name:     fmt.Sprintf("A@%d", d),
			Priority: Priority,
			Slot:     SlotOf(d),
			Guard: func(v *sm.View) bool {
				wantDist, wantParent := target(g, v, acc, d)
				s := acc(v.Self())
				return s.Dist[d] != wantDist || s.Parent[d] != wantParent
			},
			Action: func(v *sm.View) {
				wantDist, wantParent := target(g, v, acc, d)
				s := acc(v.Self())
				switch {
				case s.Dist[d] < wantDist:
					s.set(d, s.Dist[d]+1, s.Parent[d])
				case s.Dist[d] > wantDist:
					s.set(d, s.Dist[d]-1, s.Parent[d])
				default:
					if v.Observing() && s.Parent[d] != wantParent {
						v.Observe(obs.Event{Kind: obs.KindRoute, Dest: d, To: wantParent})
					}
					s.set(d, s.Dist[d], wantParent)
				}
			},
		})
	}
	return sm.NewProgram(rules...)
}
