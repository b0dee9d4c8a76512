// Package acyclic implements the second buffer-graph family the paper's
// conclusion discusses (§4): Merlin–Schweitzer's scheme based on an
// acyclic orientation cover of the network. A cover is a sequence
// ω_1..ω_k of acyclic orientations such that every routing path decomposes
// into consecutive segments, segment j descending in ω_{i_j} with
// i_1 ≤ i_2 ≤ ... Each processor then needs only k buffers — one per
// level — instead of one (or two) per destination: a message at level ℓ
// follows ω_ℓ edges and climbs to the smallest usable level when its next
// edge runs against ω_ℓ. Levels never decrease and each ω is acyclic, so
// the buffer graph is a DAG and the controller is deadlock-free.
//
// The paper's examples: a tree has a cover of size 2 (toward the root,
// away from the root), a ring one of size 3 (ascending, descending,
// ascending again for arcs that wrap the origin) — and computing the
// minimal cover size ("rank") of a general graph is NP-hard
// (Kralovic–Ruzicka), which is why this scheme "cannot be easily applied
// to any network" and the paper keeps the destination-based graph.
// Whether snap-stabilization is achievable on k ≪ 2n buffers is the
// paper's open problem; this package provides the fault-free controller
// and the buffer-economy comparison (experiment E-X4), not a stabilizing
// variant.
package acyclic

import (
	"fmt"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
)

// Orientation assigns a direction to every edge of a graph: Dir[u][v] is
// true iff the edge (u, v) is oriented u → v. Exactly one of Dir[u][v],
// Dir[v][u] holds per edge.
type Orientation struct {
	g   *graph.Graph
	dir map[[2]graph.ProcessID]bool
}

// NewOrientation builds an orientation from a comparison: edge (u, v) is
// oriented u → v iff less(u, v). less must be a strict total order on
// processors, which makes the orientation acyclic by construction.
func NewOrientation(g *graph.Graph, less func(u, v graph.ProcessID) bool) *Orientation {
	o := &Orientation{g: g, dir: make(map[[2]graph.ProcessID]bool)}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if less(u, v) {
			o.dir[[2]graph.ProcessID{u, v}] = true
		} else {
			o.dir[[2]graph.ProcessID{v, u}] = true
		}
	}
	return o
}

// Has reports whether the edge u → v exists in the orientation.
func (o *Orientation) Has(u, v graph.ProcessID) bool {
	return o.dir[[2]graph.ProcessID{u, v}]
}

// Acyclic verifies the orientation is a DAG (always true for orientations
// built by NewOrientation from a total order; exported for covers built
// by hand).
func (o *Orientation) Acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, o.g.N())
	var dfs func(u graph.ProcessID) bool
	dfs = func(u graph.ProcessID) bool {
		color[u] = gray
		for _, v := range o.g.Neighbors(u) {
			if !o.Has(u, v) {
				continue
			}
			switch color[v] {
			case gray:
				return false
			case white:
				if !dfs(v) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	for u := 0; u < o.g.N(); u++ {
		if color[u] == white && !dfs(graph.ProcessID(u)) {
			return false
		}
	}
	return true
}

// Cover is an ordered sequence of acyclic orientations.
type Cover struct {
	g            *graph.Graph
	orientations []*Orientation
}

// Size returns k, the number of orientations (= buffers per processor).
func (c *Cover) Size() int { return len(c.orientations) }

// Graph returns the covered network.
func (c *Cover) Graph() *graph.Graph { return c.g }

// Orientation returns ω_level (1-based).
func (c *Cover) Orientation(level int) *Orientation {
	return c.orientations[level-1]
}

// LevelFor returns the smallest level j ≥ from whose orientation contains
// the edge u → v, or 0 if the cover cannot carry that hop from that level.
func (c *Cover) LevelFor(from int, u, v graph.ProcessID) int {
	for j := from; j <= len(c.orientations); j++ {
		if c.orientations[j-1].Has(u, v) {
			return j
		}
	}
	return 0
}

// Levels assigns monotone levels to the hops of a path, or an error if the
// cover does not carry the path.
func (c *Cover) Levels(path []graph.ProcessID) ([]int, error) {
	if len(path) < 2 {
		return nil, nil
	}
	levels := make([]int, len(path)-1)
	level := 1
	for i := 0; i+1 < len(path); i++ {
		j := c.LevelFor(level, path[i], path[i+1])
		if j == 0 {
			return nil, fmt.Errorf("acyclic: cover of size %d cannot carry hop %d→%d of path %v",
				c.Size(), path[i], path[i+1], path)
		}
		levels[i] = j
		level = j
	}
	return levels, nil
}

// Covers reports whether every routing path of the tables is carried by
// the cover, i.e. admits a monotone level assignment.
func (c *Cover) Covers(tables []*routing.NodeState) bool {
	for p := 0; p < c.g.N(); p++ {
		for d := 0; d < c.g.N(); d++ {
			if p == d {
				continue
			}
			path := routePath(c.g, tables, graph.ProcessID(p), graph.ProcessID(d))
			if path == nil {
				return false // routing loop: no scheme covers it
			}
			if _, err := c.Levels(path); err != nil {
				return false
			}
		}
	}
	return true
}

// routePath follows the tables from p to d, returning nil on a loop.
func routePath(g *graph.Graph, tables []*routing.NodeState, p, d graph.ProcessID) []graph.ProcessID {
	path := []graph.ProcessID{p}
	for p != d {
		if len(path) > g.N() {
			return nil
		}
		p = tables[p].NextHop(d)
		path = append(path, p)
	}
	return path
}

// TreeCover returns the size-2 cover of a tree: ω_1 orients every edge
// toward the root, ω_2 away from it (any tree path climbs to the LCA and
// then descends). It panics if g is not a tree.
func TreeCover(g *graph.Graph, root graph.ProcessID) *Cover {
	if g.M() != g.N()-1 {
		panic(fmt.Sprintf("acyclic: TreeCover needs a tree, got m=%d n=%d", g.M(), g.N()))
	}
	depth := make([]int, g.N())
	for p := 0; p < g.N(); p++ {
		depth[p] = g.Dist(graph.ProcessID(p), root)
	}
	toRoot := func(u, v graph.ProcessID) bool { return depth[u] > depth[v] }
	fromRoot := func(u, v graph.ProcessID) bool { return depth[u] < depth[v] }
	return &Cover{g: g, orientations: []*Orientation{
		NewOrientation(g, toRoot),
		NewOrientation(g, fromRoot),
	}}
}

// RingCover returns the size-3 cover of a ring with identity ordering:
// ascending, descending, ascending — the paper's "3 buffers for a ring".
// The cover pairs with *clockwise* routing (ClockwiseRingTables): a
// clockwise arc is an ascending run, at most one descending wrap edge
// (n-1 → 0), and an ascending run again. This is the scheme's
// characteristic trade: k = 3 buffers per node instead of n (or 2n), paid
// for with non-minimal paths — counterclockwise shortest arcs that cross
// the cut are not carried, so all traffic goes clockwise.
func RingCover(g *graph.Graph) *Cover {
	asc := func(u, v graph.ProcessID) bool { return u < v }
	desc := func(u, v graph.ProcessID) bool { return u > v }
	return &Cover{g: g, orientations: []*Orientation{
		NewOrientation(g, asc),
		NewOrientation(g, desc),
		NewOrientation(g, asc),
	}}
}

// ClockwiseRingTables returns routing tables that send every message
// clockwise (p → p+1 mod n) on a ring — the non-minimal routing the
// 3-buffer ring cover carries. Dist entries record the clockwise arc
// length.
func ClockwiseRingTables(g *graph.Graph) []*routing.NodeState {
	n := g.N()
	tables := make([]*routing.NodeState, n)
	for p := 0; p < n; p++ {
		s := routing.NewState(n)
		for d := 0; d < n; d++ {
			if p == d {
				s.Routes[d] = routing.Route{Dist: 0, Parent: graph.ProcessID(p)}
				continue
			}
			s.Routes[d] = routing.Route{Dist: (d - p + n) % n, Parent: graph.ProcessID((p + 1) % n)}
		}
		tables[p] = s
	}
	return tables
}

// AlternatingCover builds a cover for any graph and any loop-free routing
// tables by alternating the ascending and descending orientations of the
// identity order until every routing path is carried. The resulting size
// is (number of monotone runs in the worst path), a computable upper
// bound on the NP-hard minimal rank.
func AlternatingCover(g *graph.Graph, tables []*routing.NodeState) (*Cover, error) {
	asc := NewOrientation(g, func(u, v graph.ProcessID) bool { return u < v })
	desc := NewOrientation(g, func(u, v graph.ProcessID) bool { return u > v })
	need := 1
	for p := 0; p < g.N(); p++ {
		for d := 0; d < g.N(); d++ {
			if p == d {
				continue
			}
			path := routePath(g, tables, graph.ProcessID(p), graph.ProcessID(d))
			if path == nil {
				return nil, fmt.Errorf("acyclic: routing loop on path %d→%d", p, d)
			}
			if runs := monotoneRuns(path); runs > need {
				need = runs
			}
		}
	}
	// The first run may be descending, in which case it is carried by ω_2;
	// one extra alternation covers either phase.
	k := need + 1
	orientations := make([]*Orientation, k)
	for i := range orientations {
		if i%2 == 0 {
			orientations[i] = asc
		} else {
			orientations[i] = desc
		}
	}
	return &Cover{g: g, orientations: orientations}, nil
}

// monotoneRuns counts maximal monotone (in processor ID) segments of a
// path.
func monotoneRuns(path []graph.ProcessID) int {
	if len(path) < 2 {
		return 0
	}
	runs := 1
	ascending := path[1] > path[0]
	for i := 2; i < len(path); i++ {
		a := path[i] > path[i-1]
		if a != ascending {
			runs++
			ascending = a
		}
	}
	return runs
}

// LevelBufferDAG materializes the buffer graph of the level-buffer
// controller: one node per (processor, level), an edge fb_ℓ(u) → fb_j(v)
// whenever the move rule can carry a message that way (v is some
// destination's next hop from u and j = LevelFor(ℓ, u, v)). The scheme's
// deadlock-freedom argument is that this graph is acyclic; Acyclic()
// checks it mechanically for the given tables.
type LevelBufferDAG struct {
	cover *Cover
	succ  map[[2]int][][2]int // (processor, level) -> successors
}

// NewLevelBufferDAG builds the graph for a cover and loop-free tables.
func NewLevelBufferDAG(cover *Cover, tables []*routing.NodeState) *LevelBufferDAG {
	g := cover.Graph()
	dag := &LevelBufferDAG{cover: cover, succ: make(map[[2]int][][2]int)}
	for u := 0; u < g.N(); u++ {
		for d := 0; d < g.N(); d++ {
			if u == d {
				continue
			}
			hop := tables[u].NextHop(graph.ProcessID(d))
			for l := 1; l <= cover.Size(); l++ {
				j := cover.LevelFor(l, graph.ProcessID(u), hop)
				if j == 0 {
					continue
				}
				from := [2]int{u, l}
				to := [2]int{int(hop), j}
				dag.succ[from] = append(dag.succ[from], to)
			}
		}
	}
	return dag
}

// Edges returns the number of directed edges.
func (d *LevelBufferDAG) Edges() int {
	n := 0
	for _, ss := range d.succ {
		n += len(ss)
	}
	return n
}

// Acyclic verifies the deadlock-freedom precondition: no directed cycle
// among the level buffers.
func (d *LevelBufferDAG) Acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[[2]int]int)
	var dfs func(u [2]int) bool
	dfs = func(u [2]int) bool {
		color[u] = gray
		for _, v := range d.succ[u] {
			switch color[v] {
			case gray:
				return false
			case white:
				if !dfs(v) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	g := d.cover.Graph()
	for u := 0; u < g.N(); u++ {
		for l := 1; l <= d.cover.Size(); l++ {
			node := [2]int{u, l}
			if color[node] == white && !dfs(node) {
				return false
			}
		}
	}
	return true
}
