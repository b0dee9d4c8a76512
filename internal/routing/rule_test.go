package routing_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// TestOverflowingNeighbourDistStaysInRange plants math.MaxInt as node 1's
// distance to node 2 on Line(3): node 0's candidate one hop more must not
// wrap. Every configuration A passes through must be well-typed, and A
// must still reach the canonical tables.
func TestOverflowingNeighbourDistStaysInRange(t *testing.T) {
	g := graph.Line(3)
	e := sm.NewEngine(g, routing.NewProgram(g, core.RoutingOf), daemon.NewSynchronous(1), core.CleanConfig(g))
	bad := e.StateOf(1).Clone().(*core.Node)
	bad.RT.SetRoute(2, routing.Route{Dist: math.MaxInt, Parent: 2})
	e.SetStateOf(1, bad)
	cfg := make([]sm.State, g.N())
	for step := 1; e.Step(); step++ {
		for p := range cfg {
			cfg[p] = e.StateOf(graph.ProcessID(p))
		}
		if err := checker.WellTyped(g, cfg); err != nil || step > 100 {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for p := range cfg {
		if !routing.Correct(g, graph.ProcessID(p), core.RoutingOf(e.StateOf(graph.ProcessID(p)))) {
			t.Errorf("processor %d did not reach its canonical table", p)
		}
	}
}

// referenceRoute is A's rule written out by brute force: the smallest
// candidate min(max(dq, 0), n)+1 capped at n over every neighbour, the
// smallest ID among the neighbours achieving it, and the start route
// when no candidate beats the infinite distance n.
func referenceRoute(p, d graph.ProcessID, nbrs []graph.ProcessID, dists []int, n int) routing.Route {
	if p == d {
		return routing.Route{Dist: 0, Parent: p}
	}
	cands := make([]int, len(nbrs))
	best := n
	for i, dq := range dists {
		cands[i] = min(n, 1+min(n, max(0, dq)))
		best = min(best, cands[i])
	}
	for i, q := range nbrs { // ascending IDs: the first is the smallest
		if cands[i] == best && best < n {
			return routing.Route{Dist: best, Parent: q}
		}
	}
	if len(nbrs) == 0 {
		return routing.Route{Dist: n, Parent: p}
	}
	return routing.Route{Dist: n, Parent: nbrs[0]}
}

// FuzzRelax checks A's rule (Start, then Relax over the neighbours in
// ascending ID order) against referenceRoute. size picks n in [2, 16],
// mask the neighbours of p, and raw one little-endian int64 distance per
// neighbour (0 once it runs out), so negative distances and math.MaxInt
// are reachable. Relaxing runs at the destination too, where it must keep
// Start's (0, p). Seeds: testdata/fuzz/FuzzRelax.
func FuzzRelax(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, pp, dd uint8, mask uint16, raw []byte) {
		n := 2 + int(size)%15
		p, d := graph.ProcessID(int(pp)%n), graph.ProcessID(int(dd)%n)
		var nbrs []graph.ProcessID
		var dists []int
		for q := range graph.ProcessID(n) {
			if q == p || mask&(1<<q) == 0 {
				continue
			}
			dist := 0
			if i := 8 * len(nbrs); i+8 <= len(raw) {
				dist = int(int64(binary.LittleEndian.Uint64(raw[i:])))
			}
			nbrs = append(nbrs, q)
			dists = append(dists, dist)
		}
		got := routing.Start(p, d, nbrs, n)
		for i, q := range nbrs {
			got = got.Relax(q, dists[i], n)
		}
		inDomain := got.Parent == p || slices.Contains(nbrs, got.Parent)
		if got.Dist < 0 || got.Dist > n || !inDomain {
			t.Fatalf("route %+v outside [0, %d] × N_%d %v ∪ {%d}", got, n, p, nbrs, p)
		}
		if want := referenceRoute(p, d, nbrs, dists, n); got != want {
			t.Fatalf("p=%d d=%d n=%d nbrs=%v dists=%v: rule gives %+v, reference %+v", p, d, n, nbrs, dists, got, want)
		}
	})
}
