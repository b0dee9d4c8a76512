package msgpass

import (
	"math"
	"testing"

	"ssmfp/internal/graph"
)

// TestHandleDVClampsCorruptDistances feeds node 1 of Line(3) a vector
// from neighbor 0 claiming a distance to node 2 outside [0, n] — a garbage
// frame or a neighbor starting from an arbitrary configuration — then node
// 2's honest vector. The corrupt entry must neither wrap nor go negative,
// so the honest one-hop route wins.
func TestHandleDVClampsCorruptDistances(t *testing.T) {
	for _, bad := range []int{math.MaxInt64, -5} {
		g := graph.Line(3)
		nw := New(g, Options{Seed: 1})
		n := nw.nodes[1]
		n.handleDV(0, []int{0, 1, bad})
		n.handleDV(2, []int{2, 1, 0})
		nw.tr.Close()
		if d := n.routes[2].Dist; d < 0 || d > g.N() {
			t.Errorf("claim %d: routes[2].Dist = %d, outside [0, %d]", bad, d, g.N())
		}
		if p := n.routes[2].Parent; p != 0 && p != 2 {
			t.Errorf("claim %d: routes[2].Parent = %d, not a neighbor of 1", bad, p)
		}
		if n.routes[2].Dist != 1 {
			t.Errorf("claim %d: routes[2].Dist = %d, want the honest one hop", bad, n.routes[2].Dist)
		}
	}
}
