package checker

import (
	"fmt"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// WellTyped verifies the domain invariants of §3.2 on a configuration:
// every buffered message has LastHop ∈ N_p ∪ {p} and Color ∈ {0..Δ},
// every fairness-queue entry is in N_p ∪ {p} with length ≤ Δ+1, and every
// routing entry has Dist ∈ [0, n] and Parent ∈ N_p ∪ {p}. The rules of
// SSMFP and A preserve these domains, so the invariant must hold at every
// step of every execution that starts well-typed — the property tests
// drive this oracle alongside the no-loss check.
func WellTyped(g *graph.Graph, cfg []sm.State) error {
	n := g.N()
	delta := g.MaxDegree()
	for pp, s := range cfg {
		p := graph.ProcessID(pp)
		node, ok := s.(*core.Node)
		if !ok {
			return fmt.Errorf("checker: state of %d is %T, not *core.Node", p, s)
		}
		for d := 0; d < n; d++ {
			r := &node.RT.Routes[d]
			if r.Dist < 0 || r.Dist > n {
				return fmt.Errorf("checker: Dist_%d(%d) = %d out of [0,%d]", p, d, r.Dist, n)
			}
			if !g.IsNeighborOrSelf(p, r.Parent) {
				return fmt.Errorf("checker: Parent_%d(%d) = %d not in N_%d ∪ {%d}", p, d, r.Parent, p, p)
			}
			ds := &node.FW.Dests[d]
			for which, m := range map[string]*core.Message{"bufR": ds.BufR, "bufE": ds.BufE} {
				if m == nil {
					continue
				}
				if !g.IsNeighborOrSelf(p, m.LastHop) {
					return fmt.Errorf("checker: %s_%d(%d) last hop %d not in N_%d ∪ {%d}",
						which, p, d, m.LastHop, p, p)
				}
				if m.Color < 0 || m.Color > delta {
					return fmt.Errorf("checker: %s_%d(%d) color %d out of {0..%d}", which, p, d, m.Color, delta)
				}
			}
			if len(ds.Queue) > delta+1 {
				return fmt.Errorf("checker: queue_%d(%d) has %d entries, bound is Δ+1 = %d",
					p, d, len(ds.Queue), delta+1)
			}
			for _, q := range ds.Queue {
				if !g.IsNeighborOrSelf(p, q) {
					return fmt.Errorf("checker: queue_%d(%d) entry %d not in N_%d ∪ {%d}", p, d, q, p, p)
				}
			}
		}
	}
	return nil
}
