package core

import (
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// LiteralR5Program builds the composed system with rule R5 exactly as
// Algorithm 1 prints it — WITHOUT the q ≠ p restriction this reproduction
// derives from the paper's prose (see the comment on R5 in destRules and
// EXPERIMENTS.md, "Reproduction findings"). It exists as an executable
// record of the finding: under the literal rule, a freshly generated
// message (m, p, 0) in bufR_p is erased whenever the processor's own
// bufE_p holds an invalid message with the same payload and color 0, and
// both the exhaustive model checker (cmd/ssmfp-check -scenario r5-literal)
// and the randomized tests exhibit the resulting loss. Never use this
// program for anything but demonstrating the defect.
func LiteralR5Program(g *graph.Graph) sm.Program {
	var rules []sm.Rule
	for dd := 0; dd < g.N(); dd++ {
		d := graph.ProcessID(dd)
		dr := destRules(d, PolicyQueue)
		ds := func(v *sm.View) *DestState { return v.Self().(*Node).FW.Dests[d] }
		peer := func(v *sm.View, q graph.ProcessID) *Node {
			if q == v.ID() {
				return v.Self().(*Node)
			}
			return v.Read(q).(*Node)
		}
		// Replace R5 (index 4 in the R1..R6 listing) with the literal rule,
		// which like the derived one reads and writes only destination d.
		dr[4] = sm.Rule{
			Name:     RuleName("R5", d),
			Priority: PriorityForwarding,
			Slot:     routing.SlotOf(d),
			Guard: func(v *sm.View) bool {
				s := ds(v)
				if s.BufR == nil {
					return false
				}
				q := s.BufR.LastHop // literal: q = p is NOT excluded
				origin := peer(v, q)
				return origin.FW.Dests[d].BufE.SameMC(s.BufR) && origin.RT.NextHop(d) != v.ID()
			},
			Action: func(v *sm.View) { ds(v).BufR = nil },
		}
		rules = append(rules, dr...)
	}
	return sm.Compose(routingProgram(g), sm.NewProgram(rules...))
}
