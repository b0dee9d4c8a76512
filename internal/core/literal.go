package core

import (
	"ssmfp/internal/graph"
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
	return sm.Compose(routingProgram(g), program(g, PolicyQueue, true))
}
