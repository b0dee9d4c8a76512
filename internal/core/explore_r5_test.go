package core_test

import (
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
)

// TestExhaustiveLiteralR5FindsTheLoss runs the exhaustive explorer against
// the composed system with R5 exactly as Algorithm 1 prints it (no q ≠ p
// restriction) on the collision scenario of the reproduction finding. The
// explorer must find a schedule that loses the freshly generated valid
// message — demonstrating both that the literal rule is unsound and that
// the model checker is strong enough to catch it. The fixed rule passes
// the same exploration (TestExhaustiveR5RegressionScenario in
// internal/explore).
func TestExhaustiveLiteralR5FindsTheLoss(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{
		Payload: "x", LastHop: 0, Color: 0, UID: 1 << 51, Src: 0, Dest: 2, Valid: false,
	}
	cfg[0].(*core.Node).FW.Enqueue("x", 2)

	r := explore.Explore(g, core.LiteralR5Program(g), cfg, explore.CoreOptions(g))
	if r.InvariantErr == nil {
		t.Fatalf("the literal R5 should lose the message under some schedule: %s", r)
	}
	if !strings.Contains(r.InvariantErr.Error(), "lost") {
		t.Fatalf("expected a loss, got: %v", r.InvariantErr)
	}
	if len(r.Witness) == 0 {
		t.Fatal("counterexample witness missing")
	}
	t.Logf("literal R5 loss found after %d states: %v\n  schedule: %v", r.States, r.InvariantErr, r.Witness)
}
