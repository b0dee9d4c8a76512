package sim

import (
	"testing"
)

// TestEnginePerfIdenticalExecutions requires the incremental engine to be
// an observationally exact replacement for the naive rescan on the full
// composed protocol: same step counts, same per-rule move counts.
func TestEnginePerfIdenticalExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive in -short mode")
	}
	cells := runExp(t, "ep", 42)
	for _, c := range cells {
		if !c.Rows[0][7].(bool) { // the "identical run" column
			t.Fatalf("incremental and naive executions diverged: %v", c.Rows)
		}
	}
	if len(cells) != 6 {
		t.Fatalf("expected 6 sweep points, got %d", len(cells))
	}
}

// TestEnginePerfGridRatio pins the acceptance bar: on a 20×20 grid the
// incremental engine must do at least 3× fewer guard evaluations per step
// than the naive scan.
func TestEnginePerfGridRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive in -short mode")
	}
	c := runExp(t, "ep", 7, "grid-20x20")[0]
	if !c.Rows[0][7].(bool) {
		t.Fatalf("20x20 grid executions diverged")
	}
	if ratio := c.Measure.Extra["ratio"]; ratio < 3 {
		t.Fatalf("20x20 grid guard-eval ratio %.2f < 3x (naive %s/step, incremental %s/step)",
			ratio, c.Rows[0][3], c.Rows[0][4])
	}
}
