package harness

import (
	"slices"
	"testing"

	"ssmfp/internal/spec/spectest"
)

// TestVerdict replays the shared judge table through Judge: each send
// goes into the report of its source, each delivery into the report of
// the node that made it, and the plan's shares are the sends per node.
// Judge voids no message and judges a clean start, so the voided case
// and the cases with another invalid-delivery bound are not its to run.
func TestVerdict(t *testing.T) {
	for _, c := range spectest.Cases {
		t.Run(c.Name, func(t *testing.T) {
			if len(c.Void) > 0 || c.Bound != 0 {
				t.Skip("Judge voids no message and allows no invalid delivery")
			}
			reports := make([]Report, spectest.N)
			shares := make(map[int]int)
			for i := range reports {
				reports[i].ID = i
			}
			for _, s := range c.Sent {
				src := (int(s.Dst) + 1) % spectest.N // any node but the destination
				reports[src].Sent = append(reports[src].Sent, s)
				shares[src]++
			}
			for _, d := range c.Delivered {
				reports[d.At].Delivered = append(reports[d.At].Delivered, d)
			}
			if got := Judge(reports, shares); !slices.Equal(got, c.Want) {
				t.Fatalf("violations %q, want %q", got, c.Want)
			}
		})
	}
}
