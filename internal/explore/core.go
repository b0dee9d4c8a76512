package explore

import (
	"fmt"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// CoreOptions returns Options prewired for the composed SSMFP system: the
// canonical fingerprint, the safety
// invariant of Specification SP (no valid message delivered twice, no
// generated message lost, domains well-typed), and the terminal check
// (quiescent, everything generated delivered exactly once).
func CoreOptions(g *graph.Graph) Options {
	return Options{
		Fingerprint: core.Fingerprint,
		Invariant: func(cfg []sm.State, generated, delivered map[uint64]int) error {
			if err := checker.WellTyped(g, cfg); err != nil {
				return err
			}
			for uid, c := range delivered {
				if c > 1 {
					return fmt.Errorf("valid message %x delivered %d times (duplication)", uid, c)
				}
			}
			// No-loss: every generated, undelivered message occupies a buffer.
			present := make(map[uint64]bool)
			for _, s := range cfg {
				for _, ds := range s.(*core.Node).FW.Dests {
					for _, m := range []*core.Message{ds.BufR, ds.BufE} {
						if m != nil {
							present[m.UID] = true
						}
					}
				}
			}
			for uid := range generated {
				if delivered[uid] == 0 && !present[uid] {
					return fmt.Errorf("valid message %x lost: generated, undelivered, in no buffer", uid)
				}
			}
			return nil
		},
		TerminalCheck: func(cfg []sm.State, generated, delivered map[uint64]int) error {
			if !core.Quiescent(cfg) {
				return fmt.Errorf("terminal but not quiescent")
			}
			for uid := range generated {
				if delivered[uid] != 1 {
					return fmt.Errorf("terminal with message %x delivered %d times, want exactly 1", uid, delivered[uid])
				}
			}
			return nil
		},
	}
}
