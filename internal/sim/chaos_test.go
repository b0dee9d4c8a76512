package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/faults"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// TestChaosEverythingAtOnce is the integrative stress test: a corrupted
// 4×4 grid under the distributed daemon with the rotating choice policy,
// traffic dripping in throughout, transient fault strikes between waves,
// the well-typedness invariant probed continuously, and the full SP oracle
// at the end. Every adversarial knob the repository has, turned at once.
func TestChaosEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const seed = 1337
	rng := rand.New(rand.NewSource(seed))
	g := graph.Grid(4, 4)
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	e := sm.NewEngine(g, core.FullProgramWithPolicy(g, core.PolicyRotating),
		NewDaemon(Distributed, seed, g.N()), cfg)
	tr := checker.New(g)
	tr.Attach(e)
	injector := faults.NewInjector(g, seed, nil)

	w := workload.HotSpot(g, 0, 1, rng)
	in := workload.NewInjector(w.Staggered(9),
		func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })

	snapshot := func() []sm.State {
		out := make([]sm.State, g.N())
		for p := 0; p < g.N(); p++ {
			out[p] = e.StateOf(graph.ProcessID(p))
		}
		return out
	}

	strikes := 0
	for i := 0; i < 8_000_000; i++ {
		in.Tick(e)
		if i > 0 && i%120 == 0 && strikes < 5 {
			tr.MarkCompromised(faults.InFlightValid(e, g)...)
			tr.MarkCompromised(injector.Strike(e, 3)...)
			faults.RearmRequests(e, g)
			strikes++
		}
		if i%128 == 0 {
			if err := checker.WellTyped(g, snapshot()); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if !e.Step() {
			if in.Done() {
				break
			}
			in.SkipWait(e)
		}
	}
	if !e.Terminal() {
		t.Fatal("chaos run did not quiesce")
	}
	if v := tr.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if !tr.AllValidDelivered() {
		t.Fatalf("undelivered non-compromised messages: %v", tr.UndeliveredValid())
	}
	if strikes < 3 || tr.Compromised() == 0 {
		t.Fatal("chaos should have struck and compromised something")
	}
	// Post-chaos epilogue: one more guaranteed wave on the battered system.
	for k := 0; k < 6; k++ {
		src := graph.ProcessID(rng.Intn(g.N()))
		dst := graph.ProcessID(rng.Intn(g.N()))
		e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("epilogue-%d", k), dst)
	}
	if _, terminal := e.Run(4_000_000, nil); !terminal {
		t.Fatal("epilogue did not quiesce")
	}
	if v := tr.Violations(); len(v) > 0 || !tr.AllValidDelivered() {
		t.Fatalf("epilogue failed: violations=%v undelivered=%v", v, tr.UndeliveredValid())
	}
	t.Logf("chaos: %d steps, %d strikes, %d compromised, %d generated, %d invalid surfaced",
		e.Steps(), strikes, tr.Compromised(), tr.GeneratedCount(), tr.InvalidDeliveredTotal())
}
