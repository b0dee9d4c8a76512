package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// TestApplyLeavesSnapshotIntact executes every enabled selection of
// corrupted configurations through ApplySelection, which stages the
// move's write and commits it onto a clone, and requires the pre-step
// configuration to be unchanged and every successor to be a state of its
// own. Corrupted routing tables enable A moves, correct ones let R1–R6
// move everywhere; the test requires moves of both kinds, at the first
// and the last destination too.
func TestApplyLeavesSnapshotIntact(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Figure1Network(), graph.Grid(3, 3), graph.Ring(7)} {
		rules := core.FullProgram(g).Rules()
		rng := rand.New(rand.NewSource(3))
		moved := map[string]bool{} // kind/edge of the destinations moved
		for trial := 0; trial < 20; trial++ {
			opts := core.DefaultCorrupt
			opts.CorruptRouting = trial%2 == 0
			cfg := core.RandomConfig(g, rng, opts)
			for p := 0; p < g.N(); p += 2 {
				cfg[p].(*core.Node).FW.Enqueue(fmt.Sprintf("t%d", trial), graph.ProcessID((p+1)%g.N()))
			}
			before := core.Fingerprint(cfg)
			for _, c := range sm.EnabledOf(g, rules, cfg) {
				for _, r := range c.Rules {
					succ, _ := sm.ApplySelection(g, rules, cfg, sm.Selection{Process: c.Process, Rule: r}, 0)
					if succ == cfg[c.Process] {
						t.Fatalf("%v trial %d: %s at %d returned the pre-step state itself", g, trial, rules[r].Name, c.Process)
					}
					kind := rules[r].Name[:1]
					moved[kind] = true
					switch rules[r].Slot - 1 {
					case 0:
						moved[kind+"/first"] = true
					case g.N() - 1:
						moved[kind+"/last"] = true
					}
				}
			}
			if after := core.Fingerprint(cfg); after != before {
				t.Fatalf("%v trial %d: executing the enabled selections mutated the snapshot", g, trial)
			}
		}
		for _, k := range []string{"A/first", "A/last", "R/first", "R/last"} {
			if !moved[k] {
				t.Errorf("%v: no %s move at the %s destination", g, k[:1], k[2:])
			}
		}
	}
}

// TestStepsWriteStatesInPlace steps the corrupted grid-8x8 under the
// synchronous daemon and requires every processor to keep its state
// object: each move of the composed program is slotted, so the step
// commits its staged write into the live state, and a run keeps no
// versions of its configurations.
func TestStepsWriteStatesInPlace(t *testing.T) {
	g, cfg := corruptGrid(3)
	initial := slices.Clone(cfg)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(3), cfg)
	e.Run(300, nil)
	if moves := e.TotalMoves(); moves < 3000 {
		t.Fatalf("only %d moves in %d steps: the run is too idle to show anything", moves, e.Steps())
	}
	for p, s := range initial {
		if e.PeekStateOf(graph.ProcessID(p)) != s {
			t.Fatalf("processor %d's state was replaced, not written in place", p)
		}
	}
}

// TestSlicedEngineGrid8x8 runs the composed program on grid-8x8 from a
// corrupted start under the synchronous daemon, with the self-check
// comparing the sliced cache against the naive scan at every step.
// Queues of sends to distinct destinations are enqueued mid-run through
// StateOf, so an R1 move changes which destination p generates for
// next — the path where R1 re-evaluates every slot of p. The same run
// without the self-check must execute identically and report the same
// guard evaluations and marks: the self-check's sweeps count as no work.
func TestSlicedEngineGrid8x8(t *testing.T) {
	g := graph.Grid(8, 8)
	const steps = 400
	initial := core.RandomConfig(g, rand.New(rand.NewSource(12)), core.CorruptOptions{
		BufferFill: 0.3, CorruptRouting: true, CorruptQueues: true, PhantomRequests: true,
	})
	run := func(selfCheck bool) (*sm.Engine, string) {
		cfg := make([]sm.State, g.N())
		for p, s := range initial {
			cfg[p] = s.Clone()
		}
		rng := rand.New(rand.NewSource(13))
		e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(12), cfg,
			sm.WithSelfCheck(selfCheck))
		for e.Steps() < steps {
			if s := e.Steps(); s%40 == 20 {
				for k := 0; k < 3; k++ {
					src := rng.Intn(g.N())
					fw := e.StateOf(graph.ProcessID(src)).(*core.Node).FW
					for j := 0; j < 3; j++ { // a queue of distinct destinations
						fw.Enqueue(fmt.Sprintf("s%d.%d.%d", s, k, j), graph.ProcessID((src+17+5*j)%g.N()))
					}
				}
			}
			if !e.Step() {
				break
			}
		}
		cfg = make([]sm.State, g.N())
		for p := range cfg {
			cfg[p] = e.PeekStateOf(graph.ProcessID(p))
		}
		return e, core.Fingerprint(cfg)
	}
	base, baseFP := run(true)
	if st := base.Stats(); st.SelfChecks < st.Steps {
		t.Fatalf("self-check ran %d times over %d steps", st.SelfChecks, st.Steps)
	}
	gen := 0
	for name, c := range base.MoveCounts() {
		if len(name) > 2 && name[:3] == "R1@" {
			gen += c
		}
	}
	if gen == 0 {
		t.Fatal("no R1 move: the mid-run sends never generated")
	}
	e, fp := run(false)
	if e.Steps() != base.Steps() || e.Rounds() != base.Rounds() || !maps.Equal(e.MoveCounts(), base.MoveCounts()) || fp != baseFP {
		t.Fatal("the unchecked run diverged from the self-checked one")
	}
	if st, bs := e.Stats(), base.Stats(); st.GuardEvals != bs.GuardEvals || st.ProcsEvaluated != bs.ProcsEvaluated || st.SelfChecks != 0 {
		t.Fatalf("unchecked: guard evals %d, procs evaluated %d, self-checks %d; checked: %d, %d", st.GuardEvals, st.ProcsEvaluated, st.SelfChecks, bs.GuardEvals, bs.ProcsEvaluated)
	}
}
