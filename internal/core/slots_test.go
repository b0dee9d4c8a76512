package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// TestApplyLeavesSnapshotIntact executes every enabled selection of
// corrupted configurations through the slot-scoped executor and requires
// the pre-step configuration to be unchanged: a move may share
// destinations and routing arrays with its predecessor, never write them.
func TestApplyLeavesSnapshotIntact(t *testing.T) {
	g := graph.Figure1Network()
	rules := core.FullProgram(g).Rules()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		for p := 0; p < g.N(); p += 2 {
			cfg[p].(*core.Node).FW.Enqueue(fmt.Sprintf("t%d", trial), graph.ProcessID((p+1)%g.N()))
		}
		before := core.Fingerprint(cfg)
		moved := 0
		for _, c := range sm.EnabledOf(g, rules, cfg) {
			for _, r := range c.Rules {
				sm.ApplySelection(g, rules, cfg, sm.Selection{Process: c.Process, Rule: r}, 0)
				moved++
			}
		}
		if after := core.Fingerprint(cfg); after != before {
			t.Fatalf("trial %d: executing %d selections mutated the snapshot", trial, moved)
		}
	}
}

// TestSlicedEngineGrid8x8 runs the composed program on grid-8x8 from a
// corrupted start under the synchronous daemon at 1, 2 and 4 shards, with
// the self-check comparing the sliced cache against the naive scan at
// every step. Queues of sends to distinct destinations are enqueued
// mid-run through StateOf, so an R1 move changes which destination p
// generates for next — the path where R1 re-evaluates every slot of p.
// The three executions must agree.
func TestSlicedEngineGrid8x8(t *testing.T) {
	g := graph.Grid(8, 8)
	const steps = 400
	initial := core.RandomConfig(g, rand.New(rand.NewSource(12)), core.CorruptOptions{
		BufferFill: 0.3, CorruptRouting: true, CorruptQueues: true, PhantomRequests: true,
	})
	run := func(shards int) (*sm.Engine, string) {
		cfg := make([]sm.State, g.N())
		for p, s := range initial {
			cfg[p] = s.Clone()
		}
		rng := rand.New(rand.NewSource(13))
		e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(12), cfg,
			sm.WithShards(shards, 12), sm.WithSelfCheck(true))
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
	base, baseFP := run(1)
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
	for _, shards := range []int{2, 4} {
		e, fp := run(shards)
		if e.Steps() != base.Steps() || e.Rounds() != base.Rounds() || !maps.Equal(e.MoveCounts(), base.MoveCounts()) || fp != baseFP {
			t.Fatalf("%d shards diverged from one shard", shards)
		}
		if st, bs := e.Stats(), base.Stats(); st.GuardEvals != bs.GuardEvals || st.DirtyMarks != bs.DirtyMarks {
			t.Fatalf("%d shards: guard evals %d, marks %d; one shard: %d, %d", shards, st.GuardEvals, st.DirtyMarks, bs.GuardEvals, bs.DirtyMarks)
		}
	}
}
