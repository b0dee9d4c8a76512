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
// the pre-step configuration to be unchanged: a move may share slot-table
// chunks with its predecessor, never write them. The graphs' sizes are
// not multiples of the chunk length, so the last chunk is partly used;
// corrupted routing tables enable A moves, correct ones let R1–R6 move
// everywhere, and the test requires moves of both kinds at destinations
// on both edges of a chunk and in the last one.
func TestApplyLeavesSnapshotIntact(t *testing.T) {
	const chunkLen = 4 // statemodel's slot-table chunk length
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
					sm.ApplySelection(g, rules, cfg, sm.Selection{Process: c.Process, Rule: r}, 0)
					d := rules[r].Slot - 1
					kind := rules[r].Name[:1]
					switch {
					case d == g.N()-1:
						moved[kind+"/last"] = true
					case d%chunkLen == 0:
						moved[kind+"/first"] = true
					case d%chunkLen == chunkLen-1:
						moved[kind+"/end"] = true
					}
				}
			}
			if after := core.Fingerprint(cfg); after != before {
				t.Fatalf("%v trial %d: executing the enabled selections mutated the snapshot", g, trial)
			}
		}
		for _, k := range []string{"A/first", "A/end", "A/last", "R/first", "R/end", "R/last"} {
			if !moved[k] {
				t.Errorf("%v: no %s move at a destination on the %s chunk edge", g, k[:1], k[2:])
			}
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
