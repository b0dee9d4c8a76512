package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

func newTrackedWithPolicy(g *graph.Graph, policy core.ChoicePolicy, d sm.Daemon, cfg []sm.State) (*sm.Engine, *checker.Tracker) {
	e := sm.NewEngine(g, core.FullProgramWithPolicy(g, policy), d, cfg)
	tr := checker.New(g)
	tr.Attach(e)
	return e, tr
}

// drainBufR empties p's reception buffer for destination p, as R2 would,
// through SetDest so that earlier configurations stay intact.
func drainBufR(e *sm.Engine, p graph.ProcessID) {
	fw := e.StateOf(p).(*core.Node).FW
	ds := *fw.Dest(p)
	ds.BufR = nil
	fw.SetDest(p, ds)
}

func TestPolicyStrings(t *testing.T) {
	if core.PolicyQueue.String() != "fifo-queue" ||
		core.PolicyLowestID.String() != "lowest-id" ||
		core.PolicyRotating.String() != "rotating" ||
		core.ChoicePolicy(9).String() != "unknown-policy" {
		t.Fatal("policy names wrong")
	}
	for _, p := range []core.ChoicePolicy{core.PolicyQueue, core.PolicyLowestID, core.PolicyRotating} {
		if got, err := core.ParsePolicy(p.String()); err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := core.ParsePolicy("unknown-policy"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

func TestRotatingPolicySnapStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(4+rng.Intn(5), 12, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		want := 0
		for k := 0; k < 5; k++ {
			inject(cfg, graph.ProcessID(rng.Intn(g.N())), fmt.Sprintf("rot-%d", k), graph.ProcessID(rng.Intn(g.N())))
			want++
		}
		e, tr := newTrackedWithPolicy(g, core.PolicyRotating, daemon.NewCentralRandom(rng.Int63()), cfg)
		runToTerminal(t, e, 4_000_000)
		assertSP(t, tr, want)
	}
}

func TestRotatingPolicyServesRoundRobin(t *testing.T) {
	// Star center pulling from three loaded leaves: rotating must cycle
	// 1, 2, 3, 1, ... regardless of who was served before.
	g := graph.Star(4)
	cfg := core.CleanConfig(g)
	for _, leaf := range []graph.ProcessID{1, 2, 3} {
		cfg[leaf].(*core.Node).FW.Dest(0).BufE = &core.Message{
			Payload: fmt.Sprintf("L%d", leaf), LastHop: leaf, Color: 0,
			UID: uint64(leaf), Valid: true, Dest: 0,
		}
	}
	prog := sm.NewProgram(core.DestRulesForTest(0, core.PolicyRotating)[2]) // R3@0 only
	e := sm.NewEngine(g, prog, syncOnly{}, cfg)

	var served []graph.ProcessID
	for i := 0; i < 6; i++ {
		e.Step()
		m := e.StateOf(0).(*core.Node).FW.Dest(0).BufR
		if m == nil {
			t.Fatal("pull failed")
		}
		served = append(served, m.LastHop)
		drainBufR(e, 0) // for the next pull
	}
	want := []graph.ProcessID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("rotation order = %v, want %v", served, want)
		}
	}
}

func TestLowestIDPolicyPassesWaitingCandidates(t *testing.T) {
	// Same setup; lowest-id must serve leaf 1 forever while it stays a
	// candidate — the unfairness the paper's queue exists to prevent.
	g := graph.Star(4)
	cfg := core.CleanConfig(g)
	for _, leaf := range []graph.ProcessID{1, 2, 3} {
		cfg[leaf].(*core.Node).FW.Dest(0).BufE = &core.Message{
			Payload: fmt.Sprintf("L%d", leaf), LastHop: leaf, Color: 0,
			UID: uint64(leaf), Valid: true, Dest: 0,
		}
	}
	prog := sm.NewProgram(core.DestRulesForTest(0, core.PolicyLowestID)[2])
	e := sm.NewEngine(g, prog, syncOnly{}, cfg)
	for i := 0; i < 5; i++ {
		e.Step()
		m := e.StateOf(0).(*core.Node).FW.Dest(0).BufR
		if m.LastHop != 1 {
			t.Fatalf("lowest-id served %d, want 1 every time", m.LastHop)
		}
		drainBufR(e, 0)
	}
}

// syncOnly activates every enabled processor with its first rule (local
// copy for the external test package).
type syncOnly struct{}

func (syncOnly) Name() string { return "sync-only" }
func (syncOnly) Select(step int, enabled []sm.Choice) []sm.Selection {
	out := make([]sm.Selection, len(enabled))
	for i, c := range enabled {
		out[i] = sm.Selection{Process: c.Process, Rule: c.Rules[0]}
	}
	return out
}
