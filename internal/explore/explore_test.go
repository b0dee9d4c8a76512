package explore_test

import (
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

func enqueue(cfg []sm.State, src graph.ProcessID, payload string, dst graph.ProcessID) {
	cfg[src].(*core.Node).FW.Enqueue(payload, dst)
}

// TestExhaustiveSingleMessageCleanLine model-checks one message over a
// clean 3-processor line: every central schedule satisfies SP, every
// terminal is quiescent with the message delivered exactly once, and a
// terminal is reachable from every state.
func TestExhaustiveSingleMessageCleanLine(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	enqueue(cfg, 0, "m", 2)
	r := explore.Explore(g, core.FullProgram(g), cfg, explore.CoreOptions(g))
	if !r.OK() {
		t.Fatalf("exploration failed: %s; inv=%v term=%v", r, r.InvariantErr, r.TerminalErr)
	}
	if r.Terminals == 0 || r.States < 5 {
		t.Fatalf("suspicious exploration: %s", r)
	}
	t.Log(r)
}

// TestExhaustiveTwoMessagesSamePayload model-checks the color machinery:
// two same-payload messages from the same source over all central
// schedules — no schedule may merge or duplicate them.
func TestExhaustiveTwoMessagesSamePayload(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	enqueue(cfg, 0, "same", 2)
	enqueue(cfg, 0, "same", 2)
	r := explore.Explore(g, core.FullProgram(g), cfg, explore.CoreOptions(g))
	if !r.OK() {
		t.Fatalf("exploration failed: %s; inv=%v term=%v", r, r.InvariantErr, r.TerminalErr)
	}
	t.Log(r)
}

// TestExhaustiveCorruptedTables model-checks snap-stabilization itself on
// a small instance: the routing tables start with a loop and an invalid
// message squats in a buffer; across every central schedule the valid
// message is delivered exactly once and the system drains.
func TestExhaustiveCorruptedTables(t *testing.T) {
	g := graph.Figure3Network()
	cfg := core.CleanConfig(g)
	// The Figure 3 corruption: a↔c cycle for destination b plus the
	// color-0 invalid message in bufR_b(b).
	cfg[0].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 2})
	cfg[2].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 0})
	cfg[1].(*core.Node).FW.Dest(1).BufR = &core.Message{
		Payload: "data", LastHop: 2, Color: 0, UID: 1 << 50, Src: 1, Dest: 1, Valid: false,
	}
	enqueue(cfg, 2, "data", 1) // valid message colliding with the invalid's payload
	r := explore.Explore(g, core.FullProgram(g), cfg, explore.CoreOptions(g))
	if !r.OK() {
		t.Fatalf("exploration failed: %s; inv=%v term=%v deadEnds=%d",
			r, r.InvariantErr, r.TerminalErr, r.DeadEnds)
	}
	t.Log(r)
}

// TestExhaustiveR5RegressionScenario model-checks the R5 reproduction
// finding across every central schedule: generating a message whose
// payload and color collide with an invalid message in the generator's
// own emission buffer must never lose it. (With the paper's literal R5 —
// no q ≠ p restriction — this exploration finds the loss immediately.)
func TestExhaustiveR5RegressionScenario(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{
		Payload: "x", LastHop: 0, Color: 0, UID: 1 << 51, Src: 0, Dest: 2, Valid: false,
	}
	enqueue(cfg, 0, "x", 2)
	r := explore.Explore(g, core.FullProgram(g), cfg, explore.CoreOptions(g))
	if !r.OK() {
		t.Fatalf("exploration failed: %s; inv=%v term=%v", r, r.InvariantErr, r.TerminalErr)
	}
	t.Log(r)
}

// TestExploreDetectsInjectedViolation plants an unreachable-terminal
// protocol (a livelock loop) and a broken invariant to prove the checker
// actually detects failures.
func TestExploreDetectsInjectedViolation(t *testing.T) {
	g := graph.Line(2)
	// A two-rule toy that ping-pongs forever: p0 sets its bit, p1 clears
	// it — no terminal state exists, so every state is a dead end.
	prog := sm.NewProgram(
		sm.Rule{Name: "set",
			Guard:  func(v *sm.View) bool { return v.ID() == 0 && !v.Self().(*bitState).b },
			Action: func(v *sm.View) { v.Self().(*bitState).b = true }},
		sm.Rule{Name: "clear",
			Guard:  func(v *sm.View) bool { return v.ID() == 0 && v.Self().(*bitState).b },
			Action: func(v *sm.View) { v.Self().(*bitState).b = false }},
	)
	cfg := []sm.State{&bitState{}, &bitState{}}
	r := explore.Explore(g, prog, cfg, explore.Options{
		Fingerprint: func(cfg []sm.State) string {
			s := ""
			for _, st := range cfg {
				if st.(*bitState).b {
					s += "1"
				} else {
					s += "0"
				}
			}
			return s
		},
	})
	if r.Terminals != 0 || r.DeadEnds != r.States {
		t.Fatalf("livelock loop not detected: %s", r)
	}

	// Broken invariant: reject everything.
	r = explore.Explore(g, prog, cfg, explore.Options{
		Fingerprint: func([]sm.State) string { return "x" },
		Invariant: func([]sm.State, map[uint64]int, map[uint64]int) error {
			return errBroken
		},
	})
	if r.InvariantErr == nil {
		t.Fatal("invariant violation not reported")
	}
}

var errBroken = errFixed("broken")

type errFixed string

func (e errFixed) Error() string { return string(e) }

type bitState struct{ b bool }

func (s *bitState) Clone() sm.State { c := *s; return &c }

// TestExploreTruncation caps the search and reports truncation.
func TestExploreTruncation(t *testing.T) {
	g := graph.Figure1Network()
	cfg := core.CleanConfig(g)
	for p := 0; p < g.N(); p++ {
		enqueue(cfg, graph.ProcessID(p), "t", graph.ProcessID((p+2)%g.N()))
	}
	opts := explore.CoreOptions(g)
	opts.MaxStates = 50
	r := explore.Explore(g, core.FullProgram(g), cfg, opts)
	if !r.Truncated {
		t.Fatalf("expected truncation: %s", r)
	}
}

// TestExhaustiveRoutingOnly model-checks the routing algorithm alone: from
// a corrupted 3-node line, every central schedule reaches the canonical
// silent fixpoint.
func TestExhaustiveRoutingOnly(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	// Corrupt two entries.
	cfg[0].(*core.Node).RT.Routes[2].Dist = 0
	cfg[2].(*core.Node).RT.Routes[0].Dist = 3
	opts := explore.CoreOptions(g)
	opts.TerminalCheck = func(cfg []sm.State, _, _ map[uint64]int) error {
		for p := 0; p < g.N(); p++ {
			if !routing.Correct(g, graph.ProcessID(p), cfg[p].(*core.Node).RT) {
				return errFixed("terminal with incorrect routing table")
			}
		}
		return nil
	}
	r := explore.Explore(g, core.FullProgram(g), cfg, opts)
	if !r.OK() {
		t.Fatalf("routing exploration failed: %s; term=%v", r, r.TerminalErr)
	}
	if r.Terminals != 1 {
		t.Fatalf("routing has one silent fixpoint, found %d terminals", r.Terminals)
	}
}

// TestExhaustiveSimultaneityTwo re-checks the corrupted Figure 3 scenario
// with every two-processor simultaneous step also enumerated — composite
// atomicity (two actions reading the same snapshot) is where simultaneous
// execution differs from interleaving, and SP must survive it.
func TestExhaustiveSimultaneityTwo(t *testing.T) {
	g := graph.Figure3Network()
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 2})
	cfg[2].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 0})
	cfg[1].(*core.Node).FW.Dest(1).BufR = &core.Message{
		Payload: "data", LastHop: 2, Color: 0, UID: 1 << 50, Src: 1, Dest: 1, Valid: false,
	}
	enqueue(cfg, 2, "data", 1)
	opts := explore.CoreOptions(g)
	opts.MaxSimultaneity = 2
	r := explore.Explore(g, core.FullProgram(g), cfg, opts)
	if !r.OK() {
		t.Fatalf("simultaneity-2 exploration failed: %s; inv=%v term=%v",
			r, r.InvariantErr, r.TerminalErr)
	}
	t.Log(r)
}

// TestExhaustiveSimultaneityTwoSamePayload re-checks the color machinery
// with simultaneous pairs.
func TestExhaustiveSimultaneityTwoSamePayload(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	enqueue(cfg, 0, "same", 2)
	enqueue(cfg, 0, "same", 2)
	enqueue(cfg, 2, "same", 0)
	opts := explore.CoreOptions(g)
	opts.MaxSimultaneity = 2
	r := explore.Explore(g, core.FullProgram(g), cfg, opts)
	if !r.OK() {
		t.Fatalf("simultaneity-2 exploration failed: %s; inv=%v term=%v",
			r, r.InvariantErr, r.TerminalErr)
	}
	t.Log(r)
}
