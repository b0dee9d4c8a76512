package statemodel

import (
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// intState is a one-variable state for toy protocols.
type intState struct{ v int }

func (s *intState) Clone() State { c := *s; return &c }

func intConfig(vals ...int) []State {
	cfg := make([]State, len(vals))
	for i, v := range vals {
		cfg[i] = &intState{v: v}
	}
	return cfg
}

func val(e *Engine, p graph.ProcessID) int { return e.StateOf(p).(*intState).v }

// incProgram: every processor increments its value while below limit.
func incProgram(limit int) Program {
	return NewProgram(Rule{
		Name: "inc",
		Guard: func(v *View) bool {
			return v.Self().(*intState).v < limit
		},
		Action: func(v *View) {
			v.Self().(*intState).v++
		},
	})
}

// maxProgram: self-stabilizing max propagation — adopt the maximum of the
// neighborhood when it exceeds the own value.
func maxProgram() Program {
	nbrMax := func(v *View) int {
		m := v.Self().(*intState).v
		for _, q := range v.Neighbors() {
			if x := v.Read(q).(*intState).v; x > m {
				m = x
			}
		}
		return m
	}
	return NewProgram(Rule{
		Name:   "adopt-max",
		Guard:  func(v *View) bool { return nbrMax(v) > v.Self().(*intState).v },
		Action: func(v *View) { v.Self().(*intState).v = nbrMax(v) },
	})
}

// copyLeftProgram: every processor p > 0 copies the value of p-1 on a line.
// Used to verify snapshot atomicity under the synchronous daemon.
func copyLeftProgram() Program {
	return NewProgram(Rule{
		Name: "copy-left",
		Guard: func(v *View) bool {
			if v.ID() == 0 {
				return false
			}
			return v.Read(v.ID()-1).(*intState).v != v.Self().(*intState).v
		},
		Action: func(v *View) {
			v.Self().(*intState).v = v.Read(v.ID() - 1).(*intState).v
		},
	})
}

// allDaemon activates every enabled processor with its first offered rule.
type allDaemon struct{}

func (allDaemon) Name() string { return "all" }
func (allDaemon) Select(step int, enabled []Choice) []Selection {
	out := make([]Selection, len(enabled))
	for i, c := range enabled {
		out[i] = Selection{Process: c.Process, Rule: c.Rules[0]}
	}
	return out
}

// oneDaemon activates the single lowest-ID enabled processor.
type oneDaemon struct{}

func (oneDaemon) Name() string { return "one" }
func (oneDaemon) Select(step int, enabled []Choice) []Selection {
	return []Selection{{Process: enabled[0].Process, Rule: enabled[0].Rules[0]}}
}

func TestNewEngineValidation(t *testing.T) {
	g := graph.Line(3)
	prog := incProgram(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"wrong length", func() { NewEngine(g, prog, allDaemon{}, intConfig(0, 0)) }},
		{"nil state", func() { NewEngine(g, prog, allDaemon{}, []State{&intState{}, nil, &intState{}}) }},
		{"empty program", func() { NewEngine(g, NewProgram(), allDaemon{}, intConfig(0, 0, 0)) }},
		{"unfrozen graph", func() { NewEngine(graph.New(3), prog, allDaemon{}, intConfig(0, 0, 0)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestTerminalConfiguration(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(0), allDaemon{}, intConfig(0, 0))
	if !e.Terminal() {
		t.Fatal("expected terminal configuration")
	}
	if e.Step() {
		t.Fatal("Step on terminal configuration should return false")
	}
}

func TestIncRunsToLimit(t *testing.T) {
	g := graph.Line(3)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(0, 2, 5))
	steps, terminal := e.Run(1000, nil)
	if !terminal {
		t.Fatal("expected terminal configuration")
	}
	if steps != 5 { // synchronous: bounded by the max deficit
		t.Errorf("steps = %d, want 5", steps)
	}
	for p := graph.ProcessID(0); p < 3; p++ {
		if val(e, p) != 5 {
			t.Errorf("processor %d value = %d, want 5", p, val(e, p))
		}
	}
	if e.Moves("inc") != 5+3 { // p0 five times, p1 three times, p2 zero
		t.Errorf("inc moves = %d, want 8", e.Moves("inc"))
	}
	if e.TotalMoves() != 8 {
		t.Errorf("total moves = %d, want 8", e.TotalMoves())
	}
}

func TestSynchronousSnapshotAtomicity(t *testing.T) {
	// On a line 0-1-2 with values 7,0,0 and the copy-left protocol, a
	// synchronous step must give 7,7,0 (p2 reads p1's PRE-step value), not
	// 7,7,7.
	g := graph.Line(3)
	e := NewEngine(g, copyLeftProgram(), allDaemon{}, intConfig(7, 0, 0))
	e.Step()
	if got := []int{val(e, 0), val(e, 1), val(e, 2)}; got[0] != 7 || got[1] != 7 || got[2] != 0 {
		t.Fatalf("after one synchronous step: %v, want [7 7 0]", got)
	}
	e.Step()
	if v := val(e, 2); v != 7 {
		t.Fatalf("after two steps p2 = %d, want 7", v)
	}
	if !e.Terminal() {
		t.Fatal("expected terminal configuration after propagation")
	}
}

func TestMaxPropagationFromArbitraryConfig(t *testing.T) {
	g := graph.Ring(6)
	e := NewEngine(g, maxProgram(), allDaemon{}, intConfig(3, 9, 1, 4, 1, 5))
	_, terminal := e.Run(100, nil)
	if !terminal {
		t.Fatal("max propagation did not stabilize")
	}
	for p := graph.ProcessID(0); p < 6; p++ {
		if val(e, p) != 9 {
			t.Errorf("processor %d = %d, want 9", p, val(e, p))
		}
	}
}

func TestLocalityViolationPanics(t *testing.T) {
	g := graph.Line(3) // 0 and 2 are not neighbors
	bad := NewProgram(Rule{
		Name:   "peek",
		Guard:  func(v *View) bool { return v.ID() == 0 && v.Read(2).(*intState).v >= 0 },
		Action: func(v *View) {},
	})
	e := NewEngine(g, bad, allDaemon{}, intConfig(0, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected locality-violation panic")
		}
	}()
	e.Step()
}

func TestPriorityFiltering(t *testing.T) {
	// Two always-enabled rules; only the priority-0 one may ever fire.
	prog := NewProgram(
		Rule{Name: "high", Priority: 0,
			Guard:  func(v *View) bool { return v.Self().(*intState).v < 10 },
			Action: func(v *View) { v.Self().(*intState).v++ }},
		Rule{Name: "low", Priority: 1,
			Guard:  func(v *View) bool { return true },
			Action: func(v *View) { v.Self().(*intState).v = -100 }},
	)
	g := graph.Line(2)
	e := NewEngine(g, prog, allDaemon{}, intConfig(0, 0))
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if e.Moves("high") != 20 || val(e, 0) != 10 || val(e, 1) != 10 {
		t.Fatalf("priority-0 rule should fire exclusively while enabled: high=%d v0=%d", e.Moves("high"), val(e, 0))
	}
	// Once "high" is disabled, "low" becomes eligible.
	e.Step()
	if e.Moves("low") != 2 {
		t.Fatalf("low moves = %d, want 2", e.Moves("low"))
	}
}

func TestPriorityOrderingIndependentOfRuleOrder(t *testing.T) {
	// Same as above but with the low-priority rule listed first.
	prog := NewProgram(
		Rule{Name: "low", Priority: 5,
			Guard:  func(v *View) bool { return true },
			Action: func(v *View) { v.Self().(*intState).v = -100 }},
		Rule{Name: "high", Priority: 2,
			Guard:  func(v *View) bool { return v.Self().(*intState).v < 3 },
			Action: func(v *View) { v.Self().(*intState).v++ }},
	)
	g := graph.Line(2)
	e := NewEngine(g, prog, oneDaemon{}, intConfig(0, 5))
	e.Step() // p0 must execute "high" despite "low" being listed first
	if val(e, 0) != 1 {
		t.Fatalf("p0 = %d, want 1 (high-priority rule)", val(e, 0))
	}
}

func TestEventsAndSubscribe(t *testing.T) {
	prog := NewProgram(Rule{
		Name:  "emit",
		Guard: func(v *View) bool { return v.Self().(*intState).v == 0 },
		Action: func(v *View) {
			v.Observe(Event{Kind: obs.KindGenerate, Dest: v.ID()})
			v.Self().(*intState).v = 1
		},
	})
	g := graph.Line(3)
	e := NewEngine(g, prog, allDaemon{}, intConfig(0, 0, 0))
	var gens, fires int
	e.Subscribe(func(ev Event) {
		switch ev.Kind {
		case obs.KindGenerate:
			gens++
			if ev.Rule != "emit" {
				t.Errorf("generate event rule = %q, want emit", ev.Rule)
			}
			if ev.Dest != ev.Proc {
				t.Errorf("event fields mismatch: dest %v vs proc %v", ev.Dest, ev.Proc)
			}
		case obs.KindFire:
			fires++
		}
	})
	e.Run(10, nil)
	if gens != 3 || fires != 3 {
		t.Fatalf("gens=%d fires=%d, want 3 and 3", gens, fires)
	}
}

// TestObserveOutsideActionIgnored: a view that is not executing an
// action (guard evaluation, or no subscriber) neither observes nor
// records, so Observe is a no-op there rather than a panic.
func TestObserveOutsideActionIgnored(t *testing.T) {
	v := &View{}
	if v.Observing() {
		t.Fatal("a view outside action execution reports Observing")
	}
	v.Observe(Event{Kind: obs.KindGenerate})
}

func TestRoundCountingCentralDaemon(t *testing.T) {
	// All 4 processors continuously enabled until each hits the limit; a
	// central daemon serves one per step, so each round is 4 steps while
	// everyone stays enabled.
	g := graph.Ring(4)
	e := NewEngine(g, incProgram(3), NewTestRoundRobin(), intConfig(0, 0, 0, 0))
	_, terminal := e.Run(100, nil)
	if !terminal {
		t.Fatal("did not terminate")
	}
	if e.Steps() != 12 {
		t.Fatalf("steps = %d, want 12", e.Steps())
	}
	if e.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", e.Rounds())
	}
}

func TestRoundCountingSynchronous(t *testing.T) {
	g := graph.Ring(4)
	e := NewEngine(g, incProgram(3), allDaemon{}, intConfig(0, 0, 0, 0))
	e.Run(100, nil)
	if e.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3 (every synchronous step is a round)", e.Rounds())
	}
}

func TestNeutralizationCountsTowardRound(t *testing.T) {
	// Line 0-1; p0 has "set p0=1" enabled; p1's rule is enabled only while
	// p0's value is 0. Serving p0 neutralizes p1: the round must complete
	// without p1 ever executing.
	prog := NewProgram(
		Rule{Name: "a",
			Guard:  func(v *View) bool { return v.ID() == 0 && v.Self().(*intState).v == 0 },
			Action: func(v *View) { v.Self().(*intState).v = 1 }},
		Rule{Name: "b",
			Guard:  func(v *View) bool { return v.ID() == 1 && v.Read(0).(*intState).v == 0 },
			Action: func(v *View) { v.Self().(*intState).v = 99 }},
	)
	g := graph.Line(2)
	e := NewEngine(g, prog, oneDaemon{}, intConfig(0, 0))
	_, terminal := e.Run(10, nil)
	if !terminal {
		t.Fatal("expected termination")
	}
	if e.Moves("b") != 0 {
		t.Fatal("rule b should never fire")
	}
	if e.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1 (p1 neutralized in the same round)", e.Rounds())
	}
}

func TestRunStopPredicate(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(100), allDaemon{}, intConfig(0, 0))
	steps, terminal := e.Run(1000, func(e *Engine) bool { return val(e, 0) >= 10 })
	if terminal {
		t.Fatal("should have stopped on predicate, not terminality")
	}
	if steps != 10 {
		t.Fatalf("steps = %d, want 10", steps)
	}
}

func TestRunMaxSteps(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(1000), allDaemon{}, intConfig(0, 0))
	steps, terminal := e.Run(7, nil)
	if terminal || steps != 7 {
		t.Fatalf("steps=%d terminal=%v, want 7,false", steps, terminal)
	}
}

func TestDaemonValidation(t *testing.T) {
	g := graph.Line(2)
	cases := []struct {
		name string
		d    Daemon
	}{
		{"empty selection", badDaemon{mode: "empty"}},
		{"disabled process", badDaemon{mode: "disabled"}},
		{"bad rule", badDaemon{mode: "badrule"}},
		{"duplicate process", badDaemon{mode: "dup"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(g, incProgram(5), c.d, intConfig(0, 5))
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			e.Step()
		})
	}
}

type badDaemon struct{ mode string }

func (d badDaemon) Name() string { return "bad-" + d.mode }
func (d badDaemon) Select(step int, enabled []Choice) []Selection {
	switch d.mode {
	case "empty":
		return nil
	case "disabled":
		return []Selection{{Process: 1, Rule: 0}} // p1 is at the limit, disabled
	case "badrule":
		return []Selection{{Process: enabled[0].Process, Rule: 999}}
	case "dup":
		c := enabled[0]
		return []Selection{{Process: c.Process, Rule: c.Rules[0]}, {Process: c.Process, Rule: c.Rules[0]}}
	}
	return nil
}

func TestComposePreservesRules(t *testing.T) {
	p1 := NewProgram(Rule{Name: "x", Guard: func(*View) bool { return false }, Action: func(*View) {}})
	p2 := NewProgram(
		Rule{Name: "y", Guard: func(*View) bool { return false }, Action: func(*View) {}},
		Rule{Name: "z", Guard: func(*View) bool { return false }, Action: func(*View) {}},
	)
	c := Compose(p1, p2)
	rules := c.Rules()
	if len(rules) != 3 || rules[0].Name != "x" || rules[1].Name != "y" || rules[2].Name != "z" {
		t.Fatalf("composed rules wrong: %+v", rules)
	}
}

func TestEnabledRuleNames(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(0, 5))
	if names := e.EnabledRuleNames(0); len(names) != 1 || names[0] != "inc" {
		t.Fatalf("EnabledRuleNames(0) = %v", names)
	}
	if names := e.EnabledRuleNames(1); len(names) != 0 {
		t.Fatalf("EnabledRuleNames(1) = %v, want empty", names)
	}
}

func TestSetStateOf(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(5, 5))
	if !e.Terminal() {
		t.Fatal("expected terminal")
	}
	e.SetStateOf(0, &intState{v: 0}) // fault injection
	if e.Terminal() {
		t.Fatal("expected enabled after fault injection")
	}
}

// NewTestRoundRobin is a minimal central round-robin daemon local to the
// package tests (the real one lives in internal/daemon, which depends on
// this package).
func NewTestRoundRobin() Daemon { return &testRR{} }

type testRR struct{ next graph.ProcessID }

func (d *testRR) Name() string { return "test-rr" }
func (d *testRR) Select(step int, enabled []Choice) []Selection {
	best := enabled[0]
	found := false
	for _, c := range enabled {
		if c.Process >= d.next {
			best = c
			found = true
			break
		}
	}
	if !found {
		best = enabled[0]
	}
	d.next = best.Process + 1
	return []Selection{{Process: best.Process, Rule: best.Rules[0]}}
}

func TestThreePriorityClasses(t *testing.T) {
	// Priorities 0 < 1 < 2: each class runs only when all higher classes
	// are disabled at that processor.
	prog := NewProgram(
		Rule{Name: "p0", Priority: 0,
			Guard:  func(v *View) bool { return v.Self().(*intState).v < 2 },
			Action: func(v *View) { v.Self().(*intState).v++ }},
		Rule{Name: "p1", Priority: 1,
			Guard:  func(v *View) bool { return v.Self().(*intState).v < 4 },
			Action: func(v *View) { v.Self().(*intState).v++ }},
		Rule{Name: "p2", Priority: 2,
			Guard:  func(v *View) bool { return v.Self().(*intState).v < 6 },
			Action: func(v *View) { v.Self().(*intState).v++ }},
	)
	g := graph.Line(2)
	e := NewEngine(g, prog, oneDaemon{}, intConfig(0, 6))
	order := []string{}
	e.Subscribe(func(ev Event) {
		if ev.Kind == obs.KindFire {
			order = append(order, ev.Rule)
		}
	})
	e.Run(100, nil)
	want := []string{"p0", "p0", "p1", "p1", "p2", "p2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestRoundsNeverExceedSteps(t *testing.T) {
	g := graph.Ring(5)
	e := NewEngine(g, maxProgram(), NewTestRoundRobin(), intConfig(5, 1, 4, 2, 3))
	for e.Step() {
		if e.Rounds() > e.Steps() {
			t.Fatalf("rounds %d > steps %d", e.Rounds(), e.Steps())
		}
	}
}

func TestSynchronousRoundEqualsStep(t *testing.T) {
	// Under a daemon that fires every enabled processor, every step
	// completes a round.
	g := graph.Ring(4)
	e := NewEngine(g, incProgram(7), allDaemon{}, intConfig(0, 3, 5, 1))
	e.Run(1000, nil)
	if e.Rounds() != e.Steps() {
		t.Fatalf("rounds %d != steps %d under the synchronous daemon", e.Rounds(), e.Steps())
	}
}

func TestMoveCountsSnapshot(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(2), allDaemon{}, intConfig(0, 1))
	e.Run(100, nil)
	mc := e.MoveCounts()
	if mc["inc"] != 3 {
		t.Fatalf("MoveCounts = %v", mc)
	}
	mc["inc"] = 999 // must be a copy
	if e.Moves("inc") != 3 {
		t.Fatal("MoveCounts must return a copy")
	}
	if e.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
}

func TestViewStepAndGraphAccessors(t *testing.T) {
	g := graph.Line(2)
	var sawStep, sawN int
	prog := NewProgram(Rule{
		Name:  "probe",
		Guard: func(v *View) bool { return v.Self().(*intState).v == 0 },
		Action: func(v *View) {
			sawStep = v.Step()
			sawN = v.Graph().N()
			v.Self().(*intState).v = 1
		},
	})
	e := NewEngine(g, prog, oneDaemon{}, intConfig(0, 1))
	e.Step()
	if sawStep != 0 || sawN != 2 {
		t.Fatalf("view accessors: step=%d n=%d", sawStep, sawN)
	}
}
