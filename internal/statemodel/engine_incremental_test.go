package statemodel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// TestIncrementalDefaults pins the engine's default configuration under
// `go test`: the incremental cache on, and the differential self-check on
// (testing.Testing() is true here), actually running every step.
func TestIncrementalDefaults(t *testing.T) {
	g := graph.Ring(4)
	e := NewEngine(g, incProgram(2), allDaemon{}, intConfig(0, 0, 0, 0))
	e.Run(100, nil)
	st := e.Stats()
	if st.SelfChecks == 0 {
		t.Fatal("self-check mode should be on by default under go test")
	}
	if st.Flushes == 0 {
		t.Fatal("incremental mode should be on by default (no flushes recorded)")
	}
	if st.Steps != e.Steps() {
		t.Fatalf("stats steps %d != engine steps %d", st.Steps, e.Steps())
	}
}

// TestIncrementalMatchesNaive runs the same scenarios under the
// incremental and the naive engine and requires identical trajectories:
// same steps, rounds, move counts and final states.
func TestIncrementalMatchesNaive(t *testing.T) {
	type scenario struct {
		name string
		g    *graph.Graph
		prog Program
		cfg  func(rng *rand.Rand, n int) []State
		d    func() Daemon
	}
	randCfg := func(rng *rand.Rand, n int) []State {
		cfg := make([]State, n)
		for i := range cfg {
			cfg[i] = &intState{v: rng.Intn(10)}
		}
		return cfg
	}
	scenarios := []scenario{
		{"max-ring-all", graph.Ring(7), maxProgram(), randCfg, func() Daemon { return allDaemon{} }},
		{"max-grid-rr", graph.Grid(3, 4), maxProgram(), randCfg, func() Daemon { return NewTestRoundRobin() }},
		{"max-star-one", graph.Star(9), maxProgram(), randCfg, func() Daemon { return oneDaemon{} }},
		{"inc-line-rr", graph.Line(6), incProgram(12), randCfg, func() Daemon { return NewTestRoundRobin() }},
		{"copyleft-line-all", graph.Line(8), copyLeftProgram(), randCfg, func() Daemon { return allDaemon{} }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := sc.cfg(rng, sc.g.N())
				run := func(incremental bool) (*Engine, int, bool) {
					init := make([]State, len(cfg))
					for i, s := range cfg {
						init[i] = s.Clone()
					}
					e := NewEngine(sc.g, sc.prog, sc.d(), init,
						WithIncremental(incremental), WithSelfCheck(incremental))
					steps, terminal := e.Run(500, nil)
					return e, steps, terminal
				}
				ei, si, ti := run(true)
				en, sn, tn := run(false)
				if si != sn || ti != tn || ei.Rounds() != en.Rounds() || ei.TotalMoves() != en.TotalMoves() {
					t.Fatalf("seed %d: incremental (steps=%d terminal=%v rounds=%d moves=%d) != naive (steps=%d terminal=%v rounds=%d moves=%d)",
						seed, si, ti, ei.Rounds(), ei.TotalMoves(), sn, tn, en.Rounds(), en.TotalMoves())
				}
				for p := 0; p < sc.g.N(); p++ {
					if vi, vn := val(ei, graph.ProcessID(p)), val(en, graph.ProcessID(p)); vi != vn {
						t.Fatalf("seed %d: final state of p%d differs: incremental %d, naive %d", seed, p, vi, vn)
					}
				}
				if st := ei.Stats(); sc.g.N() > 2 && si > 0 && st.ProcsSkipped == 0 {
					t.Fatalf("seed %d: incremental run skipped no processors (stats %+v)", seed, st)
				}
			}
		})
	}
}

// TestSelfCheckPanicsOnDivergence forces a cache divergence with a guard
// that depends on state outside the engine's view (a locality violation by
// construction, which the incremental cache cannot track) and requires the
// self-check to panic with a diff naming the stale processor.
func TestSelfCheckPanicsOnDivergence(t *testing.T) {
	hidden := true
	prog := NewProgram(Rule{
		Name:   "impure",
		Guard:  func(v *View) bool { return hidden },
		Action: func(v *View) {},
	})
	// Line(3) with the daemon serving p0: after the step only N[0]={0,1} is
	// re-evaluated, so p2's cached enabledness goes stale when hidden flips.
	g := graph.Line(3)
	e := NewEngine(g, prog, oneDaemon{}, intConfig(0, 0, 0), WithIncremental(true), WithSelfCheck(true))
	if !e.Step() {
		t.Fatal("first step should execute")
	}
	hidden = false // guards change behind the engine's back
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected self-check divergence panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "divergence") || !strings.Contains(msg, "impure") {
			t.Fatalf("panic message should name the divergence and the stale rule, got: %s", msg)
		}
	}()
	e.Step()
}

// TestStateOfMarksDirty pins the conservative contract of StateOf: callers
// routinely mutate the returned state in place (workload injection, fault
// injection), so the incremental cache must re-evaluate the processor's
// neighborhood afterwards.
func TestStateOfMarksDirty(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(5, 5), WithIncremental(true), WithSelfCheck(false))
	if !e.Terminal() {
		t.Fatal("expected terminal start")
	}
	e.StateOf(0).(*intState).v = 0 // in-place mutation, engine not told explicitly
	if e.Terminal() {
		t.Fatal("StateOf must invalidate the cache for the mutated processor")
	}
	if names := e.EnabledRuleNames(0); len(names) != 1 || names[0] != "inc" {
		t.Fatalf("EnabledRuleNames(0) = %v", names)
	}
}

// TestPeekStateOfDoesNotInvalidate pins the companion contract: PeekStateOf
// is the read-only accessor and leaves the cache untouched.
func TestPeekStateOfDoesNotInvalidate(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(0, 5), WithIncremental(true), WithSelfCheck(false))
	if e.Terminal() {
		t.Fatal("p0 should be enabled")
	}
	before := e.Stats()
	if got := e.PeekStateOf(0).(*intState).v; got != 0 {
		t.Fatalf("PeekStateOf(0) = %d, want 0", got)
	}
	if e.Terminal() {
		t.Fatal("still enabled")
	}
	after := e.Stats()
	if after.GuardEvals != before.GuardEvals {
		t.Fatalf("PeekStateOf triggered %d guard evaluations", after.GuardEvals-before.GuardEvals)
	}
}

// TestEnabledReturnsCopy: mutating the slice Enabled hands out must not
// corrupt the memoized enabled set.
func TestEnabledReturnsCopy(t *testing.T) {
	g := graph.Line(3)
	e := NewEngine(g, incProgram(1), allDaemon{}, intConfig(0, 0, 0), WithIncremental(true), WithSelfCheck(true))
	en := e.Enabled()
	if len(en) != 3 {
		t.Fatalf("enabled = %v", en)
	}
	en[0].Rules[0] = 999
	en[1] = Choice{Process: 99}
	if !e.Step() { // self-check panics here if the cache was corrupted
		t.Fatal("step should execute")
	}
}

// TestInvalidateRecovers: Invalidate() is the escape hatch after an
// untracked mutation (e.g. through a retained state pointer).
func TestInvalidateRecovers(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(5), allDaemon{}, intConfig(5, 5), WithIncremental(true), WithSelfCheck(false))
	if !e.Terminal() {
		t.Fatal("expected terminal start")
	}
	e.PeekStateOf(1).(*intState).v = 0 // illegal: mutation through the read-only accessor
	e.Invalidate(1)
	if e.Terminal() {
		t.Fatal("Invalidate(1) should have re-evaluated p1's neighborhood")
	}
	e.PeekStateOf(1).(*intState).v = 5
	e.Invalidate() // no args: drop the whole cache
	if !e.Terminal() {
		t.Fatal("Invalidate() should have rebuilt the full enabled set")
	}
}

// TestSetStateOfResetsRoundAccounting is the regression test for the
// round-accounting corruption after Engine.SetStateOf: replacing a state
// mid-round used to leave lastEnabled/roundPending stale, so the pending
// processor was mistaken for neutralized and the half-finished round was
// counted.
//
// Line 0-1-2, incProgram(1), initial (0,0,1): p0 and p1 are enabled. The
// one-daemon serves p0, leaving p1 pending in the open round. Replacing
// p1's state with the terminal value must abandon that round, not count
// it: p1 neither executed nor was neutralized by protocol activity.
func TestSetStateOfResetsRoundAccounting(t *testing.T) {
	g := graph.Line(3)
	e := NewEngine(g, incProgram(1), oneDaemon{}, intConfig(0, 0, 1))
	if !e.Step() {
		t.Fatal("first step should execute (p0)")
	}
	if e.Moves("inc") != 1 {
		t.Fatalf("moves = %d, want 1", e.Moves("inc"))
	}
	e.SetStateOf(1, &intState{v: 1}) // fault injection mid-round
	if e.Step() {
		t.Fatal("configuration should be terminal after the replacement")
	}
	if r := e.Rounds(); r != 0 {
		t.Fatalf("rounds = %d, want 0: the interrupted round must be abandoned, not counted", r)
	}
	// A fresh round after the replacement still counts normally.
	e.SetStateOf(2, &intState{v: 0})
	if !e.Step() {
		t.Fatal("p2 should be enabled again")
	}
	if r := e.Rounds(); r != 1 {
		t.Fatalf("rounds = %d, want 1 after the post-fault round completes", r)
	}
}

// TestSetStateOfCountsCompletedRoundFirst: a round that was already
// complete under the old configuration (every pending processor executed)
// is settled before the replacement abandons the bookkeeping.
func TestSetStateOfCountsCompletedRoundFirst(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, incProgram(1), allDaemon{}, intConfig(0, 0))
	if !e.Step() { // both execute: round 1 complete
		t.Fatal("step should execute")
	}
	e.SetStateOf(0, &intState{v: 0})
	if r := e.Rounds(); r != 1 {
		t.Fatalf("rounds = %d, want 1: the round completed before the fault", r)
	}
}

// TestRoundsSettledAtTerminal is the regression test for the Rounds()
// undercount at terminal configurations. Hand-computed execution on the
// line 0-1-2 with incProgram(1), initial (0,0,0), central one-daemon:
//
//	step 0: enabled {0,1,2}, round opens with pending {0,1,2}; p0 fires.
//	step 1: pending {1,2}; p1 fires.
//	step 2: pending {2}; p2 fires — pending empties, the round is over.
//
// The execution is terminal after step 2 and exactly one round elapsed,
// but the engine used to close the round only at the start of the NEXT
// Step call: reading Rounds() right after the final step reported 0.
func TestRoundsSettledAtTerminal(t *testing.T) {
	g := graph.Line(3)
	e := NewEngine(g, incProgram(1), oneDaemon{}, intConfig(0, 0, 0))
	for i := 0; i < 3; i++ {
		if !e.Step() {
			t.Fatalf("step %d should execute", i)
		}
	}
	if e.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", e.Steps())
	}
	if r := e.Rounds(); r != 1 {
		t.Fatalf("rounds = %d, want 1 immediately after the final step", r)
	}
	if !e.Terminal() {
		t.Fatal("expected terminal configuration")
	}
	// A trailing failed Step must not double-count the settled round.
	if e.Step() {
		t.Fatal("expected no further step")
	}
	if r := e.Rounds(); r != 1 {
		t.Fatalf("rounds = %d after trailing failed Step, want 1", r)
	}
}

// TestRoundsSettledAfterNeutralizationAtTerminal covers the second
// terminal shape: the last pending processor leaves the round by
// neutralization, not execution. Line 0-1: serving p0 disables p1's only
// rule; the round is complete at the now-terminal configuration.
func TestRoundsSettledAfterNeutralizationAtTerminal(t *testing.T) {
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
	if !e.Step() {
		t.Fatal("step should execute")
	}
	if r := e.Rounds(); r != 1 {
		t.Fatalf("rounds = %d, want 1: p1 was neutralized, closing the round", r)
	}
	if e.Moves("b") != 0 {
		t.Fatal("rule b must never fire")
	}
}

// TestEnabledDeltaMatchesFullScan drives the shared incremental primitive
// (one Delta reused across configurations) directly over random mutation
// sequences and compares against EnabledOf.
func TestEnabledDeltaMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(5+rng.Intn(8), 20, rng)
		rules := maxProgram().Rules()
		cfg := make([]State, g.N())
		for i := range cfg {
			cfg[i] = &intState{v: rng.Intn(6)}
		}
		enabled := EnabledOf(g, rules, cfg)
		delta := NewDelta(g, rules)
		for step := 0; step < 30; step++ {
			k := 1 + rng.Intn(3)
			changed := make([]graph.ProcessID, 0, k)
			for i := 0; i < k; i++ {
				p := graph.ProcessID(rng.Intn(g.N()))
				cfg[p] = &intState{v: rng.Intn(6)}
				changed = append(changed, p)
			}
			enabled = delta.Enabled(cfg, enabled, changed)
			want := EnabledOf(g, rules, cfg)
			if d := diffEnabled(rules, want, enabled); d != "" {
				t.Fatalf("seed %d step %d: delta diverged from full scan:\n%s", seed, step, d)
			}
		}
	}
}

// TestNonIncrementalEngineUnaffected: the naive path must behave exactly
// like the incremental one on the pinned round scenarios.
func TestNonIncrementalEngineUnaffected(t *testing.T) {
	g := graph.Ring(4)
	e := NewEngine(g, incProgram(3), NewTestRoundRobin(), intConfig(0, 0, 0, 0), WithIncremental(false))
	_, terminal := e.Run(100, nil)
	if !terminal || e.Steps() != 12 || e.Rounds() != 3 {
		t.Fatalf("naive engine: steps=%d rounds=%d terminal=%v, want 12/3/true", e.Steps(), e.Rounds(), terminal)
	}
	if st := e.Stats(); st.Flushes != 0 || st.FullScans == 0 {
		t.Fatalf("naive engine stats: %+v", st)
	}
}

// checkingDaemon compares every set it is handed with want, then serves
// every processor on even steps and the lowest one on odd steps, so
// flushes alternate between rebuilding most processors (into reused list
// storage) and a few (sharing the carried choices' rules with the
// previous list).
type checkingDaemon struct {
	t    *testing.T
	e    *Engine
	want []Choice // the naive scan of the step's pre-step configuration
}

func (d *checkingDaemon) Name() string { return "checking" }
func (d *checkingDaemon) Select(step int, enabled []Choice) []Selection {
	if diff := diffEnabled(d.e.rules, d.want, enabled); diff != "" {
		d.t.Fatalf("step %d: the set handed to the daemon was overwritten:\n%s", step, diff)
	}
	if step%2 == 1 {
		return oneDaemon{}.Select(step, enabled)
	}
	return allDaemon{}.Select(step, enabled)
}

// TestReusedEnabledListsStayIntact: the engine builds its enabled lists
// in reused storage, so no flush may write into storage a live list
// reads. A subscriber rewrites one processor or all of them and flushes
// at the end of every step, and twice more at every round event, between
// the step's own flush and the daemon's Select; the set the daemon is
// handed must still be the one of the step's start, and the self-check
// compares the memoized set at every step.
func TestReusedEnabledListsStayIntact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(24, 40, rng)
		d := &checkingDaemon{t: t}
		e := NewEngine(g, slotMaxProgram(4, func(s int) int { return s }), d, vecConfig(rng, g.N(), 4), WithSelfCheck(true))
		d.e, d.want = e, scanEnabled(g, e.rules, e.states, 0, nil)
		perturb := func() {
			for range 1 + rng.Intn(2)*(g.N()-1) {
				st := e.StateOf(graph.ProcessID(rng.Intn(g.N()))).(*vecState)
				st.v = vecConfig(rng, 1, 4)[0].(*vecState).v
			}
			e.Terminal()
		}
		e.Subscribe(func(ev Event) {
			switch ev.Kind {
			case obs.KindRound:
				perturb()
				perturb()
			case obs.KindStep:
				perturb()
				d.want = scanEnabled(g, e.rules, e.states, ev.Step+1, nil)
			}
		})
		if steps, _ := e.Run(300, nil); steps != 300 {
			t.Fatalf("seed %d: the perturbed run stopped after %d steps", seed, steps)
		}
	}
}
