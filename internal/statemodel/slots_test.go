package statemodel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ssmfp/internal/graph"
)

// vecState is a sliced toy state: slot s (1-based) is v[s-1]; total is an
// unsliced field.
type vecState struct {
	v     []int
	total int
	slot  int // on a scratch: the staged move's slot
}

func (s *vecState) Clone() State {
	return &vecState{v: append([]int(nil), s.v...), total: s.total}
}

// Stage stages a move of slot s on a copy of the whole vector, reusing
// the scratch's storage: the toy state is small, and the tests below are
// about the cache and the commit order, not the copy.
func (s *vecState) Stage(scratch State, slot int) State {
	c, _ := scratch.(*vecState)
	if c == nil {
		c = &vecState{}
	}
	c.v, c.total, c.slot = append(c.v[:0], s.v...), s.total, slot
	return c
}

// Commit writes the scratch's slot and total into s.
func (s *vecState) Commit(scratch State) {
	c := scratch.(*vecState)
	s.v[c.slot-1], s.total = c.v[c.slot-1], c.total
}

func vecConfig(rng *rand.Rand, n, k int) []State {
	cfg := make([]State, n)
	for p := range cfg {
		v := make([]int, k)
		for i := range v {
			v[i] = rng.Intn(8)
		}
		cfg[p] = &vecState{v: v}
	}
	return cfg
}

// slotMaxProgram runs max propagation independently in each of k slots:
// rule "max@s" adopts the neighborhood maximum of component s-1. Its guard
// reads component read(s)-1 of the neighbors, so read = identity declares
// the slots correctly and anything else mis-slices them. A slot-0 rule
// "sum" keeps the unsliced total equal to the vector's sum, and "bump@s"
// (priority 1, a declared footprint that writes the total) lowers
// component s-1 while the total is odd, exercising every marking path of
// the cache.
func slotMaxProgram(k int, read func(s int) int) Program {
	var rules []Rule
	for s := 1; s <= k; s++ {
		nbrMax := func(v *View) int {
			m := v.Self().(*vecState).v[s-1]
			for _, q := range v.Neighbors() {
				if x := v.Read(q).(*vecState).v[read(s)-1]; x > m {
					m = x
				}
			}
			return m
		}
		rules = append(rules, Rule{
			Name:   fmt.Sprintf("max@%d", s),
			Slot:   s,
			Guard:  func(v *View) bool { return nbrMax(v) > v.Self().(*vecState).v[s-1] },
			Action: func(v *View) { v.Self().(*vecState).v[s-1] = nbrMax(v) },
		}, Rule{
			Name:     fmt.Sprintf("bump@%d", s),
			Priority: 1,
			Slot:     s,
			Reads:    1 | Unsliced,
			Writes:   1 | Unsliced,
			Guard: func(v *View) bool {
				self := v.Self().(*vecState)
				return self.total%2 == 1 && self.v[s-1] > 0 && self.v[s-1]%3 == 0
			},
			Action: func(v *View) {
				self := v.Self().(*vecState)
				self.v[s-1]--
				self.total++
			},
		})
	}
	rules = append(rules, Rule{
		Name:     "sum",
		Priority: 2,
		Guard: func(v *View) bool {
			self := v.Self().(*vecState)
			sum := 0
			for _, x := range self.v {
				sum += x
			}
			return self.total != sum
		},
		Action: func(v *View) {
			self := v.Self().(*vecState)
			self.total = 0
			for _, x := range self.v {
				self.total += x
			}
		},
	})
	return NewProgram(rules...)
}

// TestSlicedEngineMatchesNaive runs the correctly sliced program under
// the self-check (which compares the sliced cache against scanEnabled at
// every step) and against the naive engine, with the daemon serving every
// processor or one at a time.
func TestSlicedEngineMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(12, 20, rng)
		cfg := vecConfig(rng, g.N(), 4)
		for _, daemon := range []func() Daemon{func() Daemon { return allDaemon{} }, NewTestRoundRobin} {
			run := func(incremental bool) *Engine {
				init := make([]State, len(cfg))
				for i, s := range cfg {
					init[i] = s.Clone()
				}
				e := NewEngine(g, slotMaxProgram(4, func(s int) int { return s }), daemon(), init,
					WithIncremental(incremental), WithSelfCheck(true))
				e.Run(400, nil)
				return e
			}
			inc, naive := run(true), run(false)
			if inc.Steps() != naive.Steps() || inc.Rounds() != naive.Rounds() || !maps.Equal(inc.MoveCounts(), naive.MoveCounts()) {
				t.Fatalf("seed %d %s: sliced and naive executions differ: %v vs %v", seed, daemon().Name(), inc.MoveCounts(), naive.MoveCounts())
			}
			if st := inc.Stats(); st.SelfChecks != st.Steps+1 && st.SelfChecks != st.Steps {
				t.Fatalf("seed %d: self-check ran %d times over %d steps", seed, st.SelfChecks, st.Steps)
			}
		}
	}
}

// TestSelfCheckCatchesMisSlicedRule declares max@s in slot s while its
// guard reads slot s+1 of the neighbors: a move in slot s+1 leaves the
// cached slot s stale, and the self-check must panic with its
// per-processor diff.
func TestSelfCheckCatchesMisSlicedRule(t *testing.T) {
	const k = 3
	g := graph.Line(3)
	cfg := []State{
		&vecState{v: []int{0, 0, 5}},
		&vecState{v: []int{0, 0, 0}},
		&vecState{v: []int{0, 0, 0}},
	}
	misread := func(s int) int { return s%k + 1 } // slot s reads slot s+1 (wrapping)
	e := NewEngine(g, slotMaxProgram(k, misread), oneDaemon{}, cfg, WithSelfCheck(true))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("self-check did not catch the mis-sliced rule")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"divergence", "naive=", "incremental=", "max@"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q lacks %q", msg, want)
			}
		}
		if !strings.Contains(msg, "\n  p") {
			t.Fatalf("panic %q has no per-processor diff line", msg)
		}
	}()
	e.Run(50, nil)
}

// TestSlotMarksOnlyTouchedSlot pins the cache's unit of work: a move in
// slot s at the middle of a line marks the rule of slot s at its three
// processors and re-evaluates only that rule there (plus nothing else:
// the program has no slot-0 rule).
func TestSlotMarksOnlyTouchedSlot(t *testing.T) {
	g := graph.Line(3)
	var rules []Rule
	for s := 1; s <= 4; s++ {
		rules = append(rules, Rule{
			Name:   fmt.Sprintf("dec@%d", s),
			Slot:   s,
			Guard:  func(v *View) bool { return v.ID() == 1 && v.Self().(*vecState).v[s-1] > 0 },
			Action: func(v *View) { v.Self().(*vecState).v[s-1]-- },
		})
	}
	cfg := []State{
		&vecState{v: []int{0, 0, 0, 0}},
		&vecState{v: []int{0, 2, 0, 0}},
		&vecState{v: []int{0, 0, 0, 0}},
	}
	e := NewEngine(g, NewProgram(rules...), oneDaemon{}, cfg, WithSelfCheck(true))
	e.Step() // full scan, then dec@2 at p1
	before := e.Stats()
	e.Step() // flush: slot 2 at p0, p1, p2
	st := e.Stats()
	if got := st.ProcsEvaluated - before.ProcsEvaluated; got != 3 {
		t.Fatalf("a slot-2 move re-evaluated %d processors, want 3", got)
	}
	if got := st.GuardEvals - before.GuardEvals; got != 3 {
		t.Fatalf("the flush evaluated %d guards, want 3 (one slot at three processors)", got)
	}
}

// TestStagedWrite pins the staged write of one table entry: nothing
// reaches the table before Commit, an unwritten entry commits nothing
// (also after a Reset that follows a write), and a write to another
// entry panics.
func TestStagedWrite(t *testing.T) {
	vals := []int{1, 2, 3}
	var w Staged[int]
	w.Reset(1)
	w.Commit(vals)
	w.Put(1, 9)
	if !slices.Equal(vals, []int{1, 2, 3}) {
		t.Fatalf("before Commit: %v, want the table untouched", vals)
	}
	w.Commit(vals)
	if !slices.Equal(vals, []int{1, 9, 3}) {
		t.Fatalf("after Commit: %v, want [1 9 3]", vals)
	}
	w.Reset(2)
	w.Commit(vals)
	if !slices.Equal(vals, []int{1, 9, 3}) {
		t.Fatalf("a reset stage committed %v", vals)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put to entry 0 of a stage of entry 2 did not panic")
		}
	}()
	w.Put(0, 5)
}

// TestChoiceSortsInterleavedSlots runs a program whose rule order
// interleaves its slots, rule 0 in slot 2 and rule 1 in slot 1: a
// processor's choice must still offer its indices ascending, as the
// naive scan (the self-check) does.
func TestChoiceSortsInterleavedSlots(t *testing.T) {
	dec := func(s int) Rule {
		return Rule{
			Name:   fmt.Sprintf("dec@%d", s),
			Slot:   s,
			Guard:  func(v *View) bool { return v.Self().(*vecState).v[s-1] > 0 },
			Action: func(v *View) { v.Self().(*vecState).v[s-1]-- },
		}
	}
	cfg := []State{&vecState{v: []int{2, 2}}, &vecState{v: []int{1, 2}}, &vecState{v: []int{2, 1}}}
	e := NewEngine(graph.Line(3), NewProgram(dec(2), dec(1)), allDaemon{}, cfg, WithSelfCheck(true))
	for _, c := range e.Enabled() {
		if !slices.Equal(c.Rules, []int{0, 1}) {
			t.Fatalf("p%d offers rules %v, want [0 1]", c.Process, c.Rules)
		}
	}
	if _, terminal := e.Run(10, nil); !terminal {
		t.Fatal("the decrements did not terminate")
	}
}

// flagState is a one-slot toy state that is no SlotState: hi counts the
// high-priority moves left, ticks the flips of flag left, done records
// the low-priority move.
type flagState struct{ hi, ticks, flag, done int }

func (s *flagState) Clone() State { c := *s; return &c }

// TestLowerPriorityGuardsDeferred pins the deferral of lower-priority
// guards. On a line 0-1-2, p1's "hi" (priority 0) stays enabled while p0
// ticks three times, each tick flipping the flag that p1's "lo" (priority
// 1) reads at its neighbour; a full rescan (Invalidate) falls in between.
// Only then does p1 run hi, which leaves lo, last marked by a tick, the
// one rule to offer. The self-check is off, so after every step the
// engine's own enabled set is compared with EnabledOf, and lo's guard
// must not have run at p1 while hi was enabled.
func TestLowerPriorityGuardsDeferred(t *testing.T) {
	const fHi, fTicks, fFlag, fDone = 1, 2, 4, 8
	self := func(v *View) *flagState { return v.Self().(*flagState) }
	early := 0 // lo's guard runs at p1, outside EnabledOf, while hi is enabled
	counting := true
	rules := []Rule{{
		Name: "hi", Slot: 1, Reads: fHi, Writes: fHi,
		Guard:  func(v *View) bool { return self(v).hi > 0 },
		Action: func(v *View) { self(v).hi-- },
	}, {
		Name: "tick", Slot: 1, Reads: fTicks, Writes: fTicks | fFlag,
		Guard:  func(v *View) bool { return self(v).ticks > 0 },
		Action: func(v *View) { self(v).ticks--; self(v).flag ^= 1 },
	}, {
		Name: "lo", Priority: 1, Slot: 1, Reads: fDone, ReadsNbrs: fFlag, Writes: fDone,
		Guard: func(v *View) bool {
			if v.ID() != 1 {
				return false
			}
			if counting && self(v).hi > 0 {
				early++
			}
			return self(v).done == 0 && v.Read(0).(*flagState).flag == 1
		},
		Action: func(v *View) { self(v).done = 1 },
	}}
	cfg := []State{&flagState{ticks: 3}, &flagState{hi: 1}, &flagState{}}
	e := NewEngine(graph.Line(3), NewProgram(rules...), oneDaemon{}, cfg, WithSelfCheck(false))
	check := func(step int) {
		t.Helper()
		got := e.Enabled()
		now := make([]State, len(cfg))
		for p := range now {
			now[p] = e.PeekStateOf(graph.ProcessID(p))
		}
		counting = false
		want := EnabledOf(e.Graph(), rules, now)
		counting = true
		if diff := diffEnabled(rules, want, got); diff != "" {
			t.Fatalf("after step %d the cache diverges from EnabledOf:\n%s", step, diff)
		}
	}
	check(0)
	for step := 1; e.Step(); step++ {
		if step == 2 {
			e.Invalidate()
		}
		check(step)
	}
	if got := e.MoveCounts(); !maps.Equal(got, map[string]int{"tick": 3, "hi": 1, "lo": 1}) {
		t.Fatalf("moves %v, want tick 3, hi 1, lo 1", got)
	}
	if early != 0 {
		t.Fatalf("lo's guard ran %d times at p1 while hi was enabled, want 0", early)
	}
}
