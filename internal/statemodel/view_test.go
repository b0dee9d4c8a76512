package statemodel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// TestViewReadLocality pins View.Read's locality contract in both
// directions: reads of the closed neighborhood succeed, any other read
// panics with a message naming both processors. The incremental engine
// relies on exactly this contract (a guard at p depends only on N[p]), so
// the panic is load-bearing, not cosmetic.
func TestViewReadLocality(t *testing.T) {
	g := graph.Line(4) // 0-1-2-3
	cfg := intConfig(10, 11, 12, 13)
	cases := []struct {
		name      string
		reader    graph.ProcessID
		target    graph.ProcessID
		wantPanic bool
	}{
		{"self", 1, 1, false},
		{"left neighbor", 1, 0, false},
		{"right neighbor", 1, 2, false},
		{"distance two", 0, 2, true},
		{"distance three", 0, 3, true},
		{"reverse non-neighbor", 3, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := &View{id: c.reader, g: g, snapshot: cfg}
			defer func() {
				r := recover()
				if c.wantPanic {
					if r == nil {
						t.Fatalf("Read(%d) from %d: expected locality panic", c.target, c.reader)
					}
					msg := fmt.Sprint(r)
					if !strings.Contains(msg, "locality violation") ||
						!strings.Contains(msg, fmt.Sprint(c.reader)) ||
						!strings.Contains(msg, fmt.Sprint(c.target)) {
						t.Fatalf("panic message should name the violation and both processors, got: %s", msg)
					}
					return
				}
				if r != nil {
					t.Fatalf("Read(%d) from %d: unexpected panic %v", c.target, c.reader, r)
				}
			}()
			if got := v.Read(c.target).(*intState).v; got != 10+int(c.target) {
				t.Fatalf("Read(%d) = %d, want %d", c.target, got, 10+int(c.target))
			}
		})
	}
}

// scriptDaemon selects script[step] at every step, ignoring the offer.
type scriptDaemon [][]Selection

func (scriptDaemon) Name() string                              { return "script" }
func (d scriptDaemon) Select(step int, _ []Choice) []Selection { return d[step] }

// TestRuleOfBackfill pins the rule name of observed events: every event an
// action observes carries the rule of the selection that observed it, never
// the rule of another processor's or another step's fire marker, and it
// precedes its own selection's fire marker. "No fire at all" runs
// ApplySelection, which emits no fire marker but still names the rule.
func TestRuleOfBackfill(t *testing.T) {
	emitter := func(name string) Rule {
		return Rule{Name: name, Guard: func(*View) bool { return true }, Action: func(v *View) { v.Observe(Event{Kind: obs.KindGenerate}) }}
	}
	prog := NewProgram(emitter("emitA"), emitter("emitB"),
		Rule{Name: "quiet", Guard: func(*View) bool { return true }, Action: func(*View) {}})
	const a, b, q = 0, 1, 2
	sel := func(p graph.ProcessID, rule int) Selection { return Selection{Process: p, Rule: rule} }
	cases := []struct {
		name   string
		script scriptDaemon
		apply  bool // run ApplySelection on script[0][0] instead of an engine
		want   []string
	}{
		{"emit then own fire", scriptDaemon{{sel(1, a)}}, false,
			[]string{"0/1/emitA/generate", "0/1/emitA/fire"}},
		{"interleaved processors", scriptDaemon{{sel(1, a), sel(2, q), sel(3, b)}}, false,
			[]string{"0/1/emitA/generate", "0/1/emitA/fire", "0/2/quiet/fire", "0/3/emitB/generate", "0/3/emitB/fire"}},
		{"two emits same step", scriptDaemon{{sel(1, a), sel(2, b)}}, false,
			[]string{"0/1/emitA/generate", "0/1/emitA/fire", "0/2/emitB/generate", "0/2/emitB/fire"}},
		{"first of two fires wins", scriptDaemon{{sel(1, a)}, {sel(1, b)}}, false,
			[]string{"0/1/emitA/generate", "0/1/emitA/fire", "1/1/emitB/generate", "1/1/emitB/fire"}},
		{"no fire at all", scriptDaemon{{sel(1, a)}}, true,
			[]string{"0/1/emitA/generate"}},
		{"only other processor fires", scriptDaemon{{sel(1, q), sel(2, a)}}, false,
			[]string{"0/1/quiet/fire", "0/2/emitA/generate", "0/2/emitA/fire"}},
		{"fire before emit (unexpected order)", scriptDaemon{{sel(1, q)}, {sel(1, a)}}, false,
			[]string{"0/1/quiet/fire", "1/1/emitA/generate", "1/1/emitA/fire"}},
	}
	render := func(ev Event) string { return fmt.Sprintf("%d/%d/%s/%s", ev.Step, ev.Proc, ev.Rule, ev.Kind) }
	g := graph.Line(4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.apply {
				_, events := ApplySelection(g, prog.Rules(), intConfig(0, 0, 0, 0), c.script[0][0], 0)
				var got []string
				for _, ev := range events {
					got = append(got, render(ev))
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Fatalf("ApplySelection events = %v, want %v", got, c.want)
				}
				return
			}
			e := NewEngine(g, prog, c.script, intConfig(0, 0, 0, 0))
			var got []string
			e.Subscribe(func(ev Event) {
				if ev.Kind != obs.KindStep && ev.Kind != obs.KindRound {
					got = append(got, render(ev))
				}
			})
			e.Run(len(c.script), nil)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("events = %v, want %v", got, c.want)
			}
		})
	}
}

// TestEngineBackfillsEmitRule drives the backfill end to end: events
// published by the engine carry the observing rule's name.
func TestEngineBackfillsEmitRule(t *testing.T) {
	prog := NewProgram(Rule{
		Name:  "announce",
		Guard: func(v *View) bool { return v.Self().(*intState).v == 0 },
		Action: func(v *View) {
			v.Observe(Event{Kind: obs.KindGenerate})
			v.Self().(*intState).v = 1
		},
	})
	g := graph.Line(2)
	e := NewEngine(g, prog, allDaemon{}, intConfig(0, 0))
	var rules []string
	e.Subscribe(func(ev Event) {
		if ev.Kind == obs.KindGenerate {
			rules = append(rules, ev.Rule)
		}
	})
	e.Run(10, nil)
	if len(rules) != 2 || rules[0] != "announce" || rules[1] != "announce" {
		t.Fatalf("backfilled rules = %v, want [announce announce]", rules)
	}
}
