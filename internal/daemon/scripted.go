package daemon

import (
	"fmt"

	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// ScriptStep names the activations of one step of a scripted execution:
// which processors fire which rules (by rule name).
type ScriptStep []struct {
	Process graph.ProcessID
	Rule    string
}

// Act builds one activation of a ScriptStep.
func Act(p graph.ProcessID, rule string) struct {
	Process graph.ProcessID
	Rule    string
} {
	return struct {
		Process graph.ProcessID
		Rule    string
	}{p, rule}
}

// Scripted replays a fixed schedule: at step i it activates exactly the
// processors/rules of script[i]. It panics with a precise diagnostic if a
// scripted activation is not enabled — scripted runs are golden replays
// (Figure 3) where any divergence is a bug. After the script is exhausted
// it delegates to the fallback daemon (nil fallback: panic on extra steps).
type Scripted struct {
	rules    []sm.Rule
	script   []ScriptStep
	fallback sm.Daemon
	cursor   int
	buf      []sm.Selection
}

// NewScripted builds a scripted daemon for a program (the engine's rule
// indexing follows program.Rules() order).
func NewScripted(program sm.Program, script []ScriptStep, fallback sm.Daemon) *Scripted {
	return &Scripted{rules: program.Rules(), script: script, fallback: fallback}
}

// Exhausted reports whether the whole script has been replayed.
func (d *Scripted) Exhausted() bool { return d.cursor >= len(d.script) }

func (d *Scripted) Name() string { return "scripted" }

func (d *Scripted) Select(step int, enabled []sm.Choice) []sm.Selection {
	if d.cursor >= len(d.script) {
		if d.fallback == nil {
			panic(fmt.Sprintf("daemon: script exhausted after %d steps but execution continues", len(d.script)))
		}
		return d.fallback.Select(step, enabled)
	}
	want := d.script[d.cursor]
	d.cursor++
	byProc := make(map[graph.ProcessID]sm.Choice, len(enabled))
	for _, c := range enabled {
		byProc[c.Process] = c
	}
	out := d.buf[:0]
	for _, act := range want {
		c, ok := byProc[act.Process]
		if !ok {
			panic(fmt.Sprintf("daemon: script step %d: processor %d has no enabled rule (wanted %s); enabled set: %v",
				d.cursor-1, act.Process, act.Rule, describe(enabled, d.rules)))
		}
		found := -1
		for _, ri := range c.Rules {
			if d.rules[ri].Name == act.Rule {
				found = ri
				break
			}
		}
		if found < 0 {
			panic(fmt.Sprintf("daemon: script step %d: rule %s not enabled at processor %d; enabled there: %s",
				d.cursor-1, act.Rule, act.Process, describeChoice(c, d.rules)))
		}
		out = append(out, sm.Selection{Process: act.Process, Rule: found})
	}
	d.buf = out
	return out
}

func describe(enabled []sm.Choice, rules []sm.Rule) string {
	s := ""
	for i, c := range enabled {
		if i > 0 {
			s += "; "
		}
		s += describeChoice(c, rules)
	}
	return s
}

func describeChoice(c sm.Choice, rules []sm.Rule) string {
	s := fmt.Sprintf("p%d:[", c.Process)
	for i, ri := range c.Rules {
		if i > 0 {
			s += ","
		}
		s += rules[ri].Name
	}
	return s + "]"
}
