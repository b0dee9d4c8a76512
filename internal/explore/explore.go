// Package explore is a bounded model checker for state-model protocols: it
// enumerates EVERY configuration reachable from an initial one under EVERY
// central-daemon schedule (one enabled rule fires per step, all
// alternatives branched), checking safety invariants on each state and
// progress at the end. Where the simulation packages sample executions,
// explore exhausts them — on small instances it turns "no seed found a
// violation" into "no central schedule whatsoever violates the property".
//
// Scope: the default branching covers all central schedules; with
// Options.MaxSimultaneity = 2 it additionally enumerates every
// two-processor simultaneous step (the smallest slice of
// distributed-daemon behaviour, where composite atomicity — two actions
// reading the same snapshot — actually differs from interleaving). Larger
// simultaneous subsets are exponential per configuration and are covered
// by the randomized tests instead.
//
// Each explored state is the pair (configuration, history), where history
// is the multiset of generated and delivered message UIDs — exactly what
// Specification SP constrains — read from the obs.KindGenerate and
// obs.KindDeliver events the actions observe (valid deliveries only).
// Properties:
//
//   - Invariant: checked on every reachable state (e.g. no valid message
//     delivered twice, no generated message lost, domains well-typed).
//   - TerminalCheck: checked on every terminal state (e.g. everything
//     generated was delivered exactly once and the buffers are empty).
//   - Progress: every reachable state must be able to reach a terminal
//     state (no deadlock and no inescapable livelock region) — verified
//     by reverse reachability from the terminal states.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// Options configures an exploration.
type Options struct {
	// MaxStates caps the search (default 1 << 20); hitting it sets
	// Result.Truncated and skips the progress check.
	MaxStates int

	// MaxSimultaneity bounds how many processors may fire in one explored
	// step: 1 (default) enumerates all central-daemon schedules; 2 also
	// enumerates every pair of distinct processors executing against the
	// same snapshot — the smallest slice of distributed-daemon behaviour,
	// where composite atomicity actually matters. Larger simultaneity is
	// not enumerated (subset counts explode).
	MaxSimultaneity int

	// Fingerprint renders a configuration canonically (required).
	Fingerprint func(cfg []sm.State) string

	// Invariant is checked on every reachable state.
	Invariant func(cfg []sm.State, generated, delivered map[uint64]int) error

	// TerminalCheck is checked on every terminal state.
	TerminalCheck func(cfg []sm.State, generated, delivered map[uint64]int) error
}

// Result summarizes an exploration.
type Result struct {
	States    int
	Edges     int
	Terminals int
	Truncated bool

	// InvariantErr is the first invariant violation (nil if none);
	// Witness then holds the schedule that reaches the offending state.
	InvariantErr error
	// Witness is the counterexample schedule: one entry per step from the
	// initial configuration to the violating state, each listing the
	// activation(s) of that step as "p<process>:<rule>".
	Witness []string
	// TerminalErr is the first terminal-state violation.
	TerminalErr error
	// DeadEnds counts states from which no terminal is reachable; 0 means
	// progress holds everywhere (only meaningful when not Truncated).
	DeadEnds int
}

// OK reports a fully clean exploration.
func (r Result) OK() bool {
	return !r.Truncated && r.InvariantErr == nil && r.TerminalErr == nil && r.DeadEnds == 0
}

func (r Result) String() string {
	return fmt.Sprintf("explored %d states, %d edges, %d terminals (truncated=%v, deadEnds=%d)",
		r.States, r.Edges, r.Terminals, r.Truncated, r.DeadEnds)
}

// node is one explored state.
type node struct {
	cfg       []sm.State
	enabled   []sm.Choice // enabled choices of cfg, maintained incrementally
	generated map[uint64]int
	delivered map[uint64]int
	succs     []int32
	preds     []int32
	terminal  bool

	// counterexample bookkeeping: the (first) parent and the activations
	// that produced this state from it.
	parent int32
	via    string
}

// historyToken renders a UID multiset canonically.
func historyToken(m map[uint64]int) string {
	if len(m) == 0 {
		return ""
	}
	uids := make([]uint64, 0, len(m))
	for uid := range m {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	var sb strings.Builder
	for _, uid := range uids {
		fmt.Fprintf(&sb, "%x*%d,", uid, m[uid])
	}
	return sb.String()
}

func copyCounts(m map[uint64]int) map[uint64]int {
	out := make(map[uint64]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Explore runs the search from the initial configuration.
func Explore(g *graph.Graph, program sm.Program, initial []sm.State, opts Options) Result {
	if opts.Fingerprint == nil {
		panic("explore: Options.Fingerprint is required")
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	rules := program.Rules()

	var res Result
	nodes := make([]*node, 0, 1024)
	index := make(map[string]int32)

	key := func(n *node) string {
		return opts.Fingerprint(n.cfg) + "|" + historyToken(n.generated) + "|" + historyToken(n.delivered)
	}
	intern := func(n *node) (int32, bool) {
		k := key(n)
		if id, ok := index[k]; ok {
			return id, false
		}
		id := int32(len(nodes))
		nodes = append(nodes, n)
		index[k] = id
		return id, true
	}

	root := &node{
		cfg:       initial,
		enabled:   sm.EnabledOf(g, rules, initial),
		generated: map[uint64]int{},
		delivered: map[uint64]int{},
		parent:    -1,
	}
	rootID, _ := intern(root)
	delta := sm.NewDelta(g, rules)
	queue := []int32{rootID}

	witness := func(n *node) []string {
		var steps []string
		for n.parent >= 0 {
			steps = append(steps, n.via)
			n = nodes[n.parent]
		}
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		return steps
	}
	checkState := func(n *node) bool {
		if opts.Invariant != nil && res.InvariantErr == nil {
			if err := opts.Invariant(n.cfg, n.generated, n.delivered); err != nil {
				res.InvariantErr = err
				res.Witness = witness(n)
				return false
			}
		}
		return true
	}
	if !checkState(root) {
		res.States = 1
		return res
	}

	for len(queue) > 0 && len(nodes) <= maxStates {
		id := queue[0]
		queue = queue[1:]
		n := nodes[id]

		// The enabled set was maintained incrementally when the node was
		// reached: only the closed neighborhoods of the processors that
		// fired on the incoming edge were re-evaluated (sm.Delta),
		// the same shared machinery the engine's incremental mode uses.
		enabled := n.enabled
		if len(enabled) == 0 {
			n.terminal = true
			res.Terminals++
			if opts.TerminalCheck != nil && res.TerminalErr == nil {
				if err := opts.TerminalCheck(n.cfg, n.generated, n.delivered); err != nil {
					res.TerminalErr = fmt.Errorf("terminal state: %w", err)
				}
			}
			continue
		}
		expand := func(sels []sm.Selection) bool {
			succCfg := append([]sm.State(nil), n.cfg...)
			succ := &node{cfg: succCfg, generated: n.generated, delivered: n.delivered, parent: id}
			var viaParts []string
			for _, sel := range sels {
				viaParts = append(viaParts, fmt.Sprintf("p%d:%s", sel.Process, rules[sel.Rule].Name))
			}
			succ.via = strings.Join(viaParts, "+")
			executed := make([]graph.ProcessID, 0, len(sels))
			for _, sel := range sels {
				newState, events := sm.ApplySelection(g, rules, n.cfg, sel, 0)
				succCfg[sel.Process] = newState
				executed = append(executed, sel.Process)
				for _, ev := range events {
					switch {
					case ev.Kind == obs.KindGenerate:
						succ.generated = copyCounts(succ.generated)
						succ.generated[ev.Msg.UID]++
					case ev.Kind == obs.KindDeliver && ev.Msg.Valid:
						// Invalid repeats are allowed (Prop. 4 territory).
						succ.delivered = copyCounts(succ.delivered)
						succ.delivered[ev.Msg.UID]++
					}
				}
			}
			succ.enabled = delta.Enabled(succCfg, n.enabled, executed)
			sid, fresh := intern(succ)
			n.succs = append(n.succs, sid)
			nodes[sid].preds = append(nodes[sid].preds, id)
			res.Edges++
			if fresh {
				if !checkState(succ) {
					return false
				}
				queue = append(queue, sid)
			}
			return true
		}
		for _, c := range enabled {
			for _, ri := range c.Rules {
				if !expand([]sm.Selection{{Process: c.Process, Rule: ri}}) {
					res.States = len(nodes)
					return res
				}
			}
		}
		if opts.MaxSimultaneity >= 2 {
			for i := 0; i < len(enabled); i++ {
				for j := i + 1; j < len(enabled); j++ {
					for _, ri := range enabled[i].Rules {
						for _, rj := range enabled[j].Rules {
							pair := []sm.Selection{
								{Process: enabled[i].Process, Rule: ri},
								{Process: enabled[j].Process, Rule: rj},
							}
							if !expand(pair) {
								res.States = len(nodes)
								return res
							}
						}
					}
				}
			}
		}
	}
	res.States = len(nodes)
	if len(queue) > 0 {
		res.Truncated = true
		return res
	}

	// Progress: reverse reachability from the terminal states.
	reach := make([]bool, len(nodes))
	var stack []int32
	for i, n := range nodes {
		if n.terminal {
			reach[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pred := range nodes[id].preds {
			if !reach[pred] {
				reach[pred] = true
				stack = append(stack, pred)
			}
		}
	}
	for _, ok := range reach {
		if !ok {
			res.DeadEnds++
		}
	}
	return res
}
