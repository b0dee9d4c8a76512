// Package statemodel implements the locally shared memory model of
// computation from §2.1 of the paper: every processor runs a finite set of
// guarded actions over shared variables, a processor may write only its own
// variables and read its own and its neighbors', and execution proceeds in
// atomic three-phase steps — (i) every processor evaluates its guards on the
// current configuration, (ii) a daemon chooses a non-empty subset of the
// enabled processors, (iii) every chosen processor executes one of its
// enabled actions, all reads referring to the pre-step configuration.
//
// The package also implements the round complexity measure of
// Dolev-Israeli-Moran as modified by Bui-Datta-Petit-Villain: the first
// round of an execution is its minimal prefix in which every processor that
// was enabled at the start of the round has either executed an action or
// been neutralized.
package statemodel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// State is the local state of one processor: the values of its shared
// variables. Clone must return a deep copy: a slot-0 move runs on a clone
// while every other action of the same step still reads the pre-step
// configuration, and the clone replaces the state at the commit.
type State interface {
	Clone() State
}

// SlotState is a State sliced into slots (see Rule.Slot) whose slotted
// moves write through a staged write instead of a clone. Stage readies a
// scratch for an action of the given slot (> 0) at the receiver and
// returns it, reusing scratch if it is one an earlier Stage returned (nil
// or anything else: allocate one). The scratch reads as the receiver
// does, and the receiver holds its pre-step values until the step
// commits; it keeps the action's writes, to the slot and to the unsliced
// fields, to itself, and a write to any other slot panics. Commit writes
// a scratch's staged writes into the receiver in place: the state Stage
// was called on, or a Clone of it. The engine commits a step's moves only
// after all of them have run.
type SlotState interface {
	State
	Stage(scratch State, slot int) State
	Commit(scratch State)
}

// Staged is a scratch's one pending write to a per-slot table of a
// SlotState: the entry its rule may write, the value, and whether the
// action wrote it.
type Staged[T any] struct {
	i   int
	v   T
	set bool
}

// Reset stages entry i, not yet written.
func (w *Staged[T]) Reset(i int) { *w = Staged[T]{i: i} }

// Put stages v as entry i. A slotted action writes only its own slot, so
// Put panics for any other entry.
func (w *Staged[T]) Put(i int, v T) {
	if i != w.i {
		panic(fmt.Sprintf("statemodel: staged write to entry %d by a rule of entry %d", i, w.i))
	}
	w.v, w.set = v, true
}

// Commit writes the staged value into vals if the action wrote one.
func (w *Staged[T]) Commit(vals []T) {
	if w.set {
		vals[w.i] = w.v
	}
}

// Event is the engine's one observation: the typed obs.Event. Actions
// publish the protocol's own events through View.Observe; the engine
// adds one obs.KindFire per selection, one obs.KindStep per step and one
// obs.KindRound at every round boundary. Specification checkers, trace
// recorders and JSONL sinks all read this stream via Engine.Subscribe.
type Event = obs.Event

// View is a rule's window onto the configuration. During guard evaluation
// it provides read-only access to the processor's own state and its
// neighbors' states (pre-step snapshot). During action execution Self
// returns a private mutable clone; reads of other processors still see the
// pre-step snapshot, which gives the model's composite atomicity. A View
// is valid only for the guard or action call it is passed to: the engine
// reuses it.
type View struct {
	id       graph.ProcessID
	g        *graph.Graph
	snapshot []State
	self     State // nil during guard evaluation (fall back to snapshot)
	step     int
	round    int      // stamped on events
	rule     string   // executing rule's name, stamped on every event
	events   *[]Event // nil when nothing subscribes to the engine
}

// ID returns the processor evaluating or executing the rule.
func (v *View) ID() graph.ProcessID { return v.id }

// Step returns the index of the current step.
func (v *View) Step() int { return v.step }

// Graph returns the network topology (identities, neighbor sets, Δ, D are
// assumed known to every processor, per §2 of the paper).
func (v *View) Graph() *graph.Graph { return v.g }

// Neighbors returns N_p for the executing processor.
func (v *View) Neighbors() []graph.ProcessID { return v.g.Neighbors(v.id) }

// Self returns the processor's own state: the snapshot during guard
// evaluation, the action's scratch or clone during action execution.
func (v *View) Self() State {
	if v.self != nil {
		return v.self
	}
	return v.snapshot[v.id]
}

// Read returns the pre-step state of processor q. The shared memory model
// only allows a processor to read its own variables and its neighbors';
// Read panics on any other access, catching locality violations in
// protocol code.
func (v *View) Read(q graph.ProcessID) State {
	if q != v.id && !slices.Contains(v.g.Neighbors(v.id), q) {
		panic(fmt.Sprintf("statemodel: locality violation: %d read state of non-neighbor %d", v.id, q))
	}
	return v.snapshot[q]
}

// Observing reports whether anything subscribes to the executing
// engine. Actions use it to skip the construction of events on the
// zero-subscriber fast path. Always false during guard evaluation.
func (v *View) Observing() bool { return v.events != nil }

// Observe records an event; a no-op when nothing subscribes. Step, Round,
// Proc and Rule are stamped from the executing selection, so actions only
// fill the kind-specific fields.
func (v *View) Observe(ev Event) {
	if v.events != nil {
		ev.Step, ev.Round, ev.Proc, ev.Rule = v.step, v.round, v.id, v.rule
		*v.events = append(*v.events, ev)
	}
}

// Rule is one guarded action < label > :: < guard > → < statement >.
// Guards must be side-effect free; actions mutate only v.Self() and
// observe events. Priority implements the paper's inter-protocol priority: a
// processor with an enabled rule of priority k never executes a rule of
// priority > k (lower number = higher priority). The routing algorithm A
// runs at priority 0, SSMFP at priority 1. The engine does not evaluate
// the guards of priority > k at such a processor until its rules of
// priority k are all disabled, so a guard must not count on being run.
//
// Slot is the part of the processor's state the rule belongs to, e.g. one
// destination of a per-destination protocol. Slot 0, the default, is the
// whole processor. A slotted rule declares the fields of its slot (and
// Unsliced, which a guard reads only at p) that its guard reads at p and
// at each neighbour and its action writes at p; a move re-evaluates only
// the guards that read a field it wrote. All three zero: the guard reads
// the slot in N[p] and p's unsliced fields, the action writes the slot.
// The engine's self-check catches a guard that reads outside its footprint.
type Rule struct {
	Name                     string
	Priority                 int
	Slot                     int
	Reads, ReadsNbrs, Writes Footprint
	Guard                    func(v *View) bool
	Action                   func(v *View)
}

// Footprint is a set of fields of a rule's slot, one bit each as the
// program numbers them, plus the engine's Unsliced bit.
type Footprint uint64

// Unsliced stands for a processor's fields outside every slot.
const Unsliced Footprint = 1 << 63

// Program is the collection of rules run by every processor. Programs are
// uniform: all processors run the same rule set (rules observe v.ID() to
// behave per-processor, e.g. the destination acts differently).
type Program interface {
	Rules() []Rule
}

// Compose concatenates programs into one, preserving each rule's declared
// priority. Use it to run the routing algorithm A "simultaneously" with
// SSMFP as the paper prescribes.
func Compose(programs ...Program) Program {
	var rules []Rule
	for _, p := range programs {
		rules = append(rules, p.Rules()...)
	}
	return rulesProgram(rules)
}

type rulesProgram []Rule

func (r rulesProgram) Rules() []Rule { return r }

// NewProgram builds a Program from an explicit rule list.
func NewProgram(rules ...Rule) Program { return rulesProgram(rules) }

// InstanceNames returns the rule names bases[k]@d, d < n, at index
// d*len(bases)+k, cut from one backing string.
func InstanceNames(n int, bases ...string) []string {
	var buf []byte
	for d := 0; d < n; d++ {
		for _, b := range bases {
			buf = append(strconv.AppendInt(append(append(buf, b...), '@'), int64(d), 10), ' ')
		}
	}
	return strings.Fields(string(buf))
}

// Choice lists, for one enabled processor, the indices of its enabled rules
// after priority filtering (only the minimal enabled priority class is
// offered, per the paper's priority assumption).
type Choice struct {
	Process graph.ProcessID
	Rules   []int
}

// Selection is a daemon's decision to activate one rule at one processor.
type Selection struct {
	Process graph.ProcessID
	Rule    int
}

// Daemon decides which enabled processors execute at each step. Contract
// (checked by the engine): the returned set is non-empty whenever enabled
// is non-empty, contains each processor at most once, and every selection
// picks a rule offered in that processor's Choice. This matches the
// distributed daemon of §2.1; a central daemon simply returns a single
// selection. enabled, and the Rules of its choices, are valid only during
// Select: the engine rewrites their storage at its next flush, so a
// daemon that keeps any of it past the call must copy it. In the other
// direction, the returned slice is valid until the next Select: the
// engine consumes it within the step, so a daemon may hand out the same
// buffer each time.
type Daemon interface {
	Name() string
	Select(step int, enabled []Choice) []Selection
}

// EnabledOf computes the enabled choices of an arbitrary configuration —
// the pure-function core of Engine.Enabled, exported for exhaustive
// state-space exploration (internal/explore), which needs to evaluate
// configurations that are not installed in any engine. Priority filtering
// is applied exactly as in the engine.
func EnabledOf(g *graph.Graph, rules []Rule, cfg []State) []Choice {
	return scanEnabled(g, rules, cfg, 0)
}

// scanEnabled is the naive full sweep: every guard of every processor is
// evaluated on cfg.
func scanEnabled(g *graph.Graph, rules []Rule, cfg []State, step int) []Choice {
	var enabled []Choice
	for p := 0; p < g.N(); p++ {
		c := enabledAtConfig(g, rules, cfg, graph.ProcessID(p), step)
		if len(c.Rules) > 0 {
			enabled = append(enabled, c)
		}
	}
	return enabled
}

// Delta incrementally updates enabled sets after localized configuration
// changes, for one program on one graph. It builds the rule masks once
// and reuses the engine's evaluator between calls, so an exhaustive
// exploration (internal/explore) pays for them once. A Delta is
// not safe for concurrent use.
type Delta struct {
	g     *graph.Graph
	cache *enabledCache
}

// NewDelta returns a Delta for rules on g.
func NewDelta(g *graph.Graph, rules []Rule) *Delta {
	return &Delta{g: g, cache: newEnabledCache(rules, g.N())}
}

// Enabled returns the enabled choices of cfg: prev must be the enabled
// choices of the configuration cfg was derived from, and changed the
// processors whose state differs. Because a guard at p reads only the
// closed neighborhood N[p] (enforced by View.Read), enabledness can have
// changed only inside N[changed]; exactly those processors are
// re-evaluated, every rule of each, and everything else is carried over
// from prev. The result is freshly allocated and sorted by processor ID,
// identical to EnabledOf(g, rules, cfg); its carried choices share their
// rules with prev.
func (d *Delta) Enabled(cfg []State, prev []Choice, changed []graph.ProcessID) []Choice {
	for _, p := range changed {
		d.cache.markClosed(d.g, p)
	}
	list, _, _ := d.cache.flush(d.g, cfg, prev, nil, 0, true)
	return list
}

// enabledAtConfig evaluates the guards of p on cfg, offering only the
// minimal enabled priority class.
func enabledAtConfig(g *graph.Graph, rules []Rule, cfg []State, p graph.ProcessID, step int) Choice {
	v := &View{id: p, g: g, snapshot: cfg, step: step}
	best := int(^uint(0) >> 1)
	var idxs []int
	for i, r := range rules {
		if r.Priority > best {
			continue
		}
		if r.Guard(v) {
			if r.Priority < best {
				best = r.Priority
				idxs = idxs[:0]
			}
			idxs = append(idxs, i)
		}
	}
	return Choice{Process: p, Rules: idxs}
}

// ApplySelection executes one selection against cfg without mutating it:
// it returns the successor state of the selected processor (a staged
// write is committed onto a Clone of its state) and the events the action
// observed (no fire marker). The caller is responsible for only applying
// selections whose guards hold on cfg.
func ApplySelection(g *graph.Graph, rules []Rule, cfg []State, sel Selection, step int) (State, []Event) {
	var events []Event
	s := apply(&View{}, g, rules, cfg, sel, nil, step, 0, &events)
	if _, ok := stagedMove(cfg[sel.Process], &rules[sel.Rule]); ok {
		succ := cfg[sel.Process].Clone().(SlotState)
		succ.Commit(s)
		return succ, events
	}
	return s, events
}

// stagedMove reports whether a move of r at a processor in state s runs
// on a staged write (a slotted rule of a SlotState) rather than a Clone.
func stagedMove(s State, r *Rule) (SlotState, bool) {
	ss, ok := s.(SlotState)
	return ss, ok && r.Slot > 0
}

// apply runs sel's action through v, every read seeing cfg, and returns
// what the action wrote: for a staged move, scratch restaged by
// SlotState.Stage (so scratch may be nil), for any other a deep Clone of
// the processor's state. cfg is not written; the caller commits the
// result. Observed events are appended to *events (nil: nothing
// subscribes), each stamped with the selection's step, round, processor
// and rule. It is the executor shared by ApplySelection and Engine.Step.
func apply(v *View, g *graph.Graph, rules []Rule, cfg []State, sel Selection, scratch State, step, round int, events *[]Event) State {
	r := &rules[sel.Rule]
	var self State
	if ss, ok := stagedMove(cfg[sel.Process], r); ok {
		self = ss.Stage(scratch, r.Slot)
	} else {
		self = cfg[sel.Process].Clone()
	}
	*v = View{
		id:       sel.Process,
		g:        g,
		snapshot: cfg,
		self:     self,
		step:     step,
		round:    round,
		rule:     r.Name,
		events:   events,
	}
	r.Action(v)
	return v.self
}
