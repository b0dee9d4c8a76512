package statemodel

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// Stats counts the enabled-set work an engine has performed. GuardEvals is
// the headline number: the naive engine evaluates every slot of every
// processor per step, the incremental engine only the (processor, slot)
// pairs that a move or a mutation marked. Within a slot, guards are
// evaluated in rule order and a rule of lower priority than the slot's
// best enabled one so far is skipped (the per-slot priority filter).
// Self-check sweeps are excluded from every counter so checked and
// unchecked runs report the same work.
type Stats struct {
	Steps      int   // engine steps executed
	FullScans  int   // complete enabled-set rebuilds (all N processors)
	Flushes    int   // incremental cache flushes (marked slots only)
	GuardEvals int64 // guard invocations, full scans and flushes combined

	ProcsEvaluated int64 // processors whose choice was (re-)computed
	ProcsSkipped   int64 // processors served from the cache during flushes
	DirtyMarks     int64 // cumulative (processor, slot) marks at flush time

	SelfChecks int // naive recomputations performed by the self-check mode

	// ParallelMoves is always 0: the engine runs every step serially.
	// Its only reader is perfbench's parallel_moves_share figure; it goes
	// at the next change to the benchmark.
	ParallelMoves int64
}

// Engine executes a Program on a Graph under a Daemon, starting from an
// arbitrary initial configuration (the essence of stabilization: the
// initial states are inputs, not something the engine sanitizes).
//
// By default the engine maintains the enabled-Choice set incrementally,
// cached per (processor, slot) (see Rule.Slot and slots.go): after a move
// of a slot-s rule at p only slot s is re-evaluated in N[p], since a guard
// at p reads only N[p] — the locality that View.Read enforces on protocol
// code — and a slotted guard only its slot there. A processor whose state
// was replaced or handed out for mutation has every slot of its closed
// neighborhood re-evaluated. WithIncremental(false) restores the naive
// full scan per step; WithSelfCheck(true) — the default under `go test`
// — recomputes the enabled set naively every step, panicking with a
// minimal per-processor diff on any divergence (which is how a rule that
// reads outside its declared slot is caught).
//
// Every step runs one code path: re-evaluate the marked guards, merge
// the fresh choices into the enabled set, let the daemon select, execute
// each selection in order through one executor against the pre-step
// configuration, and only then commit them all: a staged write
// (SlotState) in place, a slot-0 move's clone by replacing the state.
type Engine struct {
	g      *graph.Graph
	rules  []Rule
	daemon Daemon
	states []State

	step   int
	rounds int
	moves  []int // rule index -> executions

	// event stream: the subscribers in subscription order (a detached
	// one is nil), how many are attached, and the last stamped Seq.
	subs  []func(Event)
	nsubs int
	seq   uint64

	// round accounting: the processors enabled at the start of the
	// current round that have neither executed nor been neutralized yet.
	roundPending []bool
	pendingLeft  int // processors still pending in the round
	roundOpen    bool
	lastEnabled  []Choice    // the previous step's pre-step set, to detect neutralizations
	lastBuf      *choiceList // the one lastEnabled reads
	inStep       bool        // Rounds() settles lazily only between steps

	// incremental enabled-set cache
	incremental  bool
	selfCheck    bool
	enabledValid bool
	enabledList  []Choice    // memoized enabled set; valid iff enabledValid
	enabledBuf   *choiceList // the stepBuffers.lists entry enabledList reads, if any
	heldBuf      *choiceList // the one the pre-step set of the step in progress reads
	cache        *slotCache  // per-(processor, slot) cache, built at the first scan
	stats        Stats

	buf stepBuffers
}

// stepBuffers is the per-step scratch of Step, reused across steps so the
// bookkeeping allocates nothing once warm.
type stepBuffers struct {
	view   View    // the executing view
	next   []State // per selection (at most one per processor): its scratch or clone until the commit, then a scratch to reuse or nil
	events []Event
	lists  [3]choiceList // storage of the enabled sets (see freeList)

	offer  []int32  // processor -> index of its Choice in the validated set
	mark   []uint32 // processor -> generation it was last offered/enabled in
	picked []uint32 // processor -> generation it was last selected in
	gen    uint32
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithIncremental toggles the incremental enabled-set cache (default on).
func WithIncremental(on bool) EngineOption {
	return func(e *Engine) { e.incremental = on }
}

// WithSelfCheck toggles the differential self-check: every Step recomputes
// the enabled set with the naive full scan and panics with a minimal diff
// if the incremental cache diverged. The default is on under `go test`
// (testing.Testing()), off otherwise.
func WithSelfCheck(on bool) EngineOption {
	return func(e *Engine) { e.selfCheck = on }
}

// WithShards does nothing: the engine runs every step serially. Its only
// caller is perfbench's engine workload; it goes at the next change to
// the benchmark.
func WithShards(k int, seed int64) EngineOption {
	return func(*Engine) {}
}

// NewEngine builds an engine over g running program under daemon, with the
// given initial configuration (one State per processor, indexed by ID).
// The engine owns those states: its steps write them in place.
func NewEngine(g *graph.Graph, program Program, daemon Daemon, initial []State, opts ...EngineOption) *Engine {
	if !g.Frozen() {
		panic("statemodel: NewEngine requires a frozen graph")
	}
	if len(initial) != g.N() {
		panic(fmt.Sprintf("statemodel: initial configuration has %d states, graph has %d processors", len(initial), g.N()))
	}
	for p, s := range initial {
		if s == nil {
			panic(fmt.Sprintf("statemodel: nil initial state for processor %d", p))
		}
	}
	rules := program.Rules()
	if len(rules) == 0 {
		panic("statemodel: program has no rules")
	}
	e := &Engine{
		g:            g,
		rules:        rules,
		daemon:       daemon,
		states:       append([]State(nil), initial...),
		moves:        make([]int, len(rules)),
		roundPending: make([]bool, g.N()),
		incremental:  true,
		selfCheck:    testing.Testing(),
		buf: stepBuffers{
			next:   make([]State, g.N()),
			offer:  make([]int32, g.N()),
			mark:   make([]uint32, g.N()),
			picked: make([]uint32, g.N()),
		},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Graph returns the topology the engine runs on.
func (e *Engine) Graph() *graph.Graph { return e.g }

// StateOf returns the current state of processor p. Because many callers
// (workload injection, fault injection, tests) mutate the returned state
// in place, the engine conservatively marks p dirty so the incremental
// cache re-evaluates every slot of N[p] at the next flush. Use
// PeekStateOf on hot read-only paths. The engine owns the state: a step
// commits a slotted move into it in place (SlotState) and replaces it
// after a slot-0 move, so the value read is p's state only until the
// next Step. Clone it to keep it longer.
func (e *Engine) StateOf(p graph.ProcessID) State {
	e.markDirty(p)
	return e.states[p]
}

// PeekStateOf returns the current state of processor p without
// invalidating the incremental cache. The caller must not mutate it. As
// with StateOf, the value is p's state only until the next Step, which
// writes states in place: a configuration built from PeekStateOf is the
// live one, so clone each state of a snapshot that must outlive a step.
func (e *Engine) PeekStateOf(p graph.ProcessID) State { return e.states[p] }

// SetStateOf replaces the state of processor p. Intended for scenario
// setup (fault injection between runs); not for use by protocol code.
// Besides invalidating the incremental cache it resets the round
// bookkeeping: the pending set and neutralization baseline describe a
// configuration that no longer exists, so the current partial round is
// abandoned (a round already complete under the old configuration is
// still counted first).
func (e *Engine) SetStateOf(p graph.ProcessID, s State) {
	e.settleRounds()
	e.states[p] = s
	e.Invalidate(p)
}

// Invalidate tells the engine that the states of the given processors were
// (or may have been) mutated behind its back: every slot of their closed
// neighborhoods is re-evaluated at the next flush and the round
// bookkeeping is reset, exactly as for SetStateOf. With no arguments the
// whole enabled-set cache is dropped.
func (e *Engine) Invalidate(ps ...graph.ProcessID) {
	if len(ps) == 0 {
		e.enabledValid = false
		if e.cache != nil {
			e.cache.clearMarks()
		}
	} else {
		for _, p := range ps {
			e.markDirty(p)
		}
	}
	e.resetRoundBookkeeping()
}

func (e *Engine) resetRoundBookkeeping() {
	clear(e.roundPending)
	e.pendingLeft = 0
	e.roundOpen = false
	e.lastEnabled, e.lastBuf = nil, nil
}

// Steps returns the number of executed steps.
func (e *Engine) Steps() int { return e.step }

// Rounds returns the number of completed rounds (see package comment).
// Between steps the count is settled first: a round whose pending
// processors have all executed or been neutralized is closed immediately
// rather than at the start of the next step, so the count is exact even at
// a terminal configuration that no further Step call will visit. During a
// step (i.e. inside event subscribers) the raw count is returned.
func (e *Engine) Rounds() int {
	if !e.inStep {
		e.settleRounds()
	}
	return e.rounds
}

// settleRounds closes the current round if it is already complete under
// the current configuration.
func (e *Engine) settleRounds() {
	if !e.roundOpen {
		return
	}
	e.closeRoundBookkeeping(e.enabledCurrent())
}

// Moves returns how many times the named rule has executed.
func (e *Engine) Moves(rule string) int { return e.MoveCounts()[rule] }

// TotalMoves returns the total number of executed actions.
func (e *Engine) TotalMoves() int {
	t := 0
	for _, c := range e.moves {
		t += c
	}
	return t
}

// MoveCounts returns the per-rule execution counters by rule name, for
// the rules that have executed.
func (e *Engine) MoveCounts() map[string]int {
	out := make(map[string]int)
	for i, c := range e.moves {
		if c > 0 {
			out[e.rules[i].Name] += c
		}
	}
	return out
}

// Stats returns a copy of the instrumentation counters.
func (e *Engine) Stats() Stats { return e.stats }

// Subscribe attaches fn to the engine's event stream and returns the
// closure that detaches it (idempotent). Subscribers run synchronously,
// in subscription order, on the goroutine that steps the engine. With no
// subscriber the engine builds no events at all; with subscribers it
// publishes, in commit order after each step's writes: the actions' own
// events (stamped with step, round, processor and rule), one
// obs.KindFire per selection, one obs.KindStep per step, and one
// obs.KindRound at every round boundary.
func (e *Engine) Subscribe(fn func(Event)) (unsubscribe func()) {
	i := len(e.subs)
	e.subs = append(e.subs, fn)
	e.nsubs++
	return func() {
		if e.subs[i] != nil {
			e.subs[i] = nil
			e.nsubs--
		}
	}
}

// Publish hands an event from outside the rules (a fault injection, a
// stabilization marker) to the subscribers, in order with the engine's
// own events. It stamps Seq; with no subscriber it is a no-op and
// consumes no sequence number, so a recorded stream is gapless.
func (e *Engine) Publish(ev Event) {
	if e.nsubs == 0 {
		return
	}
	e.seq++
	ev.Seq = e.seq
	for _, fn := range e.subs {
		if fn != nil {
			fn(ev)
		}
	}
}

// --- incremental enabled-set cache ------------------------------------

// markDirty schedules every slot of N[p] for re-evaluation; a no-op
// while the cache is off or invalid (the next scan is a full one).
func (e *Engine) markDirty(p graph.ProcessID) {
	if !e.incremental || !e.enabledValid {
		return
	}
	e.cache.markClosed(e.g, p)
}

// enabledCurrent returns the enabled choices of the current configuration:
// a full scan when the cache is off or invalid, otherwise the memoized
// list with the marked (processor, slot) pairs re-evaluated first. Both
// are one flush of the slot cache. Callers inside the engine must not
// mutate the list. A rebuild writes only into storage no live list
// reads (freeList), so a list handed out before a flush (the pre-step
// set a Step holds, the previous step's set) stays intact.
//
// Building into reused storage copies the rules of every carried choice,
// so a flush does it only when it rebuilds at least half as many
// processors as prev holds (a synchronous step). One that rebuilds fewer
// (a central daemon's step) allocates its fresh choices and shares the
// carried ones with prev, so the new list still reads prev's storage,
// which stays reserved as enabledBuf.
func (e *Engine) enabledCurrent() []Choice {
	if e.cache == nil {
		e.cache = newSlotCache(e.rules, e.g.N())
	}
	prev := e.enabledList
	full := !e.incremental || !e.enabledValid
	switch {
	case full:
		e.stats.FullScans++
		for p := 0; p < e.g.N(); p++ {
			e.cache.markProc(graph.ProcessID(p))
		}
		prev = nil
		e.enabledValid = e.incremental
	case len(e.cache.dirty) > 0:
		e.stats.Flushes++
	default:
		return e.enabledList
	}
	var dst *choiceList
	if 2*len(e.cache.dirty) >= len(prev) {
		dst = e.freeList()
	}
	list, evals, marks, procs := e.cache.flush(e.g, e.states, prev, e.step, dst)
	e.stats.GuardEvals += evals
	e.stats.ProcsEvaluated += int64(procs)
	if !full {
		e.stats.DirtyMarks += marks
		e.stats.ProcsSkipped += int64(e.g.N() - procs)
	}
	e.enabledList = list
	if dst != nil {
		e.enabledBuf = dst
	}
	return list
}

// freeList returns enabled-set storage that no live list reads: neither
// the memoized set, nor the previous step's, nor the pre-step set of the
// step in progress. Nil (allocate afresh) if all three are taken, which
// only a subscriber flushing twice inside one step can cause.
func (e *Engine) freeList() *choiceList {
	for i := range e.buf.lists {
		if l := &e.buf.lists[i]; l != e.enabledBuf && l != e.lastBuf && l != e.heldBuf {
			return l
		}
	}
	return nil
}

// selfCheckEnabled recomputes the enabled set with the naive full scan and
// panics with a minimal diff if the incremental cache diverged. The sweep
// bypasses the instrumentation counters.
func (e *Engine) selfCheckEnabled(got []Choice) {
	e.stats.SelfChecks++
	want := scanEnabled(e.g, e.rules, e.states, e.step, nil)
	if diff := diffEnabled(e.rules, want, got); diff != "" {
		panic(fmt.Sprintf("statemodel: incremental enabled-set divergence at step %d (self-check):\n%s", e.step, diff))
	}
}

// diffEnabled renders the per-processor differences between two enabled
// sets (both sorted by processor ID); empty means identical.
func diffEnabled(rules []Rule, want, got []Choice) string {
	names := func(c Choice) string {
		parts := make([]string, len(c.Rules))
		for i, r := range c.Rules {
			parts[i] = rules[r].Name
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	var sb strings.Builder
	wi, gi := 0, 0
	for wi < len(want) || gi < len(got) {
		switch {
		case gi >= len(got) || (wi < len(want) && want[wi].Process < got[gi].Process):
			fmt.Fprintf(&sb, "  p%d: naive=%s incremental=[]\n", want[wi].Process, names(want[wi]))
			wi++
		case wi >= len(want) || got[gi].Process < want[wi].Process:
			fmt.Fprintf(&sb, "  p%d: naive=[] incremental=%s\n", got[gi].Process, names(got[gi]))
			gi++
		default:
			if !slices.Equal(want[wi].Rules, got[gi].Rules) {
				fmt.Fprintf(&sb, "  p%d: naive=%s incremental=%s\n", want[wi].Process, names(want[wi]), names(got[gi]))
			}
			wi++
			gi++
		}
	}
	return sb.String()
}

// Enabled computes the Choice list of the current configuration: every
// processor with at least one enabled rule, offering only its minimal
// enabled priority class. Processors appear in ascending ID order and rule
// indices in program order, so the result is deterministic. The returned
// slice is the caller's to keep.
func (e *Engine) Enabled() []Choice {
	cur := e.enabledCurrent()
	out := make([]Choice, len(cur))
	for i, c := range cur {
		out[i] = Choice{Process: c.Process, Rules: append([]int(nil), c.Rules...)}
	}
	return out
}

// Terminal reports whether no action is enabled in the current
// configuration.
func (e *Engine) Terminal() bool { return len(e.enabledCurrent()) == 0 }

// Step executes one atomic step: compute the enabled set, let the daemon
// select, execute the selected actions against the pre-step snapshot, and
// commit. It returns false (and does nothing) if the configuration is
// terminal.
func (e *Engine) Step() bool {
	e.inStep = true
	defer func() { e.inStep, e.heldBuf = false, nil }()

	enabled := e.enabledCurrent()
	e.heldBuf = e.enabledBuf
	if e.incremental && e.selfCheck {
		e.selfCheckEnabled(enabled)
	}
	e.closeRoundBookkeeping(enabled)
	if len(enabled) == 0 {
		return false
	}
	if !e.roundOpen {
		e.openRound(enabled)
	}

	sels := e.daemon.Select(e.step, enabled)
	e.validateSelections(enabled, sels)

	// Execute every selection in order against the same pre-step
	// configuration, then commit.
	b := &e.buf
	next := b.next[:len(sels)]
	b.events = b.events[:0]
	var events *[]Event
	if e.nsubs > 0 {
		events = &b.events
	}
	for i, sel := range sels {
		next[i] = e.execute(sel, next[i], events)
	}
	for i, sel := range sels {
		p := sel.Process
		r := &e.rules[sel.Rule]
		if ss, ok := stagedMove(e.states[p], r); ok {
			ss.Commit(next[i]) // the scratch stays in next for the next step
		} else {
			e.states[p], next[i] = next[i], nil
		}
		if e.incremental && e.enabledValid {
			e.cache.markMove(e.g, p, r)
		}
		e.moves[sel.Rule]++
		if e.roundPending[p] {
			e.roundPending[p] = false
			e.pendingLeft--
		}
	}
	e.lastEnabled, e.lastBuf = enabled, e.heldBuf
	if events != nil {
		for _, ev := range b.events {
			e.Publish(ev)
		}
		e.Publish(Event{Kind: obs.KindStep, Step: e.step, Round: e.rounds, Count: len(sels)})
	}
	e.step++
	e.stats.Steps++
	return true
}

// execute is the engine's one executor: it runs sel against the pre-step
// configuration (apply, through the reused view and on scratch if the
// move is staged), appends the action's events and then its fire marker
// to events, and returns the scratch or clone to commit. events is nil
// when nothing subscribes.
func (e *Engine) execute(sel Selection, scratch State, events *[]Event) State {
	s := apply(&e.buf.view, e.g, e.rules, e.states, sel, scratch, e.step, e.rounds, events)
	if events != nil {
		*events = append(*events, Event{Kind: obs.KindFire, Step: e.step, Round: e.rounds, Proc: sel.Process, Rule: e.rules[sel.Rule].Name})
	}
	return s
}

// validateSelections enforces the daemon contract with processor-indexed
// generation stamps (no per-step maps).
func (e *Engine) validateSelections(enabled []Choice, sels []Selection) {
	if len(sels) == 0 {
		panic(fmt.Sprintf("statemodel: daemon %q selected nothing from a non-empty enabled set", e.daemon.Name()))
	}
	b := &e.buf
	gen := e.nextGen()
	for i, c := range enabled {
		b.mark[c.Process], b.offer[c.Process] = gen, int32(i)
	}
	for _, s := range sels {
		p := s.Process
		if p < 0 || int(p) >= e.g.N() || b.mark[p] != gen {
			panic(fmt.Sprintf("statemodel: daemon %q selected disabled processor %d", e.daemon.Name(), p))
		}
		if b.picked[p] == gen {
			panic(fmt.Sprintf("statemodel: daemon %q selected processor %d twice", e.daemon.Name(), p))
		}
		b.picked[p] = gen
		if !slices.Contains(enabled[b.offer[p]].Rules, s.Rule) {
			panic(fmt.Sprintf("statemodel: daemon %q selected rule %d not enabled at processor %d", e.daemon.Name(), s.Rule, p))
		}
	}
}

// nextGen starts a fresh generation of the processor stamps.
func (e *Engine) nextGen() uint32 {
	b := &e.buf
	b.gen++
	if b.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(b.mark)
		clear(b.picked)
		b.gen = 1
	}
	return b.gen
}

// --- round accounting -------------------------------------------------

// closeRoundBookkeeping runs when a fresh enabled set is known: any
// processor still pending in the current round that was enabled at the
// previous step and is no longer enabled now was neutralized and leaves
// the round. If the round's pending set empties, the round completes.
func (e *Engine) closeRoundBookkeeping(enabledNow []Choice) {
	if !e.roundOpen {
		return
	}
	if len(e.lastEnabled) > 0 {
		b := &e.buf
		gen := e.nextGen()
		for _, c := range enabledNow {
			b.mark[c.Process] = gen
		}
		for _, c := range e.lastEnabled {
			if p := c.Process; e.roundPending[p] && b.mark[p] != gen {
				e.roundPending[p] = false // neutralized
				e.pendingLeft--
			}
		}
	}
	if e.pendingLeft == 0 {
		e.rounds++
		e.roundOpen = false
		e.Publish(Event{Kind: obs.KindRound, Step: e.step, Round: e.rounds})
	}
}

func (e *Engine) openRound(enabled []Choice) {
	for _, c := range enabled {
		e.roundPending[c.Process] = true
	}
	e.pendingLeft = len(enabled)
	e.roundOpen = true
}

// Run executes steps until the configuration is terminal, the optional stop
// predicate returns true (checked between steps), or maxSteps steps have
// executed. It returns the number of steps executed by this call and
// whether the run ended on a terminal configuration.
func (e *Engine) Run(maxSteps int, stop func(*Engine) bool) (steps int, terminal bool) {
	for steps < maxSteps {
		if stop != nil && stop(e) {
			return steps, false
		}
		if !e.Step() {
			return steps, true
		}
		steps++
	}
	return steps, false
}

// EnabledRuleNames returns the names of the rules currently enabled at p,
// sorted; a debugging and test helper.
func (e *Engine) EnabledRuleNames(p graph.ProcessID) []string {
	c := enabledAtConfig(e.g, e.rules, e.states, p, e.step, nil)
	names := make([]string, 0, len(c.Rules))
	for _, i := range c.Rules {
		names = append(names, e.rules[i].Name)
	}
	sort.Strings(names)
	return names
}
