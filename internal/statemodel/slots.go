package statemodel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"ssmfp/internal/graph"
)

// The enabled-set cache, sliced per (processor, slot).
//
// A program's rules are grouped by their declared slot (Rule.Slot). For
// every (processor, slot) the cache holds the minimal priority among the
// slot's enabled rules, as a one-byte rank among the program's distinct
// priorities, and, as a bitset over the slot's rule list, which of them
// have that priority. Per processor and rank it also keeps a bitset of
// the slots at that rank, so rebuilding a processor's Choice — the
// minimal priority class across its slots, rule indices ascending,
// exactly the per-processor filter of enabledAtConfig, which the
// self-check runs as the naive oracle — visits only the slots of its best
// rank, never all of them.
//
// A move marks only the (processor, slot) pairs it can affect (markMove);
// a flush re-evaluates the marked slots, plus slot 0 of every marked
// processor since a slot-0 guard may read anything, and rebuilds the
// marked processors' choices. Full scans, flushes and Delta.Enabled all go
// through flush; a flush only reads the rows of the processors it
// re-evaluates, so a cache serves any configuration of its graph.

// noRank is a slot's rank when none of its rules is enabled.
const noRank = math.MaxUint8

type slotCache struct {
	rules  []Rule
	rank   []uint8 // rule -> rank of its priority among the program's priorities
	slots  [][]int // slot -> indices of its rules, ascending
	nslots int
	nranks int  // distinct rule priorities
	words  int  // enabled-set words per (processor, slot)
	mwords int  // slot-set words per processor (marks, rank rows)
	has0   bool // slot 0 has rules: re-evaluate it at every marked processor

	prio    []uint8  // [p*nslots+s]: rank of the minimal enabled priority, noRank if none
	bits    []uint64 // [(p*nslots+s)*words:]: enabled rules of that priority
	ranked  []uint64 // [(p*nranks+r)*mwords:]: slots of p whose prio is r
	marks   []uint64 // [p*mwords:]: slots of p to re-evaluate at the next flush
	full    []uint64 // a mark row with every slot set
	dirty   []graph.ProcessID
	isDirty []bool
	views   []View // guard-evaluation views, one per processor
}

// newSlotCache groups rules by slot and allocates an empty cache for n
// processors (every slot disabled, nothing marked).
func newSlotCache(rules []Rule, n int) *slotCache {
	nslots := 1
	prios := make([]int, 0, 2)
	for _, r := range rules {
		if r.Slot < 0 {
			panic(fmt.Sprintf("statemodel: rule %s has negative slot %d", r.Name, r.Slot))
		}
		nslots = max(nslots, r.Slot+1)
		prios = append(prios, r.Priority)
	}
	slices.Sort(prios)
	prios = slices.Compact(prios)
	if len(prios) >= noRank {
		panic(fmt.Sprintf("statemodel: %d distinct rule priorities, at most %d supported", len(prios), noRank-1))
	}
	c := &slotCache{rules: rules, rank: make([]uint8, len(rules)), slots: make([][]int, nslots), nslots: nslots, nranks: len(prios)}
	for i, r := range rules {
		k, _ := slices.BinarySearch(prios, r.Priority)
		c.rank[i] = uint8(k)
		c.slots[r.Slot] = append(c.slots[r.Slot], i)
	}
	c.has0 = len(c.slots[0]) > 0
	maxRules := 1
	for _, s := range c.slots {
		maxRules = max(maxRules, len(s))
	}
	c.words = (maxRules + 63) / 64
	c.mwords = (nslots + 63) / 64
	c.prio = make([]uint8, n*nslots)
	for i := range c.prio {
		c.prio[i] = noRank
	}
	c.bits = make([]uint64, n*nslots*c.words)
	c.ranked = make([]uint64, n*c.nranks*c.mwords)
	c.marks = make([]uint64, n*c.mwords)
	c.full = make([]uint64, c.mwords)
	for s := 0; s < nslots; s++ {
		c.full[s/64] |= 1 << (s % 64)
	}
	c.isDirty = make([]bool, n)
	c.views = make([]View, n)
	return c
}

func (c *slotCache) markRow(p graph.ProcessID) []uint64 {
	if !c.isDirty[p] {
		c.isDirty[p] = true
		c.dirty = append(c.dirty, p)
	}
	return c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords]
}

// markSlot schedules slot s of p for re-evaluation.
func (c *slotCache) markSlot(p graph.ProcessID, s int) {
	row := c.markRow(p)
	row[s/64] |= 1 << (s % 64)
}

// markProc schedules every slot of p for re-evaluation.
func (c *slotCache) markProc(p graph.ProcessID) {
	copy(c.markRow(p), c.full)
}

// markClosed schedules every slot of N[p].
func (c *slotCache) markClosed(g *graph.Graph, p graph.ProcessID) {
	c.markProc(p)
	for _, q := range g.Neighbors(p) {
		c.markProc(q)
	}
}

// markMove schedules what a move of rule r at p can change: its slot in
// N[p], all of p for a rule that also writes p's unsliced fields, and all
// of N[p] for a slot-0 rule.
func (c *slotCache) markMove(g *graph.Graph, p graph.ProcessID, r *Rule) {
	if r.Slot == 0 {
		c.markClosed(g, p)
		return
	}
	if r.WritesUnsliced {
		c.markProc(p)
	} else {
		c.markSlot(p, r.Slot)
	}
	for _, q := range g.Neighbors(p) {
		c.markSlot(q, r.Slot)
	}
}

// clearMarks drops every pending mark.
func (c *slotCache) clearMarks() {
	for _, p := range c.dirty {
		c.isDirty[p] = false
		clear(c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords])
	}
	c.dirty = c.dirty[:0]
}

// choiceList is storage for an enabled list that a flush may reuse: the
// choices and one arena holding all their rule indices.
type choiceList struct {
	list  []Choice
	arena []int
}

// flush re-evaluates the marked slots on cfg, rebuilds the marked
// processors' choices and merges them into prev (sorted by processor ID).
// It returns the new enabled list, the guard invocations, the number of
// (processor, slot) marks and the number of processors re-evaluated. The
// evaluation fans out over up to workers goroutines when at least
// minMarks pairs are marked; every worker writes only its processors'
// rows, so the result does not depend on workers.
//
// With dst nil the list is freshly allocated and the choices carried
// over from prev share their rules with it. Otherwise the list is built
// in dst's storage, carried rules copied, so it references nothing of
// prev or of any older list; the caller must not reuse dst while it
// still reads a list built there.
func (c *slotCache) flush(g *graph.Graph, cfg []State, prev []Choice, step, workers int, minMarks int64, dst *choiceList) (list []Choice, guardEvals, marks int64, procs int) {
	ps := c.dirty
	slices.Sort(ps)
	for _, p := range ps {
		for _, w := range c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords] {
			marks += int64(bits.OnesCount64(w))
		}
	}
	if marks < minMarks {
		workers = 1
	}
	var evals atomic.Int64
	fanOut(workers, len(ps), func(i int) {
		evals.Add(c.evalProc(g, cfg, ps[i], step))
	})

	// The fresh choices of ps replace (or drop) their entries of prev and
	// share one arena, sized up front so that it never moves.
	n := 0
	for _, p := range ps {
		n += c.choiceLen(p)
	}
	var arena []int
	if dst == nil {
		arena = make([]int, 0, n)
		list = make([]Choice, 0, len(prev)+len(ps))
	} else {
		for _, ch := range prev {
			n += len(ch.Rules)
		}
		arena = slices.Grow(dst.arena[:0], n)
		list = slices.Grow(dst.list[:0], len(prev)+len(ps))
	}
	carry := func(chs []Choice) {
		if dst == nil {
			list = append(list, chs...)
			return
		}
		for _, ch := range chs {
			start := len(arena)
			arena = append(arena, ch.Rules...)
			list = append(list, Choice{Process: ch.Process, Rules: arena[start:len(arena):len(arena)]})
		}
	}
	pi := 0
	for _, p := range ps {
		start := pi
		for pi < len(prev) && prev[pi].Process < p {
			pi++
		}
		carry(prev[start:pi])
		if pi < len(prev) && prev[pi].Process == p {
			pi++
		}
		start = len(arena)
		if arena = c.appendChoice(arena, p); len(arena) > start {
			list = append(list, Choice{Process: p, Rules: arena[start:len(arena):len(arena)]})
		}
	}
	carry(prev[pi:])
	if dst != nil {
		dst.list, dst.arena = list, arena
	}
	c.dirty = ps[:0]
	return list, evals.Load(), marks, len(ps)
}

// evalProc re-evaluates the marked slots of p (slot 0 too, if it has
// rules) and clears p's marks.
func (c *slotCache) evalProc(g *graph.Graph, cfg []State, p graph.ProcessID, step int) int64 {
	v := &c.views[p]
	*v = View{id: p, g: g, snapshot: cfg, step: step}
	row := c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords]
	if c.has0 {
		row[0] |= 1
	}
	var evals int64
	for w, word := range row {
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			evals += c.evalSlot(v, p, s)
		}
		row[w] = 0
	}
	c.isDirty[p] = false
	return evals
}

// evalSlot evaluates slot s at v.ID() in rule order, skipping rules of a
// lower priority than the best enabled one so far (the per-slot priority
// filter), and stores the slot's priority rank and enabled set.
func (c *slotCache) evalSlot(v *View, p graph.ProcessID, s int) int64 {
	k := int(p)*c.nslots + s
	set := c.bits[k*c.words : (k+1)*c.words]
	clear(set)
	best := uint8(noRank)
	var evals int64
	for j, i := range c.slots[s] {
		if c.rank[i] > best {
			continue
		}
		evals++
		if c.rules[i].Guard(v) {
			if c.rank[i] < best {
				best = c.rank[i]
				clear(set)
			}
			set[j/64] |= 1 << (j % 64)
		}
	}
	if old := c.prio[k]; old != best {
		if old != noRank {
			row := c.rankRow(p, old)
			row[s/64] &^= 1 << (s % 64)
		}
		if best != noRank {
			row := c.rankRow(p, best)
			row[s/64] |= 1 << (s % 64)
		}
		c.prio[k] = best
	}
	return evals
}

// rankRow returns the set of p's slots at rank r.
func (c *slotCache) rankRow(p graph.ProcessID, r uint8) []uint64 {
	i := (int(p)*c.nranks + int(r)) * c.mwords
	return c.ranked[i : i+c.mwords]
}

// bestRank returns p's minimal priority rank across slots and the set of
// slots at that rank; noRank and nil if no rule of p is enabled.
func (c *slotCache) bestRank(p graph.ProcessID) (uint8, []uint64) {
	for r := 0; r < c.nranks; r++ {
		row := c.rankRow(p, uint8(r))
		for _, w := range row {
			if w != 0 {
				return uint8(r), row
			}
		}
	}
	return noRank, nil
}

// choiceLen returns the length of p's choice.
func (c *slotCache) choiceLen(p graph.ProcessID) int {
	_, row := c.bestRank(p)
	n := 0
	for w, word := range row {
		for word != 0 {
			k := int(p)*c.nslots + w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, set := range c.bits[k*c.words : (k+1)*c.words] {
				n += bits.OnesCount64(set)
			}
		}
	}
	return n
}

// appendChoice appends p's choice — the enabled rules of its minimal
// priority class across slots, ascending — to arena.
func (c *slotCache) appendChoice(arena []int, p graph.ProcessID) []int {
	_, row := c.bestRank(p)
	start := len(arena)
	for w, word := range row {
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			k := int(p)*c.nslots + s
			for sw, set := range c.bits[k*c.words : (k+1)*c.words] {
				for set != 0 {
					j := sw*64 + bits.TrailingZeros64(set)
					set &= set - 1
					arena = append(arena, c.slots[s][j])
				}
			}
		}
	}
	slices.Sort(arena[start:])
	return arena
}
