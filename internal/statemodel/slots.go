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
// have that priority. A processor's Choice is the minimal priority class
// across its slots, rule indices ascending — exactly the per-processor
// filter of enabledAtConfig, which the self-check runs as the naive
// oracle.
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
	words  int  // enabled-set words per (processor, slot)
	mwords int  // mark words per processor
	has0   bool // slot 0 has rules: re-evaluate it at every marked processor

	prio    []uint8  // [p*nslots+s]: rank of the minimal enabled priority, noRank if none
	bits    []uint64 // [(p*nslots+s)*words:]: enabled rules of that priority
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
	c := &slotCache{rules: rules, rank: make([]uint8, len(rules)), slots: make([][]int, nslots), nslots: nslots}
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

// flush re-evaluates the marked slots on cfg, rebuilds the marked
// processors' choices and merges them into prev (sorted by processor ID).
// It returns the fresh enabled list, the guard invocations, the number of
// (processor, slot) marks and the number of processors re-evaluated. The
// evaluation fans out over up to workers goroutines when enough
// processors are marked; every worker writes only its processors' rows,
// so the result does not depend on workers.
func (c *slotCache) flush(g *graph.Graph, cfg []State, prev []Choice, step, workers int) (list []Choice, guardEvals, marks int64, procs int) {
	ps := c.dirty
	slices.Sort(ps)
	for _, p := range ps {
		for _, w := range c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords] {
			marks += int64(bits.OnesCount64(w))
		}
	}
	if len(ps) < parScanMinProcs {
		workers = 1
	}
	var evals atomic.Int64
	fanOut(workers, len(ps), func(i int) {
		evals.Add(c.evalProc(g, cfg, ps[i], step))
	})

	// The fresh choices of ps replace (or drop) their entries of prev and
	// share one exactly sized arena; carried choices keep their rules.
	n := 0
	for _, p := range ps {
		n += c.choiceLen(p)
	}
	arena := make([]int, 0, n)
	list = make([]Choice, 0, len(prev)+len(ps))
	pi := 0
	for _, p := range ps {
		for ; pi < len(prev) && prev[pi].Process < p; pi++ {
			list = append(list, prev[pi])
		}
		if pi < len(prev) && prev[pi].Process == p {
			pi++
		}
		start := len(arena)
		if arena = c.appendChoice(arena, p); len(arena) > start {
			list = append(list, Choice{Process: p, Rules: arena[start:len(arena):len(arena)]})
		}
	}
	list = append(list, prev[pi:]...)
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
	c.prio[k] = best
	return evals
}

// minRank returns p's minimal priority rank across slots, noRank if no
// rule is enabled.
func (c *slotCache) minRank(p graph.ProcessID) uint8 {
	return slices.Min(c.prio[int(p)*c.nslots : (int(p)+1)*c.nslots])
}

// choiceLen returns the length of p's choice.
func (c *slotCache) choiceLen(p graph.ProcessID) int {
	best, n := c.minRank(p), 0
	if best == noRank {
		return 0
	}
	for s, r := range c.prio[int(p)*c.nslots : (int(p)+1)*c.nslots] {
		if r == best {
			k := int(p)*c.nslots + s
			for _, word := range c.bits[k*c.words : (k+1)*c.words] {
				n += bits.OnesCount64(word)
			}
		}
	}
	return n
}

// appendChoice appends p's choice — the enabled rules of its minimal
// priority class across slots, ascending — to arena.
func (c *slotCache) appendChoice(arena []int, p graph.ProcessID) []int {
	best := c.minRank(p)
	if best == noRank {
		return arena
	}
	start := len(arena)
	for s, r := range c.prio[int(p)*c.nslots : (int(p)+1)*c.nslots] {
		if r != best {
			continue
		}
		k := int(p)*c.nslots + s
		for w, word := range c.bits[k*c.words : (k+1)*c.words] {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				arena = append(arena, c.slots[s][j])
			}
		}
	}
	slices.Sort(arena[start:])
	return arena
}
