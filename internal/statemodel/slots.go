package statemodel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ssmfp/internal/graph"
)

// The enabled-set cache, per (processor, slot) and rule.
//
// Rules are grouped by their slot (Rule.Slot). Per (processor, slot) the
// cache keeps bitsets over the slot's rules, the enabled ones and those
// pending re-evaluation, and the minimal rank of the enabled ones'
// priorities; per (processor, rank) the slots at that rank. A processor's
// Choice, the enabled rules of its minimal priority class across slots
// in ascending order (enabledAtConfig's filter, which the self-check runs
// as the naive oracle), is rebuilt from the slots of its best rank only.
//
// A move marks the guards that read a field it wrote (markMove, by the
// rules' footprints); a flush re-evaluates the marked guards and rebuilds
// the marked processors' choices. Full scans, flushes and Delta.Enabled
// all go through flush, which only reads the rows of the processors it
// re-evaluates, so a cache serves any configuration of its graph.

// noRank is a slot's rank when none of its rules is enabled.
const noRank = math.MaxUint8

type slotCache struct {
	rules  []Rule
	rank   []uint8 // rule -> rank of its priority among the program's priorities
	slots  [][]int // slot -> indices of its rules, ascending
	nslots int
	nranks int // distinct rule priorities
	words  int // rule-set words per (processor, slot)
	mwords int // slot-set words per processor (marks, rank rows)

	// Rule sets over a slot's list (mask): hits[2i+k] the rules of i's slot
	// whose reads at the mover (k = 0) or a neighbour (k = 1) meet i's
	// writes; unsliced[s] those of slot s that read Unsliced; full[s] all.
	hits, unsliced, full []uint64

	prio    []uint8  // [p*nslots+s]: rank of the minimal enabled priority, noRank if none
	enabled []uint64 // mask p*nslots+s: the enabled rules
	pending []uint64 // mask p*nslots+s: the rules to re-evaluate at the next flush
	ranked  []uint64 // [(p*nranks+r)*mwords:]: slots of p whose prio is r
	marks   []uint64 // [p*mwords:]: slots of p with pending rules
	dirty   []graph.ProcessID
	isDirty []bool
	view    View // the guard-evaluation view, reused across processors
}

// footprint returns what r reads at p and at a neighbour and writes; none
// declared reads the slot (and Unsliced at p) and writes the slot.
func footprint(r *Rule) (self, nbrs, writes Footprint) {
	if r.Reads|r.ReadsNbrs|r.Writes == 0 {
		return ^Footprint(0), ^Unsliced, ^Unsliced
	}
	return r.Reads, r.ReadsNbrs, r.Writes
}

// newSlotCache groups rules by slot, derives the marking masks from
// their footprints and allocates an empty cache for n processors (every
// slot disabled, nothing marked).
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
	maxRules := 1
	for _, s := range c.slots {
		maxRules = max(maxRules, len(s))
	}
	c.words = (maxRules + 63) / 64
	c.mwords = (nslots + 63) / 64
	c.hits = make([]uint64, 2*len(rules)*c.words)
	c.unsliced = make([]uint64, nslots*c.words)
	c.full = make([]uint64, nslots*c.words)
	for s, list := range c.slots {
		for j, i := range list {
			add := func(table []uint64, k int, on bool) {
				if on {
					c.mask(table, k)[j/64] |= 1 << (j % 64)
				}
			}
			add(c.full, s, true)
			if s == 0 {
				continue // a slot-0 move marks all of N[p], any move slot 0 there
			}
			self, nbrs, _ := footprint(&rules[i])
			add(c.unsliced, s, self&Unsliced != 0)
			for _, m := range list {
				_, _, writes := footprint(&rules[m])
				add(c.hits, 2*m, self&writes != 0)
				add(c.hits, 2*m+1, nbrs&writes != 0)
			}
		}
	}
	c.prio = make([]uint8, n*nslots)
	for i := range c.prio {
		c.prio[i] = noRank
	}
	c.enabled = make([]uint64, n*nslots*c.words)
	c.pending = make([]uint64, n*nslots*c.words)
	c.ranked = make([]uint64, n*c.nranks*c.mwords)
	c.marks = make([]uint64, n*c.mwords)
	c.isDirty = make([]bool, n)
	return c
}

// mask returns rule set k of a table of rule sets (see slotCache).
func (c *slotCache) mask(table []uint64, k int) []uint64 {
	return table[k*c.words : (k+1)*c.words]
}

// markRules schedules the rules in m of slot s of p for re-evaluation.
func (c *slotCache) markRules(p graph.ProcessID, s int, m []uint64) {
	base := (int(p)*c.nslots + s) * c.words
	var marked uint64
	for w, x := range m {
		c.pending[base+w] |= x
		marked |= x
	}
	if marked == 0 {
		return
	}
	if !c.isDirty[p] {
		c.isDirty[p] = true
		c.dirty = append(c.dirty, p)
	}
	c.marks[int(p)*c.mwords+s/64] |= 1 << (s % 64)
}

// markProc schedules every rule of p for re-evaluation.
func (c *slotCache) markProc(p graph.ProcessID) {
	for s := range c.slots {
		c.markRules(p, s, c.mask(c.full, s))
	}
}

// markClosed schedules every rule of N[p].
func (c *slotCache) markClosed(g *graph.Graph, p graph.ProcessID) {
	c.markProc(p)
	for _, q := range g.Neighbors(p) {
		c.markProc(q)
	}
}

// markMove schedules what a move of rule i at p can change: all of N[p]
// for a slot-0 rule, otherwise markAt at p and at each neighbour and, if
// i wrote Unsliced, the rules of every slot of p that read it (a slotted
// guard reads Unsliced only at p).
func (c *slotCache) markMove(g *graph.Graph, p graph.ProcessID, i int) {
	if c.rules[i].Slot == 0 {
		c.markClosed(g, p)
		return
	}
	if c.rules[i].Writes&Unsliced != 0 {
		for s := 1; s < c.nslots; s++ {
			c.markRules(p, s, c.mask(c.unsliced, s))
		}
	}
	c.markAt(p, i, 0)
	for _, q := range g.Neighbors(p) {
		c.markAt(q, i, 1)
	}
}

// markAt schedules at q, the mover (k = 0) or a neighbour (k = 1), the
// guards of slotted rule i's slot that read what i wrote, and slot 0.
func (c *slotCache) markAt(q graph.ProcessID, i, k int) {
	c.markRules(q, c.rules[i].Slot, c.mask(c.hits, 2*i+k))
	if len(c.slots[0]) > 0 {
		c.markRules(q, 0, c.mask(c.full, 0))
	}
}

// clearMarks drops every pending mark.
func (c *slotCache) clearMarks() {
	for _, p := range c.dirty {
		c.isDirty[p] = false
		clear(c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords])
		clear(c.pending[int(p)*c.nslots*c.words : (int(p)+1)*c.nslots*c.words])
	}
	c.dirty = c.dirty[:0]
}

// choiceList is storage for an enabled list that a flush may reuse: the
// choices and one arena holding all their rule indices.
type choiceList struct {
	list  []Choice
	arena []int
}

// flush re-evaluates the marked rules on cfg, rebuilds the marked
// processors' choices and merges them into prev (sorted by processor ID).
// It returns the new enabled list, the guard invocations, the number of
// (processor, slot) marks and the number of processors re-evaluated.
//
// With dst nil the list is freshly allocated and the choices carried
// over from prev share their rules with it. Otherwise the list is built
// in dst's storage, carried rules copied, so it references nothing of
// prev or of any older list; the caller must not reuse dst while it
// still reads a list built there.
func (c *slotCache) flush(g *graph.Graph, cfg []State, prev []Choice, step int, dst *choiceList) (list []Choice, guardEvals, marks int64, procs int) {
	ps := c.dirty
	slices.Sort(ps)
	c.view = View{g: g, snapshot: cfg, step: step}
	for _, p := range ps {
		for _, w := range c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords] {
			marks += int64(bits.OnesCount64(w))
		}
		guardEvals += c.evalProc(g, p)
	}

	// The fresh choices of ps replace (or drop) their entries of prev. Their
	// rules go to one arena; a choice keeps the array it was built in.
	var arena []int
	if dst == nil {
		arena = make([]int, 0, 2*len(ps))
		list = make([]Choice, 0, len(prev)+len(ps))
	} else {
		arena = dst.arena[:0]
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
	return list, guardEvals, marks, len(ps)
}

// evalProc re-evaluates the pending rules of p through the flush's view
// and clears p's marks.
func (c *slotCache) evalProc(g *graph.Graph, p graph.ProcessID) int64 {
	v := &c.view
	v.id = p
	row := c.marks[int(p)*c.mwords : (int(p)+1)*c.mwords]
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

// evalSlot re-evaluates the pending rules of slot s at v.ID(), clears
// them and updates the slot's enabled set and priority rank.
func (c *slotCache) evalSlot(v *View, p graph.ProcessID, s int) int64 {
	k := int(p)*c.nslots + s
	list, base := c.slots[s], k*c.words
	var evals int64
	for w := 0; w < c.words; w++ {
		word, set := c.pending[base+w], c.enabled[base+w]
		for ; word != 0; word &= word - 1 {
			j := bits.TrailingZeros64(word)
			evals++
			if c.rules[list[w*64+j]].Guard(v) {
				set |= 1 << j
			} else {
				set &^= 1 << j
			}
		}
		c.pending[base+w], c.enabled[base+w] = 0, set
	}
	best := uint8(noRank)
	for w := 0; w < c.words; w++ {
		for set := c.enabled[base+w]; set != 0; set &= set - 1 {
			best = min(best, c.rank[list[w*64+bits.TrailingZeros64(set)]])
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

// appendChoice appends p's choice — the enabled rules of its minimal
// priority class across slots, ascending — to arena. Slots are visited in
// order, so the indices ascend unless the program interleaves its slots;
// only then are they sorted.
func (c *slotCache) appendChoice(arena []int, p graph.ProcessID) []int {
	r, row := c.bestRank(p)
	start := len(arena)
	for sw, word := range row {
		for word != 0 {
			s := sw*64 + bits.TrailingZeros64(word)
			word &= word - 1
			base := (int(p)*c.nslots + s) * c.words
			for w := 0; w < c.words; w++ {
				for set := c.enabled[base+w]; set != 0; set &= set - 1 {
					if i := c.slots[s][w*64+bits.TrailingZeros64(set)]; c.rank[i] == r {
						arena = append(arena, i)
					}
				}
			}
		}
	}
	if !slices.IsSorted(arena[start:]) {
		slices.Sort(arena[start:])
	}
	return arena
}
