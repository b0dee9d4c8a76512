package statemodel

import (
	"fmt"
	"math/bits"
	"slices"

	"ssmfp/internal/graph"
)

// The enabled-set cache, one enabled and one pending bitset per processor
// over the program's rule indices.
//
// Per priority rank the cache keeps a mask of the rules at that rank. A
// processor's Choice, the enabled rules of its minimal priority class in
// ascending order (enabledAtConfig's filter, which the self-check runs as
// the naive oracle), is its enabled set ANDed with the mask of its best
// rank, read out word by word, so it comes out sorted. It is kept in p's
// choice row, and only a re-evaluation of p rewrites the row.
//
// A move marks the guards that read a field it wrote (markMove, by the
// rules' footprints); a flush re-evaluates the marked guards of a
// processor rank by rank, best first, and stops at the first rank with
// an enabled rule: the rules of lower ranks stay pending, as the paper's
// priority leaves them unexecutable. Footprint soundness keeps that
// exact: whatever changes a guard of a better rank at p marks it at p,
// so the deferred rules are evaluated once the better ranks empty. Full
// scans, flushes and Delta.Enabled all go through flush; a full scan and
// Delta mark every rule of the processors they re-evaluate, whose choices
// then read only bits evaluated on the configuration at hand, so a cache
// serves any configuration of its graph.

// wordBits is one word of a rule set: the bits set in word w.
type wordBits struct {
	w    int
	bits uint64
}

type enabledCache struct {
	rules  []Rule
	words  int        // rule-set words per processor
	ranked [][]uint64 // rank -> the rules of that priority rank

	// Rule sets as (word, bits) lists: hits[2i+k] the rules that slotted
	// rule i's move marks at the mover (k = 0) or at a neighbour (k = 1),
	// slot-0 rules included; unsliced the slotted rules that read
	// Unsliced; all every rule.
	hits          [][]wordBits
	unsliced, all []wordBits

	enabled []uint64 // [p*words:]: the enabled rules of p
	pending []uint64 // [p*words:]: the rules of p to re-evaluate
	choice  [][]int  // p -> its choice, rewritten only when p is re-evaluated
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

// newEnabledCache derives the rank masks and the marking lists from the
// rules' priorities, slots and footprints and allocates an empty cache
// for n processors (nothing enabled, nothing marked).
func newEnabledCache(rules []Rule, n int) *enabledCache {
	prios := make([]int, 0, 2)
	for _, r := range rules {
		if r.Slot < 0 {
			panic(fmt.Sprintf("statemodel: rule %s has negative slot %d", r.Name, r.Slot))
		}
		prios = append(prios, r.Priority)
	}
	slices.Sort(prios)
	prios = slices.Compact(prios)
	c := &enabledCache{rules: rules, words: (len(rules) + 63) / 64, ranked: make([][]uint64, len(prios)), hits: make([][]wordBits, 2*len(rules))}
	for k := range c.ranked {
		c.ranked[k] = make([]uint64, c.words)
	}
	slot0, unsliced, all := make([]uint64, c.words), make([]uint64, c.words), make([]uint64, c.words)
	bySlot := make(map[int][]int)
	for i, r := range rules {
		k, _ := slices.BinarySearch(prios, r.Priority)
		setBit(c.ranked[k], i)
		setBit(all, i)
		if r.Slot == 0 {
			setBit(slot0, i)
			continue
		}
		bySlot[r.Slot] = append(bySlot[r.Slot], i)
		if self, _, _ := footprint(&rules[i]); self&Unsliced != 0 {
			setBit(unsliced, i)
		}
	}
	c.unsliced, c.all = appendWords(nil, unsliced), appendWords(nil, all)
	// A slotted move marks, at the mover and at each neighbour, the rules
	// of its slot that read what it wrote there, and every slot-0 rule.
	var arena []wordBits
	mover, nbr := make([]uint64, c.words), make([]uint64, c.words)
	for i, r := range rules {
		if r.Slot == 0 {
			continue
		}
		copy(mover, slot0)
		copy(nbr, slot0)
		_, _, writes := footprint(&rules[i])
		for _, m := range bySlot[r.Slot] {
			self, nbrs, _ := footprint(&rules[m])
			if self&writes != 0 {
				setBit(mover, m)
			}
			if nbrs&writes != 0 {
				setBit(nbr, m)
			}
		}
		for k, set := range [2][]uint64{mover, nbr} {
			start := len(arena)
			arena = appendWords(arena, set)
			c.hits[2*i+k] = arena[start:len(arena):len(arena)]
		}
	}
	c.enabled = make([]uint64, n*c.words)
	c.pending = make([]uint64, n*c.words)
	c.choice = make([][]int, n)
	c.isDirty = make([]bool, n)
	return c
}

func setBit(set []uint64, i int) { set[i/64] |= 1 << (i % 64) }

// appendWords appends the non-zero words of set to list.
func appendWords(list []wordBits, set []uint64) []wordBits {
	for w, x := range set {
		if x != 0 {
			list = append(list, wordBits{w, x})
		}
	}
	return list
}

// row returns p's words of a per-processor rule-set table.
func (c *enabledCache) row(table []uint64, p graph.ProcessID) []uint64 {
	return table[int(p)*c.words : (int(p)+1)*c.words]
}

// markRules schedules the rules in list at p for re-evaluation.
func (c *enabledCache) markRules(p graph.ProcessID, list []wordBits) {
	if len(list) == 0 {
		return
	}
	pending := c.row(c.pending, p)
	for _, x := range list {
		pending[x.w] |= x.bits
	}
	if !c.isDirty[p] {
		c.isDirty[p] = true
		c.dirty = append(c.dirty, p)
	}
}

// markClosed schedules every rule of N[p].
func (c *enabledCache) markClosed(g *graph.Graph, p graph.ProcessID) {
	c.markRules(p, c.all)
	for _, q := range g.Neighbors(p) {
		c.markRules(q, c.all)
	}
}

// markMove schedules what a move of rule i at p can change: all of N[p]
// for a slot-0 rule, otherwise i's hits at p and at each neighbour and,
// if i wrote Unsliced, the rules of p that read it (a slotted guard reads
// Unsliced only at p).
func (c *enabledCache) markMove(g *graph.Graph, p graph.ProcessID, i int) {
	if c.rules[i].Slot == 0 {
		c.markClosed(g, p)
		return
	}
	if c.rules[i].Writes&Unsliced != 0 {
		c.markRules(p, c.unsliced)
	}
	c.markRules(p, c.hits[2*i])
	for _, q := range g.Neighbors(p) {
		c.markRules(q, c.hits[2*i+1])
	}
}

// flush re-evaluates the marked rules on cfg, rewriting the choice rows
// of the processors it re-evaluates, and appends to dst the merge of prev
// (sorted by processor ID) with their fresh choices. It returns the new
// enabled list, the guard invocations and the number of processors
// re-evaluated.
//
// A carried choice is copied from prev as it is. A fresh one reads its
// processor's row, which the next re-evaluation of that processor
// rewrites, unless own is set: then its rules are copied out into one
// freshly allocated arena, so the list outlives later flushes.
func (c *enabledCache) flush(g *graph.Graph, cfg []State, prev, dst []Choice, step int, own bool) (list []Choice, guardEvals int64, procs int) {
	ps := c.dirty
	slices.Sort(ps)
	c.view = View{g: g, snapshot: cfg, step: step}
	for _, p := range ps {
		guardEvals += c.evalProc(p)
	}

	list = slices.Grow(dst, len(prev)+len(ps))
	var arena []int
	if own {
		arena = make([]int, 0, 2*len(ps))
	}
	pi := 0
	for _, p := range ps {
		start := pi
		for pi < len(prev) && prev[pi].Process < p {
			pi++
		}
		list = append(list, prev[start:pi]...)
		if pi < len(prev) && prev[pi].Process == p {
			pi++
		}
		rules := c.choice[p]
		if len(rules) == 0 {
			continue
		}
		if own {
			start := len(arena)
			arena = append(arena, rules...)
			rules = arena[start:]
		}
		list = append(list, Choice{Process: p, Rules: rules[:len(rules):len(rules)]})
	}
	list = append(list, prev[pi:]...)
	c.dirty = ps[:0]
	return list, guardEvals, len(ps)
}

// evalProc re-evaluates the pending rules of p through the flush's view,
// rank by rank from the best, up to the first rank with an enabled rule;
// the pending rules of lower ranks stay pending.
func (c *enabledCache) evalProc(p graph.ProcessID) int64 {
	v := &c.view
	v.id = p
	c.isDirty[p] = false
	enabled, pending := c.row(c.enabled, p), c.row(c.pending, p)
	var evals int64
	for _, rank := range c.ranked {
		var hit uint64
		for w, m := range rank {
			word, set := pending[w]&m, enabled[w]
			for ; word != 0; word &= word - 1 {
				j := bits.TrailingZeros64(word)
				evals++
				if c.rules[w*64+j].Guard(v) {
					set |= 1 << j
				} else {
					set &^= 1 << j
				}
			}
			pending[w] &^= m
			enabled[w] = set
			hit |= set & m
		}
		if hit != 0 {
			break
		}
	}
	c.choice[p] = c.appendChoice(c.choice[p][:0], p)
	return evals
}

// appendChoice appends p's choice — its enabled rules of the best rank
// that has any, ascending — to row.
func (c *enabledCache) appendChoice(row []int, p graph.ProcessID) []int {
	enabled := c.row(c.enabled, p)
	for r := 0; r < len(c.ranked) && len(row) == 0; r++ {
		for w, m := range c.ranked[r] {
			for set := enabled[w] & m; set != 0; set &= set - 1 {
				row = append(row, w*64+bits.TrailingZeros64(set))
			}
		}
	}
	return row
}
