package statemodel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// Sharded execution.
//
// A serial engine is the sharded engine with one shard: every step runs
// the same code at any shard count, and WithShards(k, seed) only changes
// how many workers that code may use. The graph is partitioned into k
// seeded, deterministic shards (graph.Partition), and the two hot loops
// fan out:
//
//   - guard evaluation: evaluate fills one canonical slot per processor
//     of the re-evaluation set (every processor for a full scan, N[dirty]
//     for a flush) and mergeDelta folds the slots into the previous
//     enabled list in ascending processor order;
//   - action execution: the daemon's selections are planned into batches
//     such that no two processors in one batch are adjacent (the
//     concurrency discipline of the paper's distributed daemon, where
//     only non-neighboring processors move simultaneously), each batch
//     is split across workers along shard ownership, every action runs
//     against the immutable pre-step snapshot into a per-selection slot,
//     and the slots are concatenated in canonical selection order.
//
// Because every worker writes only to canonically indexed slots and
// every merge walks them in canonical order, a run with any shard count
// produces the same states after every step, the same event stream, the
// same move counts and the same guard-evaluation totals. Whenever the
// differential self-check runs, the boundary-conflict oracle also
// re-verifies the non-adjacency of every executed batch and panics on a
// violation.

// parScanMinProcs is the smallest evaluation set worth fanning out;
// below it the goroutine overhead exceeds the guard work.
const parScanMinProcs = 64

// WithShards runs the engine's guard evaluation and action execution on
// a sharded worker fan-out: the graph is partitioned into k seeded,
// deterministic shards and each parallel operation splits along shard
// ownership. k <= 1 keeps one shard. Executions are bit-identical for
// every k — sharding only changes wall-clock time.
func WithShards(k int, seed int64) EngineOption {
	return func(e *Engine) {
		if k <= 1 {
			e.part = nil
			return
		}
		e.part = e.g.Partition(k, seed)
	}
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int {
	if e.part == nil {
		return 1
	}
	return e.part.K()
}

// fanOut runs tasks 0..n-1 on up to workers goroutines (never more than
// tasks; one worker runs them inline). Assignment is dynamic (atomic
// counter): callers must write results into canonically indexed slots,
// never append from workers.
func fanOut(workers, n int, task func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// --- enabled-set evaluation --------------------------------------------

// closedNeighborhood returns N[changed] — every changed processor plus
// its neighbors, deduplicated and sorted ascending: the only processors
// whose guards can read a changed state.
func closedNeighborhood(g *graph.Graph, changed []graph.ProcessID) []graph.ProcessID {
	n := len(changed)
	for _, p := range changed {
		n += g.Degree(p)
	}
	out := make([]graph.ProcessID, 0, n)
	for _, p := range changed {
		out = append(out, p)
		out = append(out, g.Neighbors(p)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// evaluate computes the choices of ps on cfg into canonical slots
// (slots[i] belongs to ps[i]) and counts the guard invocations. The work
// fans out over up to workers goroutines when ps is large enough to pay
// for it; the result does not depend on workers.
func evaluate(g *graph.Graph, rules []Rule, cfg []State, ps []graph.ProcessID, step, workers int) (slots []Choice, guardEvals int64) {
	if len(ps) < parScanMinProcs {
		workers = 1
	}
	slots = make([]Choice, len(ps))
	var evals atomic.Int64
	fanOut(workers, len(ps), func(i int) {
		var n int64
		slots[i] = enabledAtConfig(g, rules, cfg, ps[i], step, &n)
		evals.Add(n)
	})
	return slots, evals.Load()
}

// mergeDelta replaces the entries of prev (sorted by processor ID) for
// the re-evaluated processors ps with their fresh slots, dropping the
// ones no longer enabled. The result is freshly allocated and sorted.
func mergeDelta(prev []Choice, ps []graph.ProcessID, slots []Choice) []Choice {
	out := make([]Choice, 0, len(prev)+len(ps))
	pi := 0
	for i, p := range ps {
		for pi < len(prev) && prev[pi].Process < p {
			out = append(out, prev[pi])
			pi++
		}
		if pi < len(prev) && prev[pi].Process == p {
			pi++
		}
		if len(slots[i].Rules) > 0 {
			out = append(out, slots[i])
		}
	}
	return append(out, prev[pi:]...)
}

// --- action execution --------------------------------------------------

// execSlot holds one selection's events during a sharded batch until
// they are concatenated in canonical order.
type execSlot struct {
	events []Event
	typed  []obs.Event
}

// executeBatches runs the step's selections on the worker fan-out:
// batches of provably non-adjacent moves execute concurrently (split
// across workers along shard ownership), every action reads the
// immutable pre-step snapshot, and each selection's successor state and
// events land in its own slot. The events are appended to the step's
// buffers in canonical selection order; typed is nil when no bus
// subscriber is attached.
func (e *Engine) executeBatches(sels []Selection, next []State, events *[]Event, typed *[]obs.Event) {
	slots := make([]execSlot, len(sels))
	for _, batch := range e.planBatches(sels) {
		groups := make([][]int, e.part.K())
		for _, i := range batch {
			s := e.part.Of(sels[i].Process)
			groups[s] = append(groups[s], i)
		}
		active := groups[:0]
		for _, grp := range groups {
			if len(grp) > 0 {
				active = append(active, grp)
			}
		}
		fanOut(len(active), len(active), func(gi int) {
			for _, i := range active[gi] {
				var tb *[]obs.Event
				if typed != nil {
					tb = &slots[i].typed
				}
				next[i] = e.execute(sels[i], &slots[i].events, tb)
			}
		})
		if e.selfCheck {
			e.assertBatchNonAdjacent(sels, batch)
		}
		e.stats.ParallelBatches++
	}
	e.stats.ParallelMoves += int64(len(sels))
	for i := range slots {
		*events = append(*events, slots[i].events...)
		if typed != nil {
			*typed = append(*typed, slots[i].typed...)
		}
	}
}

// planBatches greedily colors the selections into batches such that no
// two processors in one batch are adjacent: each selection (in canonical
// order) joins the first batch that contains none of its neighbors.
// Interior processors of distinct shards can never collide, so the
// neighbor probe only ever rejects same-shard or boundary pairs. The
// returned batches hold indices into sels, each batch ascending.
func (e *Engine) planBatches(sels []Selection) [][]int {
	var batches [][]int
	inBatch := make([]map[graph.ProcessID]bool, 0, 4)
	for i, sel := range sels {
		placed := false
		for b := range batches {
			conflict := false
			for _, q := range e.g.Neighbors(sel.Process) {
				if inBatch[b][q] {
					conflict = true
					break
				}
			}
			if !conflict {
				batches[b] = append(batches[b], i)
				inBatch[b][sel.Process] = true
				placed = true
				break
			}
		}
		if !placed {
			batches = append(batches, []int{i})
			inBatch = append(inBatch, map[graph.ProcessID]bool{sel.Process: true})
		}
	}
	return batches
}

// assertBatchNonAdjacent is the boundary-conflict oracle: an independent
// re-verification (it shares no state with planBatches) that no two
// processors that moved in the same parallel batch are adjacent.
func (e *Engine) assertBatchNonAdjacent(sels []Selection, batch []int) {
	members := make(map[graph.ProcessID]bool, len(batch))
	for _, i := range batch {
		members[sels[i].Process] = true
	}
	for _, i := range batch {
		p := sels[i].Process
		for _, q := range e.g.Neighbors(p) {
			if members[q] {
				panic(fmt.Sprintf(
					"statemodel: boundary-conflict oracle: adjacent processors %d and %d moved in the same parallel batch at step %d",
					p, q, e.step))
			}
		}
	}
	e.stats.BoundaryChecks++
}
