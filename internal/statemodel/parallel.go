package statemodel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ssmfp/internal/graph"
)

// Sharded execution.
//
// A serial engine is the sharded engine with one shard: every step runs
// the same code at any shard count, and WithShards(k, seed) only changes
// how many workers that code may use. The graph is partitioned into k
// seeded, deterministic shards (graph.Partition), and the two hot loops
// fan out:
//
//   - guard evaluation: a flush (slots.go) re-evaluates the marked
//     (processor, slot) pairs, each worker writing only its processors'
//     cache rows, then rebuilds their choices and merges them into the
//     previous enabled list in ascending processor order;
//   - action execution: the daemon's selections are planned into batches
//     such that no two processors in one batch are adjacent (the
//     concurrency discipline of the paper's distributed daemon, where
//     only non-neighboring processors move simultaneously), each batch
//     is split across workers along shard ownership, every action runs
//     against the immutable pre-step snapshot into a per-selection
//     output, and the outputs are concatenated in canonical selection
//     order.
//
// Because every worker writes only to canonically indexed outputs and
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
// counter): callers must write results into canonically indexed outputs,
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

// --- action execution --------------------------------------------------

// execOut holds one selection's executing view and its events during a
// sharded batch until the events are concatenated in canonical order.
type execOut struct {
	view   View
	events []Event
}

// executeBatches runs the step's selections on the worker fan-out:
// batches of provably non-adjacent moves execute concurrently (split
// across workers along shard ownership), every action reads the
// immutable pre-step snapshot, and each selection's successor state and
// events land in its own output. The events are appended to *events in
// canonical selection order; events is nil when nothing subscribes.
// Outputs and groups are engine buffers reused across steps.
func (e *Engine) executeBatches(sels []Selection, next []State, events *[]Event) {
	b := &e.buf
	b.outs = slices.Grow(b.outs[:0], len(sels))[:len(sels)]
	for i := range b.outs {
		b.outs[i].events = b.outs[i].events[:0]
	}
	if b.groups == nil {
		b.groups = make([][]int, e.part.K())
	}
	for _, batch := range e.planBatches(sels) {
		for s := range b.groups {
			b.groups[s] = b.groups[s][:0]
		}
		for _, i := range batch {
			s := e.part.Of(sels[i].Process)
			b.groups[s] = append(b.groups[s], i)
		}
		active := b.active[:0]
		for _, grp := range b.groups {
			if len(grp) > 0 {
				active = append(active, grp)
			}
		}
		b.active = active
		fanOut(len(active), len(active), func(gi int) {
			for _, i := range active[gi] {
				var out *[]Event
				if events != nil {
					out = &b.outs[i].events
				}
				next[i] = e.execute(sels[i], &b.outs[i].view, out)
			}
		})
		if e.selfCheck {
			e.assertBatchNonAdjacent(sels, batch)
		}
		e.stats.ParallelBatches++
	}
	e.stats.ParallelMoves += int64(len(sels))
	if events != nil {
		for i := range b.outs {
			*events = append(*events, b.outs[i].events...)
		}
	}
}

// planBatches greedily colors the selections into batches such that no
// two processors in one batch are adjacent: each selection (in canonical
// order) joins the first batch that contains none of its neighbors.
// Interior processors of distinct shards can never collide, so the
// neighbor probe only ever rejects same-shard or boundary pairs. The
// returned batches hold indices into sels, each batch ascending; they
// live in engine buffers until the next call.
func (e *Engine) planBatches(sels []Selection) [][]int {
	b := &e.buf
	nb := 0
	for i, sel := range sels {
		k := 0
		for ; k < nb; k++ {
			conflict := false
			for _, q := range e.g.Neighbors(sel.Process) {
				if b.batchOf[q] == int32(k+1) {
					conflict = true
					break
				}
			}
			if !conflict {
				break
			}
		}
		if k == nb {
			if nb == len(b.batches) {
				b.batches = append(b.batches, nil)
			}
			b.batches[nb] = b.batches[nb][:0]
			nb++
		}
		b.batches[k] = append(b.batches[k], i)
		b.batchOf[sel.Process] = int32(k + 1)
	}
	for _, sel := range sels {
		b.batchOf[sel.Process] = 0
	}
	return b.batches[:nb]
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
