package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// TestStepsRetainNoOldVersions steps the corrupted grid-8x8 under the
// synchronous daemon for 2,000 steps, with sends enqueued as it goes so
// that every rule keeps moving, and requires the live heap to stay
// within a small multiple of what it was right after set-up. Each move
// makes a new version of one processor's state that shares the
// slot-table chunks it did not write with the old one; a layout in
// which a shared chunk also pins the older version's pointer table
// (statemodel.SlotTable) keeps every version of the run alive instead,
// which this test catches.
func TestStepsRetainNoOldVersions(t *testing.T) {
	g, cfg := corruptGrid(3)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(3), cfg, sm.WithSelfCheck(false))
	e.Step() // builds the enabled-set cache
	cfg = nil
	base := liveHeap()
	const steps = 2000
	for s := 0; s < steps; s++ {
		if s%10 == 0 {
			for p := s % 8; p < g.N(); p += 8 {
				e.StateOf(graph.ProcessID(p)).(*core.Node).FW.Enqueue(fmt.Sprintf("r%d.%d", s, p), graph.ProcessID((p+29)%g.N()))
			}
		}
		if !e.Step() {
			t.Fatalf("terminal after %d steps", s)
		}
	}
	if moves := e.TotalMoves(); moves < 40*steps {
		t.Fatalf("only %d moves in %d steps: the run is too idle to show retention", moves, steps)
	}
	const limit = 3
	live := liveHeap()
	t.Logf("live heap %d kB after set-up, %d kB after %d steps", base>>10, live>>10, steps)
	if live > limit*base {
		t.Fatalf("live heap grew from %d kB after set-up to %d kB after %d steps (limit %dx): old versions of the states stay reachable",
			base>>10, live>>10, steps, limit)
	}
	runtime.KeepAlive(e)
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
