package statemodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ssmfp/internal/graph"
)

// randomTopology draws one topology from the menu under the given rng.
func randomTopology(rng *rand.Rand) *graph.Graph {
	switch rng.Intn(5) {
	case 0:
		return graph.Ring(3 + rng.Intn(10))
	case 1:
		return graph.Line(2 + rng.Intn(12))
	case 2:
		return graph.Grid(2+rng.Intn(4), 2+rng.Intn(4))
	case 3:
		return graph.Star(3 + rng.Intn(10))
	default:
		n := 5 + rng.Intn(12)
		return graph.RandomConnected(n, 2*n, rng)
	}
}

// randomProgram draws one toy protocol.
func randomProgram(rng *rand.Rand) Program {
	switch rng.Intn(3) {
	case 0:
		return maxProgram()
	case 1:
		return incProgram(3 + rng.Intn(8))
	default:
		return maxProgram()
	}
}

// TestShardedMatchesSerialEveryStep is the property test of the sharded
// engine's determinism contract: for random seeds, random topologies and
// random shard counts, the sharded execution must equal the serial one
// state-for-state after EVERY step — not just at the terminal
// configuration — along with steps, rounds, move counts, and the
// emitted event stream.
func TestShardedMatchesSerialEveryStep(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		prog := randomProgram(rng)
		shards := 2 + rng.Intn(7)
		mkDaemon := rng.Intn(3)
		daemon := func() Daemon {
			switch mkDaemon {
			case 1:
				return NewTestRoundRobin()
			default:
				return allDaemon{}
			}
		}
		cfg := make([]State, g.N())
		for i := range cfg {
			cfg[i] = &intState{v: rng.Intn(8)}
		}
		clone := func() []State {
			out := make([]State, len(cfg))
			for i, s := range cfg {
				out[i] = s.Clone()
			}
			return out
		}
		serial := NewEngine(g, prog, daemon(), clone(), WithSelfCheck(false))
		sharded := NewEngine(g, prog, daemon(), clone(),
			WithShards(shards, seed), WithSelfCheck(true), withFanOutMin(0, 2))
		var serialEvents, shardedEvents []string
		serial.Subscribe(func(ev Event) {
			serialEvents = append(serialEvents, fmt.Sprintf("%d/%d/%s/%s", ev.Step, ev.Proc, ev.Rule, ev.Kind))
		})
		sharded.Subscribe(func(ev Event) {
			shardedEvents = append(shardedEvents, fmt.Sprintf("%d/%d/%s/%s", ev.Step, ev.Proc, ev.Rule, ev.Kind))
		})
		for step := 0; step < 200; step++ {
			a := serial.Step()
			b := sharded.Step()
			if a != b {
				t.Fatalf("seed %d (%v, shards=%d): step %d: serial stepped=%v, sharded stepped=%v",
					seed, g, shards, step, a, b)
			}
			for p := 0; p < g.N(); p++ {
				sv := serial.PeekStateOf(graph.ProcessID(p)).(*intState).v
				pv := sharded.PeekStateOf(graph.ProcessID(p)).(*intState).v
				if sv != pv {
					t.Fatalf("seed %d (%v, shards=%d): step %d: state of p%d diverged: serial=%d sharded=%d",
						seed, g, shards, step, p, sv, pv)
				}
			}
			if serial.Rounds() != sharded.Rounds() {
				t.Fatalf("seed %d: step %d: rounds diverged: serial=%d sharded=%d",
					seed, step, serial.Rounds(), sharded.Rounds())
			}
			if !a {
				break
			}
		}
		if serial.Steps() != sharded.Steps() || serial.TotalMoves() != sharded.TotalMoves() {
			t.Fatalf("seed %d: steps/moves diverged: serial %d/%d, sharded %d/%d",
				seed, serial.Steps(), serial.TotalMoves(), sharded.Steps(), sharded.TotalMoves())
		}
		if !reflect.DeepEqual(serial.MoveCounts(), sharded.MoveCounts()) {
			t.Fatalf("seed %d: move counts diverged:\nserial  %v\nsharded %v",
				seed, serial.MoveCounts(), sharded.MoveCounts())
		}
		if !reflect.DeepEqual(serialEvents, shardedEvents) {
			t.Fatalf("seed %d: event streams diverged:\nserial  %v\nsharded %v",
				seed, serialEvents, shardedEvents)
		}
		if ss, ps := serial.Stats(), sharded.Stats(); ss.GuardEvals != ps.GuardEvals {
			t.Fatalf("seed %d: guard evals diverged: serial=%d sharded=%d", seed, ss.GuardEvals, ps.GuardEvals)
		}
	}
}

// TestShardedExercisesParallelPath guards the property test against
// silently degrading into serial-vs-serial: under a synchronous daemon
// on a grid, the sharded engine with lowered thresholds must actually
// run parallel batches and the boundary-conflict oracle must actually
// fire. At the real thresholds the same small run stays inline and the
// parallel counters stay at zero: they count only work that fanned out.
func TestShardedExercisesParallelPath(t *testing.T) {
	g := graph.Grid(6, 6)
	run := func(opts ...EngineOption) *Engine {
		cfg := make([]State, g.N())
		for i := range cfg {
			cfg[i] = &intState{v: i % 5}
		}
		e := NewEngine(g, maxProgram(), allDaemon{}, cfg,
			append([]EngineOption{WithShards(4, 1), WithSelfCheck(true)}, opts...)...)
		e.Run(100, nil)
		return e
	}
	e := run(withFanOutMin(0, 2))
	st := e.Stats()
	if st.ParallelBatches == 0 || st.ParallelMoves == 0 {
		t.Fatalf("sharded engine never took the parallel path: %+v", st)
	}
	if st.BoundaryChecks != st.ParallelBatches {
		t.Fatalf("oracle checked %d of %d batches", st.BoundaryChecks, st.ParallelBatches)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}
	small := run()
	if st := small.Stats(); st.ParallelBatches != 0 || st.ParallelMoves != 0 || st.BoundaryChecks != 0 {
		t.Fatalf("a grid-6x6 step is below the fan-out thresholds, yet the counters read %+v", st)
	}
	if small.Steps() != e.Steps() || small.Rounds() != e.Rounds() || !reflect.DeepEqual(small.MoveCounts(), e.MoveCounts()) {
		t.Fatal("the inline and the fanned-out run diverged")
	}
}

// TestPlanBatchesNonAdjacent drives the batch planner directly over
// random selection sets and requires every batch to be an independent
// set, every selection to land in exactly one batch, and the batch
// layout to be deterministic.
func TestPlanBatchesNonAdjacent(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		e := NewEngine(g, incProgram(1), allDaemon{}, intConfig(make([]int, g.N())...),
			WithShards(2+rng.Intn(4), seed), WithSelfCheck(false))
		// A random subset of processors pretends to be selected.
		var sels []Selection
		for p := 0; p < g.N(); p++ {
			if rng.Intn(2) == 0 {
				sels = append(sels, Selection{Process: graph.ProcessID(p), Rule: 0})
			}
		}
		if len(sels) == 0 {
			continue
		}
		batches := e.planBatches(sels)
		again := e.planBatches(sels)
		if !reflect.DeepEqual(batches, again) {
			t.Fatalf("seed %d: planBatches is not deterministic", seed)
		}
		seen := make(map[int]bool)
		for _, batch := range batches {
			members := make(map[graph.ProcessID]bool)
			for _, i := range batch {
				if seen[i] {
					t.Fatalf("seed %d: selection %d appears in two batches", seed, i)
				}
				seen[i] = true
				members[sels[i].Process] = true
			}
			for _, i := range batch {
				for _, q := range g.Neighbors(sels[i].Process) {
					if members[q] {
						t.Fatalf("seed %d: adjacent processors %d and %d share a batch",
							seed, sels[i].Process, q)
					}
				}
			}
		}
		if len(seen) != len(sels) {
			t.Fatalf("seed %d: %d of %d selections batched", seed, len(seen), len(sels))
		}
	}
}

// TestBoundaryOraclePanicsOnConflict plants an adversarial batch and
// requires the oracle to reject it, naming the edge.
func TestBoundaryOraclePanicsOnConflict(t *testing.T) {
	g := graph.Line(3)
	e := NewEngine(g, incProgram(1), allDaemon{}, intConfig(0, 0, 0),
		WithShards(2, 0), WithSelfCheck(false))
	sels := []Selection{{Process: 0, Rule: 0}, {Process: 1, Rule: 0}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected boundary-conflict panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "boundary-conflict") {
			t.Fatalf("panic should name the oracle, got: %s", msg)
		}
	}()
	e.assertBatchNonAdjacent(sels, []int{0, 1}) // 0 and 1 are adjacent on the line
}

// TestWithShardsOneIsSerial pins that -shards 1 (and 0) configure a
// plain serial engine: no partition, no parallel counters.
func TestWithShardsOneIsSerial(t *testing.T) {
	g := graph.Ring(5)
	for _, k := range []int{0, 1} {
		e := NewEngine(g, incProgram(2), allDaemon{}, intConfig(0, 0, 0, 0, 0), WithShards(k, 9))
		e.Run(50, nil)
		if e.Shards() != 1 {
			t.Fatalf("WithShards(%d): Shards() = %d, want 1", k, e.Shards())
		}
		if st := e.Stats(); st.ParallelBatches != 0 || st.ParallelMoves != 0 {
			t.Fatalf("WithShards(%d): parallel counters on a serial engine: %+v", k, st)
		}
	}
}

// TestShardedWithSelfCheck runs the sharded engine with the differential
// self-check on: the naive rescan oracle must accept every incremental,
// sharded enabled set.
func TestShardedWithSelfCheck(t *testing.T) {
	g := graph.Grid(4, 4)
	cfg := make([]State, g.N())
	for i := range cfg {
		cfg[i] = &intState{v: (i * 7) % 4}
	}
	e := NewEngine(g, maxProgram(), allDaemon{}, cfg,
		WithShards(3, 5), WithSelfCheck(true))
	_, terminal := e.Run(200, nil)
	if !terminal {
		t.Fatal("max protocol should reach a terminal configuration")
	}
	if st := e.Stats(); st.SelfChecks == 0 {
		t.Fatalf("self-check never ran: %+v", st)
	}
}

// TestParScanMatchesSerialScan compares the sharded full scan (a slot
// cache flush fanned out over four workers, the mark threshold lowered
// to zero) against the naive reference scan.
func TestParScanMatchesSerialScan(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(80)
		g := graph.RandomConnected(n, 2*n, rng)
		cfg := make([]State, n)
		for i := range cfg {
			cfg[i] = &intState{v: rng.Intn(6)}
		}
		e := NewEngine(g, maxProgram(), allDaemon{}, cfg, WithShards(4, seed), WithSelfCheck(false))
		c := newSlotCache(e.rules, n)
		for p := 0; p < n; p++ {
			c.markProc(graph.ProcessID(p))
		}
		got, evals, _, _ := c.flush(g, e.states, nil, 0, e.Shards(), 0, nil)
		var wantEvals int64
		want := scanEnabled(g, e.rules, e.states, 0, &wantEvals)
		if d := diffEnabled(e.rules, want, got); d != "" {
			t.Fatalf("seed %d: sharded scan diverged:\n%s", seed, d)
		}
		if evals != wantEvals {
			t.Fatalf("seed %d: guard evals %d, want %d", seed, evals, wantEvals)
		}
	}
}
