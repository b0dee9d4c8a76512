package sim

import (
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// benchEngine measures raw engine throughput (steps/sec) on a saturated
// composed system — the performance envelope of the reproduction itself,
// not a paper artifact.
func benchEngine(b *testing.B, g *graph.Graph, kind DaemonKind) {
	b.ReportAllocs()
	steps := 0
	for i := 0; i < b.N; i++ {
		cfg := core.CleanConfig(g)
		e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(kind, int64(i), g.N()), cfg, sm.WithSelfCheck(false))
		in := workload.NewInjector(workload.AllToAll(g, 1),
			func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })
		in.Tick(e)
		for e.Step() {
			steps++
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

func BenchmarkEngineGrid3x3Synchronous(b *testing.B) {
	benchEngine(b, graph.Grid(3, 3), Synchronous)
}

func BenchmarkEngineGrid4x4Synchronous(b *testing.B) {
	benchEngine(b, graph.Grid(4, 4), Synchronous)
}

func BenchmarkEngineGrid4x4CentralRandom(b *testing.B) {
	benchEngine(b, graph.Grid(4, 4), CentralRandom)
}

func BenchmarkEngineRing16Distributed(b *testing.B) {
	benchEngine(b, graph.Ring(16), Distributed)
}

// BenchmarkEnabledComputation isolates the full guard sweep, the
// engine's hot path (n processors × 7n rules): the enabled-set cache is
// dropped outside the timer before each call, so Enabled re-evaluates
// every guard instead of copying the memoized list.
func BenchmarkEnabledComputation(b *testing.B) {
	g := graph.Grid(4, 4)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("x", 15)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(Synchronous, 1, g.N()), cfg, sm.WithSelfCheck(false))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.Invalidate()
		b.StartTimer()
		if len(e.Enabled()) == 0 {
			b.Fatal("expected enabled rules")
		}
	}
}

// benchEngineMode measures steps/sec of the composed system with the
// enabled-set strategy pinned, isolating the incremental engine's payoff.
func benchEngineMode(b *testing.B, g *graph.Graph, incremental bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.CleanConfig(g)
		e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, int64(i), g.N()), cfg,
			sm.WithIncremental(incremental), sm.WithSelfCheck(false))
		in := workload.NewInjector(workload.SinglePair(0, graph.ProcessID(g.N()-1), 2),
			func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })
		in.Tick(e)
		e.Run(50, nil)
	}
}

func BenchmarkEngineGrid10x10Naive(b *testing.B) {
	benchEngineMode(b, graph.Grid(10, 10), false)
}

func BenchmarkEngineGrid10x10Incremental(b *testing.B) {
	benchEngineMode(b, graph.Grid(10, 10), true)
}

func BenchmarkEngineGrid20x20Naive(b *testing.B) {
	benchEngineMode(b, graph.Grid(20, 20), false)
}

func BenchmarkEngineGrid20x20Incremental(b *testing.B) {
	benchEngineMode(b, graph.Grid(20, 20), true)
}
