package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// corruptGrid builds the configuration of the engine-corrupt shape of
// the repository benchmark: grid-8x8 from a corrupted start (random
// routing tables, 30% of the buffers holding invalid messages, scrambled
// choice queues, phantom request bits), four sends per processor to
// seeded destinations.
func corruptGrid(seed int64) (*graph.Graph, []sm.State) {
	g := graph.Grid(8, 8)
	rng := rand.New(rand.NewSource(seed))
	cfg := core.RandomConfig(g, rng, core.CorruptOptions{
		BufferFill:      0.3,
		CorruptRouting:  true,
		CorruptQueues:   true,
		PhantomRequests: true,
	})
	n := g.N()
	for p := 0; p < n; p++ {
		for k := 0; k < 4; k++ {
			d := rng.Intn(n - 1)
			if d >= p {
				d++
			}
			cfg[p].(*core.Node).FW.Enqueue(fmt.Sprintf("p%d.%d", p, k), graph.ProcessID(d))
		}
	}
	return g, cfg
}

// corruptGridEngine runs corruptGrid under the synchronous daemon with
// the checker subscribed, as the benchmark does.
func corruptGridEngine(seed int64, opts ...sm.EngineOption) *sm.Engine {
	g, cfg := corruptGrid(seed)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(seed), cfg, opts...)
	checker.New(g).Attach(e)
	return e
}

// BenchmarkEngineStep measures one engine step of the engine-corrupt
// shape at one and two shards: an op is one Step, and a run that reaches
// quiescence is replaced by the next seeded one outside the timer, so
// the figures average over whole executions. It is the measurement to
// set statemodel's fan-out thresholds (parallel.go) from; run with
// -benchmem.
func BenchmarkEngineStep(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			seed := int64(1)
			build := func() *sm.Engine {
				e := corruptGridEngine(seed, sm.WithShards(shards, seed), sm.WithSelfCheck(false))
				seed++
				return e
			}
			e := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.Step() {
					b.StopTimer()
					e = build()
					b.StartTimer()
					i--
				}
			}
		})
	}
}
