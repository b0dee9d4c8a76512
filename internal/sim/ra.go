package sim

import (
	"math/rand"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// raRun is one routing variant's outcome.
type raRun struct {
	routingRound int // R_A: rounds until every table is canonical
	probeDelay   int // rounds before the probe's R1 fires (Prop. 6 delay)
	probeOK      bool
}

// raCell isolates the max(R_A, ·) term of Propositions 5-7: the same
// corrupted scenario is run with the normal routing algorithm A and with a
// deliberately slowed variant (routing.NewSlowProgram). A is prioritized,
// so a processor whose table is still wrong cannot execute R1; the probe's
// generation delay (Prop. 6) therefore tracks the source's share of R_A —
// the R_A branch of the paper's O(max(R_A, Δ^D)) bounds, exhibited
// empirically. The cell passes when the slow variant has both the larger
// R_A and the larger delay. (End-to-end latency does NOT have to track
// global R_A: a message only needs the tables along its own path, which
// usually repair long before the whole network is silent — a nuance the
// bound hides.)
func raCell(o Options, _ int) CellResult {
	seed := o.Seed
	run := func(prog func(*graph.Graph, routing.Accessor) sm.Program) raRun {
		g := graph.Grid(3, 3)
		rng := rand.New(rand.NewSource(seed))
		// Corrupt only the routing tables, with maximal distance error at
		// the probe source so its local repair work dominates; buffers
		// start clean.
		cfg := core.CleanConfig(g)
		for p := 0; p < g.N(); p++ {
			cfg[p].(*core.Node).RT = routing.RandomState(g, graph.ProcessID(p), rng)
		}
		src := cfg[0].(*core.Node).RT
		for d := 1; d < g.N(); d++ {
			src.Routes[d].Dist = g.N() // worst-case error: the slow variant pays per unit
		}
		cfg[0].(*core.Node).FW.Enqueue("ra-probe", graph.ProcessID(g.N()-1))

		full := sm.Compose(prog(g, core.RoutingOf), core.NewProgram(g))
		e := sm.NewEngine(g, full, NewDaemon(CentralRoundRobin, seed, g.N()), cfg, o.engineOpts()...)
		tr := checker.New(g)
		tr.Attach(e)

		r := raRun{routingRound: -1}
		for i := 0; i < 10_000_000; i++ {
			if i%1024 == 0 && o.cancelled() {
				break
			}
			if r.routingRound < 0 && routingCorrect(g, e) {
				r.routingRound = e.Rounds()
			}
			if !e.Step() {
				break
			}
		}
		if gens := tr.GenerationRounds(); len(gens) == 1 {
			r.probeDelay = gens[0]
			r.probeOK = tr.AllValidDelivered() && len(tr.Violations()) == 0
		}
		return r
	}

	fast := run(routing.NewProgram)
	slow := run(routing.NewSlowProgram)
	return CellResult{
		OK: fast.probeOK && slow.probeOK &&
			slow.routingRound > fast.routingRound &&
			slow.probeDelay > fast.probeDelay,
		Rows: [][]any{
			{"fast A (jump to target)", fast.routingRound, fast.probeDelay, fast.probeOK},
			{"slow A (unit steps)", slow.routingRound, slow.probeDelay, slow.probeOK},
		},
		Measure: CellMeasure{Extra: map[string]float64{
			"fast_ra_rounds":   float64(fast.routingRound),
			"fast_probe_delay": float64(fast.probeDelay),
			"slow_ra_rounds":   float64(slow.routingRound),
			"slow_probe_delay": float64(slow.probeDelay),
		}},
	}
}
