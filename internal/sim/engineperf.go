package sim

import (
	"fmt"
	"math/rand"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// --- E-EP: incremental enabled-set engine vs naive rescan --------------

// epRun drives one engine over the scenario and reports its stats plus an
// execution fingerprint (per-rule move counts) for the determinism check.
// Self-check is off in both modes so the guard-evaluation counts are the
// modes' real costs, not the harness's.
func epRun(g *graph.Graph, seed int64, steps int, incremental bool) (sm.Stats, int, map[string]int) {
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg,
		sm.WithIncremental(incremental), sm.WithSelfCheck(false))
	rng := rand.New(rand.NewSource(seed))
	in := workload.NewInjector(workload.RandomPairs(g, g.N(), rng),
		func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })
	in.Tick(e)
	ran, _ := e.Run(steps, nil)
	return e.Stats(), ran, e.MoveCounts()
}

func sameMoves(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// epCase is one sweep point of E-EP; display is its table label. Random
// graphs derive from a per-case seed offset (not one rng shared across
// the sweep) so a case builds the same graph whatever else runs.
type epCase struct {
	Variant
	display string
	steps   int
	make    func(seed int64) *graph.Graph
}

func randomConnected(n, m, off int) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph {
		return graph.RandomConnected(n, m, rand.New(rand.NewSource(seed+int64(off))))
	}
}

// epCases sweeps grids and random connected graphs at n ∈ {25, 100, 400}.
// Step caps shrink with n to keep the naive baseline affordable (it
// costs Θ(n² · n) guard evaluations overall: n processors × ~6n+1 rules
// each, every step); that baseline makes the large cases heavy.
var epCases = []epCase{
	{Variant{Name: "grid-5x5"}, "grid 5x5", 200, func(int64) *graph.Graph { return graph.Grid(5, 5) }},
	{Variant{Name: "grid-10x10"}, "grid 10x10", 80, func(int64) *graph.Graph { return graph.Grid(10, 10) }},
	{Variant{Name: "grid-20x20", Heavy: true}, "grid 20x20", 24, func(int64) *graph.Graph { return graph.Grid(20, 20) }},
	{Variant{Name: "random-25"}, "random n=25 m=50", 200, randomConnected(25, 50, 103)},
	{Variant{Name: "random-100", Heavy: true}, "random n=100 m=200", 80, randomConnected(100, 200, 104)},
	{Variant{Name: "random-400", Heavy: true}, "random n=400 m=800", 24, randomConnected(400, 800, 105)},
}

// epCell compares the incremental enabled-set engine against the naive
// full rescan on the composed SSMFP+routing program, under a central
// random daemon with a random-pairs workload. The two modes must produce
// bit-identical executions (same steps, same per-rule move counts); the
// payoff column is guard evaluations per step, which for the naive scan
// is Θ(n · rules) and for the incremental engine is proportional to the
// executed processors' neighborhoods. On the 20×20 grid the incremental
// engine must do at least 3× fewer. Self-check stays off in both modes
// regardless of paranoia so the guard-evaluation counts are the modes'
// real costs, not the harness's.
func epCell(o Options, idx int) CellResult {
	c := epCases[idx]
	g := c.make(o.Seed)
	runSeed := o.Seed + int64(idx)
	nStats, nSteps, nMoves := epRun(g, runSeed, c.steps, false)
	iStats, iSteps, iMoves := epRun(g, runSeed, c.steps, true)
	match := nSteps == iSteps && sameMoves(nMoves, iMoves)
	steps := max(iSteps, 1)
	evaluated := iStats.ProcsEvaluated + iStats.ProcsSkipped
	skippedPct := 0.0
	if evaluated > 0 {
		skippedPct = 100 * float64(iStats.ProcsSkipped) / float64(evaluated)
	}
	naivePerStep := float64(nStats.GuardEvals) / float64(steps)
	incPerStep := float64(iStats.GuardEvals) / float64(steps)
	ratio := 0.0
	if incPerStep > 0 {
		ratio = naivePerStep / incPerStep
	}
	return CellResult{
		OK: match && (c.Name != "grid-20x20" || ratio >= 3),
		Rows: [][]any{{c.display, g.N(), iSteps,
			fmt.Sprintf("%.0f", naivePerStep),
			fmt.Sprintf("%.0f", incPerStep),
			fmt.Sprintf("%.1fx", ratio),
			fmt.Sprintf("%.1f%%", skippedPct),
			match}},
		Measure: CellMeasure{
			Steps:      iSteps,
			GuardEvals: iStats.GuardEvals,
			Extra:      map[string]float64{"ratio": ratio, "naive_guard_evals": float64(nStats.GuardEvals)},
		},
	}
}
