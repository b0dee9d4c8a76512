package sim

import (
	"fmt"
	"math/rand"

	"ssmfp/internal/acyclic"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/faults"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// --- E-X4: buffer economy of the §4 alternative scheme -----------------

// x4Case is one scheme/topology case of E-X4; display is its table label.
type x4Case struct {
	Variant
	display string
	make    func(seed int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState)
}

// x4Cases runs a ring (specialized 3-cover, clockwise routing), a tree
// (2-cover, minimal routing), and general graphs (alternating cover).
var x4Cases = []x4Case{
	{Variant{Name: "ring-8"}, "ring-8 (clockwise)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
		g := graph.Ring(8)
		return g, acyclic.RingCover(g), acyclic.ClockwiseRingTables(g)
	}},
	{Variant{Name: "tree-15"}, "tree-15 (minimal)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
		g := graph.BinaryTree(15)
		return g, acyclic.TreeCover(g, 0), correctTables(g)
	}},
	{Variant{Name: "grid-3x3"}, "grid-3x3 (alternating)", func(int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
		return alternating(graph.Grid(3, 3))
	}},
	{Variant{Name: "random-10"}, "random-10 (alternating)", func(seed int64) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
		return alternating(graph.RandomConnected(10, 20, rand.New(rand.NewSource(seed))))
	}},
}

// alternating covers g's correct tables with the alternating cover.
func alternating(g *graph.Graph) (*graph.Graph, *acyclic.Cover, []*routing.NodeState) {
	ts := correctTables(g)
	c, err := acyclic.AlternatingCover(g, ts)
	if err != nil {
		panic(err)
	}
	return g, c, ts
}

// x4Cell runs permutation traffic through the level-buffer controller on
// one topology. It quantifies the conclusion's discussion: the
// acyclic-covering buffer graph needs far fewer buffers per node (3 for
// a ring, 2 for a tree) than SSMFP (2n) or the destination scheme (n),
// at the price of general applicability (NP-hard minimal rank; the
// alternating cover is an upper bound) and sometimes path stretch
// (clockwise-only ring routing). The controller must drain and deliver
// every message exactly once.
func x4Cell(o Options, idx int) CellResult {
	c := x4Cases[idx]
	g, cover, tables := c.make(o.Seed)
	ctrl := acyclic.NewController(cover, tables, o.Seed+int64(idx))
	rng := rand.New(rand.NewSource(o.Seed + int64(idx)))
	w := workload.Permutation(g, rng)
	var pathLen, shortest int
	for _, s := range w {
		ctrl.Enqueue(s.Src, s.Payload, s.Dest)
		pathLen += tableDistance(tables, s.Src, s.Dest)
		shortest += g.Dist(s.Src, s.Dest)
	}
	_, stopped := ctrl.Run(4_000_000)
	seen := map[uint64]int{}
	for _, p := range ctrl.Delivered() {
		seen[p.UID]++
	}
	exactlyOnce := len(seen) == len(w)
	for _, n := range seen {
		if n != 1 {
			exactlyOnce = false
		}
	}
	stretch := 0.0
	if shortest > 0 {
		stretch = float64(pathLen) / float64(shortest)
	}
	return CellResult{
		OK:   stopped && ctrl.Quiescent() && exactlyOnce,
		Rows: [][]any{{c.display, g.N(), 2 * g.N(), g.N(), cover.Size(), stretch, exactlyOnce}},
		Measure: CellMeasure{
			Generated:      len(w),
			DeliveredValid: len(seen),
			Extra:          map[string]float64{"cover_k": float64(cover.Size()), "stretch": stretch},
		},
	}
}

// tableDistance follows the tables, counting hops.
func tableDistance(tables []*routing.NodeState, p, d graph.ProcessID) int {
	hops := 0
	for p != d {
		p = tables[p].NextHop(d)
		hops++
		if hops > 10_000 {
			panic("sim: routing loop in tableDistance")
		}
	}
	return hops
}

// --- E-X5: choice_p(d) policy ablation ----------------------------------

// x5Cases are the choice_p(d) policies E-X5 compares, named by their
// String().
var x5Cases = []struct {
	Variant
	policy core.ChoicePolicy
}{
	{Variant{Name: "fifo-queue"}, core.PolicyQueue},
	{Variant{Name: "rotating"}, core.PolicyRotating},
	{Variant{Name: "lowest-id"}, core.PolicyLowestID},
}

// x5Cell ablates the fair selection scheme behind choice_p(d) — the
// paper's conclusion suggests modifying it to improve the worst case, and
// its fairness requirement exists to prevent starvation. The probe is one
// message from the highest-ID leaf of a star whose other leaves hammer
// the center; an unfair policy serves it last (or never, under sustained
// load), the fair policies serve it within the Δ+1 passing bound. The
// supply is finite, so every policy must deliver everything.
func x5Cell(o Options, idx int) CellResult {
	policy := x5Cases[idx].policy
	g := graph.Star(6)
	cfg := core.CleanConfig(g)
	for leaf := graph.ProcessID(1); leaf <= 4; leaf++ {
		for k := 0; k < 10; k++ {
			cfg[leaf].(*core.Node).FW.Enqueue(fmt.Sprintf("bulk-%d-%d", leaf, k), 0)
		}
	}
	cfg[5].(*core.Node).FW.Enqueue("probe", 0)

	e := sm.NewEngine(g, core.FullProgramWithPolicy(g, policy), NewDaemon(CentralRandom, o.Seed, g.N()), cfg, o.engineOpts()...)
	tr := checker.New(g)
	tr.Attach(e)
	probeStep := -1
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == obs.KindDeliver && ev.Msg.Payload == "probe" {
			probeStep = ev.Step
		}
	})
	e.Run(4_000_000, nil)

	allDelivered := tr.AllValidDelivered() && len(tr.Violations()) == 0
	maxLatency := 0
	for _, l := range tr.LatencyRounds() {
		maxLatency = max(maxLatency, l)
	}
	stats := e.Stats()
	return CellResult{
		OK:   allDelivered,
		Rows: [][]any{{policy.String(), allDelivered, probeStep, maxLatency}},
		Measure: CellMeasure{
			Steps:            e.Steps(),
			Rounds:           e.Rounds(),
			GuardEvals:       stats.GuardEvals,
			DeliveredValid:   tr.DeliveredValid(),
			MaxLatencyRounds: maxLatency,
			Extra:            map[string]float64{"probe_step": float64(probeStep)},
		},
	}
}

// --- E-X6: transient faults mid-execution -------------------------------

// x6Cases is the storm-intensity sweep of E-X6 (fault waves).
var x6Cases = []sizeCase{
	{Variant{Name: "w1"}, 1},
	{Variant{Name: "w3"}, 3},
	{Variant{Name: "w6"}, 6},
}

// x6Cell demonstrates the defining property of snap-stabilization with
// mid-run transient faults instead of a corrupted time zero: after every
// strike of a storm of waves, newly generated messages are still
// delivered exactly once.
func x6Cell(o Options, idx int) CellResult {
	waves := x6Cases[idx].n
	seed := o.Seed
	rng := rand.New(rand.NewSource(seed + int64(waves)))
	g := graph.Grid(3, 3)
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)
	tr := checker.New(g)
	tr.Attach(e)
	in := faults.NewInjector(g, seed+int64(waves), nil)

	for wave := 0; wave < waves; wave++ {
		for k := 0; k < 4; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("w%d-%d", wave, k), dst)
		}
		// Strike while the wave is still in flight.
		for i := 0; i < 15; i++ {
			e.Step()
		}
		tr.MarkCompromised(faults.InFlightValid(e, g)...)
		tr.MarkCompromised(in.Strike(e, 4)...)
		faults.RearmRequests(e, g)
	}
	for k := 0; k < 4; k++ {
		src := graph.ProcessID(rng.Intn(g.N()))
		dst := graph.ProcessID(rng.Intn(g.N()))
		e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("final-%d", k), dst)
	}
	_, terminal := e.Run(4_000_000, nil)

	postFaultOK := terminal && tr.AllValidDelivered()
	violations := len(tr.Violations())
	stats := e.Stats()
	return CellResult{
		OK:   postFaultOK && violations == 0,
		Rows: [][]any{{waves, tr.Compromised(), postFaultOK, violations}},
		Measure: CellMeasure{
			Steps:          e.Steps(),
			Rounds:         e.Rounds(),
			GuardEvals:     stats.GuardEvals,
			Generated:      tr.GeneratedCount(),
			DeliveredValid: tr.DeliveredValid(),
			Extra:          map[string]float64{"compromised": float64(tr.Compromised())},
		},
	}
}
