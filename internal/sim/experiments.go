package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ssmfp/internal/baseline"
	"ssmfp/internal/buffergraph"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

// correctTables builds the canonical routing tables for g.
func correctTables(g *graph.Graph) []*routing.NodeState {
	ts := make([]*routing.NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = routing.CorrectState(g, graph.ProcessID(p))
	}
	return ts
}

// Options parameterizes one experiment cell explicitly: the campaign
// runner executes many cells concurrently in one process, so per-run
// configuration must not live in process-global mutable state.
type Options struct {
	// Seed is the experiment's base seed; a cell derives its own seeds
	// from it by canonical case index (or sweep parameter), so a cell's
	// numbers do not depend on which other cells run.
	Seed int64

	// Paranoid turns the engine's differential self-check on for every
	// engine the cell builds. False keeps the engine default (on under
	// `go test`, off otherwise) rather than forcing it off.
	Paranoid bool

	// Ctx, when non-nil, aborts long runs early when cancelled
	// (best-effort; inside scenario runs it is checked every few hundred
	// steps).
	Ctx context.Context
}

// engineOpts translates the options into engine construction options.
func (o Options) engineOpts() []sm.EngineOption {
	var opts []sm.EngineOption
	if o.Paranoid {
		opts = append(opts, sm.WithSelfCheck(true))
	}
	return opts
}

// cancelled reports a best-effort context check inside long loops.
func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// --- E-F1: Figure 1, destination-based buffer graph -------------------

// F1Result verifies the Figure 1 claims: with correct tables the
// destination-based buffer graph is acyclic and has n connected
// components, the one of destination d isomorphic to the routing tree T_d.
// Rows are the E-F1 table rows, one per destination.
type F1Result struct {
	Acyclic    bool
	Components int
	AllTrees   bool
	Rows       [][]any
}

// ExperimentF1 reconstructs Figure 1 on the paper's 5-processor example
// network.
func ExperimentF1() F1Result {
	g := graph.Figure1Network()
	bg := buffergraph.DestinationBased(g, correctTables(g))
	res := F1Result{
		Acyclic:    bg.Acyclic(),
		Components: len(bg.Components()),
		AllTrees:   true,
	}
	for d := 0; d < g.N(); d++ {
		sub := bg.Restrict(graph.ProcessID(d))
		isTree := bg.ComponentIsTree(graph.ProcessID(d))
		if !isTree {
			res.AllTrees = false
		}
		res.Rows = append(res.Rows, []any{d, sub.Size(), sub.EdgeCount(), isTree})
	}
	return res
}

func f1Cell(Options, int) CellResult {
	r := ExperimentF1()
	return CellResult{
		OK:      r.Acyclic && r.AllTrees && r.Components == 5,
		Rows:    r.Rows,
		Measure: CellMeasure{Extra: map[string]float64{"components": float64(r.Components)}},
	}
}

// --- E-F2: Figure 2, SSMFP's two-buffer graph --------------------------

// F2Result verifies the Figure 2 structure and its corruption hazard: with
// correct tables the two-buffer graph is acyclic; with a routing loop it
// has a cycle (the deadlock hazard SSMFP tolerates while A repairs).
// Rows are the E-F2 table rows (correct, then corrupted tables).
type F2Result struct {
	CleanAcyclic bool
	BuffersPerCC int
	CycleLen     int // length of the cycle found under corruption (0 = none)
	Rows         [][]any
}

// ExperimentF2 builds the SSMFP buffer graph for one destination of the
// Figure 3 network (destination b, as in the paper's Figure 2), then
// corrupts the tables to exhibit a cycle.
func ExperimentF2() F2Result {
	g := graph.Figure3Network()
	const destB = 1
	clean := buffergraph.SSMFP(g, correctTables(g))
	sub := clean.Restrict(destB)

	ts := correctTables(g)
	routing.CycleCorrupt(g, destB, 0, 2, ts) // a and c route at each other
	corrupt := buffergraph.SSMFP(g, ts)
	cycle := corrupt.Restrict(destB).FindCycle()

	res := F2Result{
		CleanAcyclic: sub.Acyclic(),
		BuffersPerCC: sub.Size(),
		CycleLen:     max(0, len(cycle)-1),
	}
	res.Rows = [][]any{
		{"correct", sub.Size(), sub.EdgeCount(), sub.Acyclic(), 0},
		{"corrupted (a↔c)", sub.Size(), corrupt.Restrict(destB).EdgeCount(),
			corrupt.Restrict(destB).Acyclic(), res.CycleLen},
	}
	return res
}

func f2Cell(Options, int) CellResult {
	r := ExperimentF2()
	return CellResult{
		OK:      r.CleanAcyclic && r.CycleLen > 0,
		Rows:    r.Rows,
		Measure: CellMeasure{Extra: map[string]float64{"cycle_len": float64(r.CycleLen)}},
	}
}

// --- E-F4: Figure 4, caterpillar classification ------------------------

// f4Cell runs a corrupted scenario on the Figure 1 network and
// classifies every buffer at every step. All three caterpillar types
// must occur, and every occupied buffer set must contain at least one
// caterpillar head (the progress witness of the proofs).
func f4Cell(o Options, _ int) CellResult {
	seed := o.Seed
	g := graph.Figure1Network()
	rng := rand.New(rand.NewSource(seed))
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	cfg[0].(*core.Node).FW.Enqueue("f4-probe", 4)
	cfg[3].(*core.Node).FW.Enqueue("f4-probe-2", 2)
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)

	seen := make(map[core.CaterpillarType]int)
	consistent := true
	snapshot := func() []sm.State {
		out := make([]sm.State, g.N())
		for p := 0; p < g.N(); p++ {
			out[p] = e.PeekStateOf(graph.ProcessID(p))
		}
		return out
	}
	for i := 0; i < 500_000; i++ {
		if i%1024 == 0 && o.cancelled() {
			break
		}
		cfgNow := snapshot()
		for d := 0; d < g.N(); d++ {
			census := core.CaterpillarCensus(g, cfgNow, graph.ProcessID(d))
			for typ, c := range census {
				seen[typ] += c
			}
			total, _ := core.Occupancy(cfgNow, graph.ProcessID(d))
			heads := census[core.Type1] + census[core.Type2] + census[core.Type3]
			if total > 0 && heads == 0 {
				consistent = false
			}
		}
		if !e.Step() {
			break
		}
	}
	res := CellResult{OK: consistent && seen[core.Type1] > 0 && seen[core.Type2] > 0 && seen[core.Type3] > 0}
	for _, typ := range []core.CaterpillarType{core.Type1, core.Type2, core.Type3} {
		res.Rows = append(res.Rows, []any{typ.String(), seen[typ]})
	}
	stats := e.Stats()
	res.Measure = CellMeasure{
		Steps:      e.Steps(),
		Rounds:     e.Rounds(),
		GuardEvals: stats.GuardEvals,
		Extra: map[string]float64{
			"type1": float64(seen[core.Type1]),
			"type2": float64(seen[core.Type2]),
			"type3": float64(seen[core.Type3]),
		},
	}
	return res
}

// --- E-P4: Proposition 4, ≤ 2n invalid deliveries ----------------------

// sizeCase is one point of a sweep over an integer parameter (network
// size, diameter, storm intensity).
type sizeCase struct {
	Variant
	n int
}

// p4Cases is the network-size sweep of E-P4.
var p4Cases = []sizeCase{
	{Variant{Name: "n4"}, 4},
	{Variant{Name: "n6"}, 6},
	{Variant{Name: "n8", Heavy: true}, 8},
	{Variant{Name: "n10", Heavy: true}, 10},
}

// p4Cell stuffs every buffer of a random network with invalid messages
// and checks Proposition 4: at most 2n invalid messages are delivered
// per destination.
func p4Cell(o Options, idx int) CellResult {
	n := p4Cases[idx].n
	rng := rand.New(rand.NewSource(o.Seed + int64(n)))
	g := graph.RandomConnected(n, 2*n, rng)
	r := Run(Scenario{
		Name:  fmt.Sprintf("p4-n%d", n),
		Graph: g,
		Corrupt: &core.CorruptOptions{
			BufferFill:     1,
			CorruptRouting: true,
			CorruptQueues:  true,
		},
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(n),
		MaxSteps:  5_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
	})
	m := measureOf(r)
	m.InvalidBound = 2 * n
	return CellResult{
		OK:      r.MaxInvalidPerDst <= m.InvalidBound,
		Rows:    [][]any{{n, 2 * n * n, r.MaxInvalidPerDst, m.InvalidBound, r.InvalidDelivered}},
		Measure: m,
	}
}

// --- E-P5: Proposition 5, delivery latency bound -----------------------

// topoCase is one named topology of a sweep; graphs are built lazily so
// enumerating the grid costs nothing.
type topoCase struct {
	Variant
	make func() *graph.Graph
}

func line(n int) func() *graph.Graph { return func() *graph.Graph { return graph.Line(n) } }
func star(n int) func() *graph.Graph { return func() *graph.Graph { return graph.Star(n) } }
func ring(n int) func() *graph.Graph { return func() *graph.Graph { return graph.Ring(n) } }
func grid(r, c int) func() *graph.Graph {
	return func() *graph.Graph { return graph.Grid(r, c) }
}

// p5Cases is the sweep of E-P5: lines grow D at Δ=2, stars grow Δ at
// D=2.
var p5Cases = []topoCase{
	{Variant{Name: "line-3"}, line(3)},
	{Variant{Name: "line-5"}, line(5)},
	{Variant{Name: "line-7"}, line(7)},
	{Variant{Name: "line-9", Heavy: true}, line(9)},
	{Variant{Name: "star-4"}, star(4)},
	{Variant{Name: "star-6"}, star(6)},
	{Variant{Name: "star-8", Heavy: true}, star(8)},
}

// p5Cell runs one topology under adversarial cross-traffic and a
// corrupted initial configuration, and checks that the worst delivery
// latency stays within the O(max(R_A, Δ^D)) bound of Proposition 5.
func p5Cell(o Options, idx int) CellResult {
	c := p5Cases[idx]
	g := c.make()
	// Saturating cross-traffic: everyone sends to everyone once.
	w := workload.AllToAll(g, 1)
	r := Run(Scenario{
		Name:      "p5-" + c.Name,
		Graph:     g,
		Corrupt:   &core.DefaultCorrupt,
		Daemon:    WeaklyFairLIFO,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
	})
	maxLatency := int(r.LatencyRounds.Max)
	bound := math.Pow(float64(g.MaxDegree()), float64(g.Diameter()))
	m := measureOf(r)
	m.MaxLatencyRounds = maxLatency
	return CellResult{
		// The paper's bound is asymptotic; we check against a generous
		// constant multiple plus the routing-stabilization additive term.
		OK:      float64(maxLatency) <= 40*(bound+float64(4*g.N())),
		Rows:    [][]any{{c.Name, g.MaxDegree(), g.Diameter(), maxLatency, bound}},
		Measure: m,
	}
}

// --- E-P6: Proposition 6, delay and waiting time -----------------------

var p6Cases = []topoCase{
	{Variant{Name: "line-5"}, line(5)},
	{Variant{Name: "star-6"}, star(6)},
	{Variant{Name: "grid-3x3"}, grid(3, 3)},
}

// p6Cell loads one source with extra messages under all-to-one
// cross-traffic toward the same sink and measures the delay (rounds
// before its first emission) and the waiting time (rounds between
// consecutive emissions). Proposition 6 states bounds, not a checkable
// constant, so the cell always passes.
func p6Cell(o Options, idx int) CellResult {
	g := p6Cases[idx].make()
	sink := graph.ProcessID(0)
	probe := graph.ProcessID(g.N() - 1)
	w := workload.AllToOne(g, sink, 2)
	// The probe source sends three extra messages so waiting time has
	// at least two intervals.
	w = append(w, workload.SinglePair(probe, sink, 3)...)
	r := Run(Scenario{
		Name:      fmt.Sprintf("p6-%d", idx),
		Graph:     g,
		Corrupt:   &core.DefaultCorrupt,
		Daemon:    CentralRandom,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
	})
	m := measureOf(r)
	if gens := r.GenRoundsBySource[probe]; len(gens) > 0 {
		m.DelayRounds = gens[0]
		for j := 1; j < len(gens); j++ {
			m.MaxWaitingRounds = max(m.MaxWaitingRounds, gens[j]-gens[j-1])
		}
	}
	return CellResult{
		OK:      true,
		Rows:    [][]any{{g.String(), g.MaxDegree(), g.Diameter(), m.DelayRounds, m.MaxWaitingRounds}},
		Measure: m,
	}
}

// --- E-P7: Proposition 7, amortized complexity Θ(D) --------------------

// p7Cases is the diameter sweep of E-P7.
var p7Cases = []sizeCase{
	{Variant{Name: "d2"}, 2},
	{Variant{Name: "d4"}, 4},
	{Variant{Name: "d6"}, 6},
	{Variant{Name: "d8", Heavy: true}, 8},
}

// p7Cell saturates a line of diameter d with all-to-one traffic and
// checks the amortized bound: rounds per delivered message stay within
// the proof's 3D reference (+ constant slack) — the Θ(D) of
// Proposition 7. ssmfp-bench fits the amortized cost against D across
// the cells.
func p7Cell(o Options, idx int) CellResult {
	d := p7Cases[idx].n
	g := graph.Line(d + 1)
	w := workload.AllToOne(g, 0, 4)
	r := Run(Scenario{
		Name:      fmt.Sprintf("p7-d%d", d),
		Graph:     g,
		Corrupt:   nil, // amortized analysis is about steady state
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(d),
		Workload:  w,
		MaxSteps:  8_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
	})
	deliveries := r.DeliveredValid + r.InvalidDelivered
	amortized := 0.0
	if deliveries > 0 {
		amortized = float64(r.Rounds) / float64(deliveries)
	}
	m := measureOf(r)
	m.Extra = map[string]float64{"d": float64(d), "amortized": amortized}
	return CellResult{
		OK:      amortized <= float64(3*d)+10,
		Rows:    [][]any{{d, r.Rounds, deliveries, amortized, 3 * d}},
		Measure: m,
	}
}

// --- E-X1: SSMFP vs the classical baselines under corruption -----------

// x1Cell runs three protocols on the same ring with the same routing
// loop and the same traffic, from identical corrupted starting points:
// SSMFP must satisfy SP; the atomic classical controller livelocks
// without routing repair; the naive shared-memory port loses and
// duplicates. Each row is protocol, valid delivered, valid lost,
// violations (duplications and other SP breaches), stuck (deadlocked or
// livelocked).
func x1Cell(o Options, _ int) CellResult {
	seed := o.Seed
	g := graph.Ring(6)
	const dest = 0

	// --- SSMFP from a corrupted configuration.
	cfg := core.CleanConfig(g)
	cfg[2].(*core.Node).RT.Routes.At(dest).Parent = 3
	cfg[3].(*core.Node).RT.Routes.At(dest).Parent = 2 // loop 2↔3 toward dest
	cfg[3].(*core.Node).FW.Dest(dest).BufE = &core.Message{
		Payload: "x", LastHop: 3, Color: 0, UID: 1 << 40, Src: 3, Dest: dest, Valid: false}
	for p := 1; p < g.N(); p++ {
		cfg[p].(*core.Node).FW.Enqueue("x", dest) // colliding payloads
	}
	e := sm.NewEngine(g, core.FullProgram(g), NewDaemon(CentralRandom, seed, g.N()), cfg, o.engineOpts()...)
	tr := checker.New(g)
	tr.Attach(e)
	_, terminal := e.Run(5_000_000, nil)
	delivered, lost, violations := tr.DeliveredValid(), len(tr.UndeliveredValid()), len(tr.Violations())
	ssmfp := []any{"SSMFP", delivered, lost, violations, !terminal}

	// --- Classical atomic controller, same loop, no routing repair.
	ts := baseline.CorrectTables(g)
	ts[2].Routes.At(dest).Parent = 3
	ts[3].Routes.At(dest).Parent = 2
	a := baseline.NewAtomic(g, ts, seed)
	for p := 1; p < g.N(); p++ {
		a.Enqueue(graph.ProcessID(p), "x", dest)
	}
	_, stopped := a.Run(100_000)
	classical := []any{"classical (atomic moves, no repair)", len(a.Delivered()), 0, 0,
		!stopped || a.Deadlocked()} // livelock or deadlock

	// --- Naive shared-memory port with routing repair.
	ncfg := baseline.CleanConfig(g)
	ncfg[2].(*baseline.Node).RT.Routes.At(dest).Parent = 3
	ncfg[3].(*baseline.Node).RT.Routes.At(dest).Parent = 2
	ncfg[3].(*baseline.Node).FW.Buf[dest] = &core.Message{
		Payload: "x", LastHop: 3, UID: 1 << 41, Src: 3, Dest: dest, Valid: false}
	for p := 1; p < g.N(); p++ {
		ncfg[p].(*baseline.Node).FW.Enqueue("x", dest)
	}
	ne := sm.NewEngine(g, baseline.NaiveFullProgram(g), NewDaemon(CentralRandom, seed, g.N()), ncfg, o.engineOpts()...)
	ntr := checker.New(g)
	ntr.Attach(ne)
	_, nterminal := ne.Run(5_000_000, nil)
	naive := []any{"naive shared-memory port (no colors)", ntr.DeliveredValid(),
		len(ntr.UndeliveredValid()), len(ntr.Violations()), !nterminal}

	return CellResult{
		OK:   lost == 0 && violations == 0 && terminal,
		Rows: [][]any{ssmfp, classical, naive},
		Measure: CellMeasure{
			DeliveredValid: delivered,
			Extra: map[string]float64{
				"ssmfp_violations": float64(violations),
				"ssmfp_lost":       float64(lost),
			},
		},
	}
}

// --- E-X2: fault-free overhead ------------------------------------------

var x2Cases = []topoCase{
	{Variant{Name: "line-6"}, line(6)},
	{Variant{Name: "ring-8"}, ring(8)},
	{Variant{Name: "grid-3x3"}, grid(3, 3)},
	{Variant{Name: "star-6"}, star(6)},
}

// x2Cell runs identical permutation traffic fault-free through SSMFP and
// the classical atomic controller on one topology. It quantifies the
// paper's closing claim — snap-stabilization without significant
// overcost with respect to the fault-free algorithm: the per-message move
// overhead is a small constant (≈3×: copy + internal move + erase per hop
// instead of one atomic move), checked as < 8.
func x2Cell(o Options, idx int) CellResult {
	g := x2Cases[idx].make()
	rng := rand.New(rand.NewSource(o.Seed + int64(idx)))
	w := workload.Permutation(g, rng)

	r := Run(Scenario{
		Name:      "x2-ssmfp",
		Graph:     g,
		Daemon:    Synchronous,
		Seed:      o.Seed + int64(idx),
		Workload:  w,
		MaxSteps:  4_000_000,
		NoRA:      true,
		Ctx:       o.Ctx,
		SelfCheck: o.Paranoid,
	})
	fwMoves := 0
	for base, c := range r.MovesByRule {
		if base != "A" {
			fwMoves += c
		}
	}

	a := baseline.NewAtomic(g, baseline.CorrectTables(g), o.Seed+int64(idx))
	for _, s := range w {
		a.Enqueue(s.Src, s.Payload, s.Dest)
	}
	a.Run(4_000_000)

	var ssmfpMoves, classicalMoves, overhead float64
	if r.DeliveredValid > 0 {
		ssmfpMoves = float64(fwMoves) / float64(r.DeliveredValid)
	}
	if len(a.Delivered()) > 0 {
		classicalMoves = float64(a.Moves()) / float64(len(a.Delivered()))
	}
	if classicalMoves > 0 {
		overhead = ssmfpMoves / classicalMoves
	}
	m := measureOf(r)
	m.Extra = map[string]float64{"overhead": overhead}
	return CellResult{
		OK:      overhead < 8,
		Rows:    [][]any{{g.String(), ssmfpMoves, classicalMoves, overhead}},
		Measure: m,
	}
}
