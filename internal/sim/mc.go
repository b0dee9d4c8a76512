package sim

import (
	"fmt"
	"ssmfp/internal/routing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// mcCell runs the exhaustive model-checking suite (experiment E-MC): the
// key small scenarios explored over every central schedule (and, where
// noted, every simultaneous pair), then the literal-R5 counterexample,
// whose row reports the witness schedule and comes last.
func mcCell(Options, int) CellResult {
	res := CellResult{OK: true}
	states := 0
	add := func(name string, r explore.Result, verdict string) {
		states += r.States
		res.Rows = append(res.Rows, []any{name, r.States, r.Terminals, verdict})
	}
	check := func(name string, g *graph.Graph, cfg []sm.State, simultaneity int) {
		opts := explore.CoreOptions(g)
		opts.MaxSimultaneity = simultaneity
		r := explore.Explore(g, core.FullProgram(g), cfg, opts)
		res.OK = res.OK && r.OK()
		add(name, r, verdict(r.OK()))
	}

	// Clean line, one message.
	{
		g := graph.Line(3)
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).FW.Enqueue("m", 2)
		check("clean line, 1 message", g, cfg, 1)
	}
	// Clean line, two equal payloads.
	{
		g := graph.Line(3)
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).FW.Enqueue("same", 2)
		cfg[0].(*core.Node).FW.Enqueue("same", 2)
		check("clean line, 2 equal-payload messages", g, cfg, 1)
	}
	// Figure 3 corruption, central and simultaneity 2.
	fig3 := func() (*graph.Graph, []sm.State) {
		g := graph.Figure3Network()
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 2})
		cfg[2].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 0})
		cfg[1].(*core.Node).FW.Dest(1).BufR = &core.Message{
			Payload: "data", LastHop: 2, Color: 0, UID: 1 << 50, Src: 1, Dest: 1, Valid: false}
		cfg[2].(*core.Node).FW.Enqueue("data", 1)
		return g, cfg
	}
	{
		g, cfg := fig3()
		check("Figure 3 corruption (cycle + invalid)", g, cfg, 1)
	}
	{
		g, cfg := fig3()
		check("Figure 3 corruption, simultaneity 2", g, cfg, 2)
	}

	// The literal R5: the checker must FIND the loss.
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{
		Payload: "x", LastHop: 0, Color: 0, UID: 1 << 51, Src: 0, Dest: 2, Valid: false}
	cfg[0].(*core.Node).FW.Enqueue("x", 2)
	r := explore.Explore(g, core.LiteralR5Program(g), cfg, explore.CoreOptions(g))
	res.OK = res.OK && r.InvariantErr != nil
	add("literal R5 (loss expected)", r, fmt.Sprintf("loss found, schedule %v", r.Witness))

	res.Measure = CellMeasure{Extra: map[string]float64{
		"states_total":      float64(states),
		"literal_r5_states": float64(r.States),
	}}
	return res
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAIL"
}
