// Command ssmfp-check runs the exhaustive model checker: it enumerates
// every configuration reachable under every central-daemon schedule for a
// small scenario and verifies the safety invariants of Specification SP
// (no loss, no duplication, well-typed domains), the terminal conditions
// (quiescent, everything delivered exactly once), and progress (a terminal
// state is reachable from every state).
//
// Usage:
//
//	ssmfp-check [-scenario clean|same-payload|figure3|r5-literal] [-max-states 2000000] [-simultaneity 1|2]
package main

import (
	"flag"
	"fmt"
	"os"
	"ssmfp/internal/routing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

func main() {
	scenario := flag.String("scenario", "figure3", "scenario to check (clean, same-payload, figure3, r5-literal)")
	maxStates := flag.Int("max-states", 2_000_000, "state cap")
	simultaneity := flag.Int("simultaneity", 1, "1 = all central schedules, 2 = also all simultaneous pairs")
	flag.Parse()

	g, prog, cfg, expectViolation, describe := buildScenario(*scenario)
	opts := explore.CoreOptions(g)
	opts.MaxStates = *maxStates
	opts.MaxSimultaneity = *simultaneity

	fmt.Println("scenario :", *scenario, "—", describe)
	fmt.Println("network  :", g)
	r := explore.Explore(g, prog, cfg, opts)
	fmt.Println("result   :", r)
	if r.InvariantErr != nil {
		fmt.Println("invariant:", r.InvariantErr)
		fmt.Println("schedule :", r.Witness)
	}
	if r.TerminalErr != nil {
		fmt.Println("terminal :", r.TerminalErr)
	}

	if expectViolation {
		if r.InvariantErr == nil {
			fmt.Println("verdict  : FAIL — expected the literal R5 to lose a message, but no schedule did")
			os.Exit(1)
		}
		fmt.Println("verdict  : OK — the model checker found the loss the literal R5 admits")
		return
	}
	if !r.OK() {
		fmt.Println("verdict  : FAIL")
		os.Exit(1)
	}
	fmt.Println("verdict  : OK — every central schedule satisfies SP")
}

func buildScenario(name string) (*graph.Graph, sm.Program, []sm.State, bool, string) {
	switch name {
	case "clean":
		g := graph.Line(3)
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).FW.Enqueue("m", 2)
		return g, core.FullProgram(g), cfg, false, "one message over a clean line"
	case "same-payload":
		g := graph.Line(3)
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).FW.Enqueue("same", 2)
		cfg[0].(*core.Node).FW.Enqueue("same", 2)
		return g, core.FullProgram(g), cfg, false, "two equal-payload messages (color machinery)"
	case "figure3":
		g := graph.Figure3Network()
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 2})
		cfg[2].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 0})
		cfg[1].(*core.Node).FW.Dest(1).BufR = &core.Message{
			Payload: "data", LastHop: 2, Color: 0, UID: 1 << 50, Src: 1, Dest: 1, Valid: false}
		cfg[2].(*core.Node).FW.Enqueue("data", 1)
		return g, core.FullProgram(g), cfg, false,
			"the Figure 3 corruption: a↔c routing cycle + colliding invalid message"
	case "r5-literal":
		g := graph.Line(3)
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{
			Payload: "x", LastHop: 0, Color: 0, UID: 1 << 51, Src: 0, Dest: 2, Valid: false}
		cfg[0].(*core.Node).FW.Enqueue("x", 2)
		return g, core.LiteralR5Program(g), cfg, true,
			"Algorithm 1's R5 as printed (no q ≠ p) — the reproduction finding"
	default:
		fmt.Fprintf(os.Stderr, "ssmfp-check: unknown scenario %q\n", name)
		os.Exit(2)
		return nil, nil, nil, false, ""
	}
}
