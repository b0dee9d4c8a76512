package explore_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// corruptionTemplate prepares an adversarial starting point on cfg and
// returns a short label.
type corruptionTemplate struct {
	name  string
	apply func(g *graph.Graph, cfg []sm.State, rng *rand.Rand)
}

var templates = []corruptionTemplate{
	{"clean", func(g *graph.Graph, cfg []sm.State, rng *rand.Rand) {}},
	{"random-tables", func(g *graph.Graph, cfg []sm.State, rng *rand.Rand) {
		// Corrupt the tables for the message's destination (the last
		// processor). Destination instances are mutually independent (the
		// paper's own observation in §3.2), so corrupting the other
		// destinations only multiplies the state space with interleavings
		// of unrelated repairs.
		d := graph.ProcessID(g.N() - 1)
		for p := 0; p < g.N(); p++ {
			if graph.ProcessID(p) == d {
				continue
			}
			nbrs := g.Neighbors(graph.ProcessID(p))
			cfg[p].(*core.Node).RT.SetRoute(d, routing.Route{Dist: rng.Intn(g.N() + 1), Parent: nbrs[rng.Intn(len(nbrs))]})
		}
	}},
	{"invalid-squatter", func(g *graph.Graph, cfg []sm.State, rng *rand.Rand) {
		// One invalid message with a colliding payload and color 0 in a
		// random reception buffer of the message's destination, plus a
		// scrambled queue.
		p := graph.ProcessID(rng.Intn(g.N()))
		d := graph.ProcessID(g.N() - 1)
		hops := append(append([]graph.ProcessID(nil), g.Neighbors(p)...), p)
		cfg[p].(*core.Node).FW.Dest(d).BufR = &core.Message{
			Payload: "m", LastHop: hops[rng.Intn(len(hops))], Color: 0,
			UID: 1 << 52, Src: p, Dest: d, Valid: false,
		}
		cfg[p].(*core.Node).FW.Dest(d).Queue = hops
	}},
}

// TestSweepAllSmallTopologies model-checks one colliding-payload message
// over EVERY labeled connected topology on 3 and 4 processors × every
// corruption template × every central schedule. This is the systematic
// version of the paper's "starting from any configuration": ~126
// topology/corruption combinations, each explored exhaustively.
func TestSweepAllSmallTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	combos, totalStates := 0, 0
	for _, n := range []int{3, 4} {
		for gi, g := range graph.AllConnected(n) {
			for _, tmpl := range templates {
				rng := rand.New(rand.NewSource(int64(n*1000 + gi)))
				cfg := core.CleanConfig(g)
				tmpl.apply(g, cfg, rng)
				// One message with the colliding payload "m" across the
				// diameter of the graph.
				src, dst := graph.ProcessID(0), graph.ProcessID(g.N()-1)
				cfg[src].(*core.Node).FW.Enqueue("m", dst)

				opts := explore.CoreOptions(g)
				opts.MaxStates = 300_000
				r := explore.Explore(g, core.FullProgram(g), cfg, opts)
				combos++
				totalStates += r.States
				if r.Truncated {
					t.Fatalf("n=%d g=%d tmpl=%s: truncated at %d states", n, gi, tmpl.name, r.States)
				}
				if !r.OK() {
					t.Fatalf("n=%d g=%d tmpl=%s: %s inv=%v term=%v",
						n, gi, tmpl.name, r, r.InvariantErr, r.TerminalErr)
				}
			}
		}
	}
	t.Logf("swept %d topology×corruption combinations, %d states total", combos, totalStates)
	if combos != (4+38)*len(templates) {
		t.Fatalf("combos = %d, want %d", combos, (4+38)*len(templates))
	}
}

// TestSweepRoutingFixpointUniqueness model-checks that the routing
// algorithm has exactly one terminal (the canonical silent fixpoint) on
// every 3-node topology from every random corruption.
func TestSweepRoutingFixpointUniqueness(t *testing.T) {
	for gi, g := range graph.AllConnected(3) {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(gi*10 + trial)))
			cfg := core.CleanConfig(g)
			for p := 0; p < g.N(); p++ {
				cfg[p].(*core.Node).RT = routing.RandomState(g, graph.ProcessID(p), rng)
			}
			opts := explore.CoreOptions(g)
			opts.TerminalCheck = func(cfg []sm.State, _, _ map[uint64]int) error {
				for p := 0; p < g.N(); p++ {
					if !routing.Correct(g, graph.ProcessID(p), cfg[p].(*core.Node).RT) {
						return fmt.Errorf("non-canonical terminal at %d", p)
					}
				}
				return nil
			}
			r := explore.Explore(g, core.FullProgram(g), cfg, opts)
			if !r.OK() || r.Terminals != 1 {
				t.Fatalf("g=%d trial=%d: %s term=%v", gi, trial, r, r.TerminalErr)
			}
		}
	}
}
