package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// footprintFields are the fields of a destination's slot, and the
// unsliced ones, that the composed program's footprints name.
var footprintFields = []sm.Footprint{routing.RouteField, core.BufRField, core.BufEField, core.QueueField, sm.Unsliced}

// perturb gives field f of destination d at n a random value drawn near
// those of cfg: nil or a message copied from any buffer of d with a
// random last hop and color, a random route or queue over N[q], or
// random unsliced fields.
func perturb(g *graph.Graph, cfg []sm.State, n *core.Node, q, d graph.ProcessID, f sm.Footprint, rng *rand.Rand) {
	hops := append(slices.Clone(g.Neighbors(q)), q)
	msg := func() *core.Message {
		var pool []*core.Message
		for _, s := range cfg {
			ds := s.(*core.Node).FW.Dests[d]
			for _, m := range []*core.Message{ds.BufR, ds.BufE} {
				if m != nil {
					pool = append(pool, m)
				}
			}
		}
		if len(pool) == 0 || rng.Intn(3) == 0 {
			return nil
		}
		return pool[rng.Intn(len(pool))].WithHopColor(hops[rng.Intn(len(hops))], rng.Intn(g.MaxDegree()+1))
	}
	ds := &n.FW.Dests[d]
	switch f {
	case routing.RouteField:
		n.RT.Routes[d] = routing.Route{Dist: rng.Intn(g.N() + 1), Parent: hops[rng.Intn(len(hops))]}
	case core.BufRField:
		ds.BufR = msg()
	case core.BufEField:
		ds.BufE = msg()
	case core.QueueField:
		ds.Queue = nil
		for _, i := range rng.Perm(len(hops))[:rng.Intn(len(hops)+1)] {
			ds.Queue = append(ds.Queue, hops[i])
		}
	case sm.Unsliced:
		n.FW.Request, n.FW.NextSeq, n.FW.Pending = rng.Intn(2) == 0, uint64(rng.Intn(100)), nil
		for k := rng.Intn(3); k > 0; k-- {
			n.FW.Pending = append(n.FW.Pending, core.Outbound{Payload: "x", Dest: graph.ProcessID(rng.Intn(g.N()))})
		}
	}
}

// sameField reports whether field f of destination d agrees at a and b.
func sameField(a, b *core.Node, d graph.ProcessID, f sm.Footprint) bool {
	da, db := a.FW.Dests[d], b.FW.Dests[d]
	switch f {
	case routing.RouteField:
		return a.RT.Routes[d] == b.RT.Routes[d]
	case core.BufRField:
		return da.BufR == db.BufR
	case core.BufEField:
		return da.BufE == db.BufE
	case core.QueueField:
		return slices.Equal(da.Queue, db.Queue)
	}
	return a.FW.Request == b.FW.Request && a.FW.NextSeq == b.FW.NextSeq && slices.Equal(a.FW.Pending, b.FW.Pending)
}

// enabledSet returns, per processor, whether rule r's guard holds on cfg.
func enabledSet(g *graph.Graph, r sm.Rule, cfg []sm.State) []bool {
	on := make([]bool, g.N())
	for _, c := range sm.EnabledOf(g, []sm.Rule{r}, cfg) {
		on[c.Process] = true
	}
	return on
}

// TestFootprintsSound checks every rule's declared footprint against its
// guard and action, for the composed program and the literal-R5 one, on
// random corrupted configurations with pending sends: perturbing a field
// of the rule's slot outside its declared reads, at p or at a neighbour,
// never flips its guard at p, and no action changes a field outside its
// declared writes. Perturbing the declared reads must flip some guard
// for every field, so the perturbations are not idle.
func TestFootprintsSound(t *testing.T) {
	programs := []struct {
		name  string
		build func(*graph.Graph) sm.Program
	}{{"full", core.FullProgram}, {"literal-r5", core.LiteralR5Program}}
	for _, pr := range programs {
		for _, g := range []*graph.Graph{graph.Line(3), graph.Star(5), graph.Grid(3, 3)} {
			rules := pr.build(g).Rules()
			rng := rand.New(rand.NewSource(int64(g.N())))
			flips := map[sm.Footprint]int{}
			for trial := 0; trial < 12; trial++ {
				cfg := core.RandomConfig(g, rng, core.CorruptOptions{
					BufferFill: 0.5, PayloadAlphabet: []string{"m0", "m1"},
					CorruptRouting: trial%3 != 0, CorruptQueues: true, PhantomRequests: true,
				})
				for p := range cfg {
					if rng.Intn(2) == 0 {
						cfg[p].(*core.Node).FW.Enqueue("s", graph.ProcessID(rng.Intn(g.N())))
					}
				}
				for i, r := range rules {
					d := graph.ProcessID(r.Slot - 1)
					want := enabledSet(g, r, cfg)
					for qq := 0; qq < g.N(); qq++ {
						q := graph.ProcessID(qq)
						for _, f := range footprintFields {
							for try := 0; try < 3; try++ {
								pert := slices.Clone(cfg)
								n := cfg[q].Clone().(*core.Node)
								perturb(g, cfg, n, q, d, f, rng)
								pert[q] = n
								got := enabledSet(g, r, pert)
								for _, p := range append(slices.Clone(g.Neighbors(q)), q) {
									if got[p] == want[p] {
										continue
									}
									reads := r.ReadsNbrs
									if p == q {
										reads = r.Reads
									}
									if reads&f == 0 {
										t.Fatalf("%s %v: %s at %d flipped when field %#x of %d, outside its reads, changed", pr.name, g, r.Name, p, f, q)
									}
									flips[f]++
								}
							}
						}
					}
					for p, on := range want {
						if !on {
							continue
						}
						succ, _ := sm.ApplySelection(g, rules, cfg, sm.Selection{Process: graph.ProcessID(p), Rule: i}, 0)
						for _, f := range footprintFields {
							if r.Writes&f == 0 && !sameField(succ.(*core.Node), cfg[p].(*core.Node), d, f) {
								t.Fatalf("%s %v: %s at %d changed field %#x outside its writes", pr.name, g, r.Name, p, f)
							}
						}
					}
				}
			}
			for _, f := range footprintFields {
				if flips[f] == 0 {
					t.Errorf("%s %v: no perturbation of field %#x flipped a guard", pr.name, g, f)
				}
			}
		}
	}
}

// TestSelfCheckCatchesMisdeclaredFootprint plants a wrong footprint: R4
// reads p's route (nextHop_p(d)) but is declared without it, so an A
// move at p leaves R4's cached enabledness stale there. The engine's
// self-check, the naive oracle, must panic on a corrupted-routing run.
func TestSelfCheckCatchesMisdeclaredFootprint(t *testing.T) {
	g, cfg := corruptGrid(1)
	rules := slices.Clone(core.FullProgram(g).Rules())
	for i := range rules {
		if strings.HasPrefix(rules[i].Name, "R4@") {
			rules[i].Reads &^= routing.RouteField
		}
	}
	e := sm.NewEngine(g, sm.NewProgram(rules...), daemon.NewSynchronous(1), cfg, sm.WithSelfCheck(true))
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "divergence") || !strings.Contains(msg, "R4@") {
			t.Fatalf("want a self-check divergence naming R4, got %q after %d steps", msg, e.Steps())
		}
	}()
	e.Run(5000, nil)
}

// TestProgramNamesAndAllocs pins the names of the composed program's
// rules, A@d then R1@d..R6@d, and what building it allocates on
// grid-8x8: the names share one backing string, the rest is a rule
// slice and the rules' closures.
func TestProgramNamesAndAllocs(t *testing.T) {
	g := graph.Grid(8, 8)
	rules := core.FullProgram(g).Rules()
	for d := 0; d < g.N(); d++ {
		if got, want := rules[d].Name, fmt.Sprintf("A@%d", d); got != want {
			t.Fatalf("rule %d is %q, want %q", d, got, want)
		}
		for k := 0; k < 6; k++ {
			base := fmt.Sprintf("R%d", k+1)
			if got, want := rules[g.N()+6*d+k].Name, core.RuleName(base, graph.ProcessID(d)); got != want {
				t.Fatalf("rule %d is %q, want %q", g.N()+6*d+k, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { core.FullProgram(g) }); allocs > 1117 {
		t.Fatalf("FullProgram(grid-8x8) allocates %.0f times, want at most 1117", allocs)
	}
}
