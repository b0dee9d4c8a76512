package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// routeOnlyState wraps a NodeState as a statemodel.State for tests that run
// the routing algorithm alone.
type routeOnlyState struct{ rt *NodeState }

func (s *routeOnlyState) Clone() sm.State { return &routeOnlyState{rt: s.rt.Clone()} }

func access(s sm.State) *NodeState { return s.(*routeOnlyState).rt }

func correctConfig(g *graph.Graph) []sm.State {
	cfg := make([]sm.State, g.N())
	for p := 0; p < g.N(); p++ {
		cfg[p] = &routeOnlyState{rt: CorrectState(g, graph.ProcessID(p))}
	}
	return cfg
}

func randomConfig(g *graph.Graph, rng *rand.Rand) []sm.State {
	cfg := make([]sm.State, g.N())
	for p := 0; p < g.N(); p++ {
		cfg[p] = &routeOnlyState{rt: RandomState(g, graph.ProcessID(p), rng)}
	}
	return cfg
}

func tables(e *sm.Engine) []*NodeState {
	ts := make([]*NodeState, e.Graph().N())
	for p := 0; p < e.Graph().N(); p++ {
		ts[p] = access(e.StateOf(graph.ProcessID(p)))
	}
	return ts
}

func TestCorrectStateIsSilent(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"line":  graph.Line(6),
		"ring":  graph.Ring(7),
		"star":  graph.Star(5),
		"grid":  graph.Grid(3, 3),
		"fig1":  graph.Figure1Network(),
		"tree":  graph.BinaryTree(7),
		"k5":    graph.Complete(5),
		"hcube": graph.Hypercube(3),
	} {
		e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(1), correctConfig(g))
		if !e.Terminal() {
			for p := 0; p < g.N(); p++ {
				if names := e.EnabledRuleNames(graph.ProcessID(p)); len(names) > 0 {
					t.Errorf("%s: processor %d enabled: %v", name, p, names)
				}
			}
			t.Fatalf("%s: canonical tables are not a silent fixpoint", name)
		}
	}
}

func TestStabilizesFromRandomConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomConnected(3+rng.Intn(10), 30, rng)
		e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(rng.Int63()), randomConfig(g, rng))
		_, terminal := e.Run(100_000, nil)
		if !terminal {
			t.Fatalf("trial %d: routing did not stabilize on %v", trial, g)
		}
		for p := 0; p < g.N(); p++ {
			if !Correct(g, graph.ProcessID(p), access(e.StateOf(graph.ProcessID(p)))) {
				t.Fatalf("trial %d: processor %d table incorrect after silence", trial, p)
			}
		}
	}
}

func TestStabilizesUnderAdversarialFairDaemon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Grid(3, 4)
	d := daemon.NewWeaklyFair(daemon.NewCentralLIFO(), 3*g.N())
	e := sm.NewEngine(g, NewProgram(g, access), d, randomConfig(g, rng))
	_, terminal := e.Run(2_000_000, nil)
	if !terminal {
		t.Fatal("routing did not stabilize under weakly fair LIFO daemon")
	}
	for p := 0; p < g.N(); p++ {
		if !Correct(g, graph.ProcessID(p), access(e.StateOf(graph.ProcessID(p)))) {
			t.Fatalf("processor %d incorrect", p)
		}
	}
}

func TestStabilizationRoundsModest(t *testing.T) {
	// Under the synchronous daemon, BFS routing should stabilize within
	// O(n) rounds; assert a generous 2n+2 bound to catch regressions.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(4+rng.Intn(12), 40, rng)
		e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(1), randomConfig(g, rng))
		_, terminal := e.Run(1_000_000, nil)
		if !terminal {
			t.Fatal("did not stabilize")
		}
		if e.Rounds() > 2*g.N()+2 {
			t.Errorf("trial %d: stabilization took %d rounds on %v (n=%d)", trial, e.Rounds(), g, g.N())
		}
	}
}

func TestNextHopAfterStabilizationIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(10, 20, rng)
	e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(2), randomConfig(g, rng))
	e.Run(1_000_000, nil)
	for p := 0; p < g.N(); p++ {
		st := access(e.StateOf(graph.ProcessID(p)))
		for d := 0; d < g.N(); d++ {
			if p == d {
				continue
			}
			hop := st.NextHop(graph.ProcessID(d))
			if g.Dist(hop, graph.ProcessID(d)) != g.Dist(graph.ProcessID(p), graph.ProcessID(d))-1 {
				t.Fatalf("nextHop_%d(%d)=%d is not on a minimal path", p, d, hop)
			}
		}
	}
}

func TestLoopFree(t *testing.T) {
	g := graph.Ring(5)
	ts := make([]*NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = CorrectState(g, graph.ProcessID(p))
	}
	for d := 0; d < g.N(); d++ {
		if !LoopFree(g, graph.ProcessID(d), ts) {
			t.Fatalf("canonical tables should be loop-free for destination %d", d)
		}
	}
	CycleCorrupt(g, 0, 2, 3, ts)
	if LoopFree(g, 0, ts) {
		t.Fatal("CycleCorrupt should introduce a routing loop")
	}
	if LoopFree(g, 0, ts) != false || !LoopFree(g, 1, ts) {
		t.Fatal("corruption for destination 0 must not affect destination 1")
	}
}

func TestCycleCorruptRequiresEdge(t *testing.T) {
	g := graph.Line(4)
	ts := make([]*NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = CorrectState(g, graph.ProcessID(p))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-edge")
		}
	}()
	CycleCorrupt(g, 0, 0, 3, ts)
}

func TestCycleCorruptRecovers(t *testing.T) {
	// Inject a routing loop, run A, verify the loop is repaired.
	g := graph.Grid(3, 3)
	cfg := correctConfig(g)
	ts := make([]*NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = access(cfg[p])
	}
	CycleCorrupt(g, 8, 0, 1, ts)
	if LoopFree(g, 8, ts) {
		t.Fatal("setup: expected a loop")
	}
	e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(3), cfg)
	_, terminal := e.Run(100_000, nil)
	if !terminal {
		t.Fatal("did not restabilize")
	}
	if !LoopFree(g, 8, tables(e)) {
		t.Fatal("loop not repaired")
	}
}

func TestRandomStateWellTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Figure1Network()
	for trial := 0; trial < 50; trial++ {
		for p := 0; p < g.N(); p++ {
			s := RandomState(g, graph.ProcessID(p), rng)
			for d := 0; d < g.N(); d++ {
				if s.Dist[d] < 0 || s.Dist[d] > g.N() {
					t.Fatalf("Dist out of range: %d", s.Dist[d])
				}
				if !g.IsNeighborOrSelf(graph.ProcessID(p), s.Parent[d]) {
					t.Fatalf("Parent %d not in N_%d ∪ {%d}", s.Parent[d], p, p)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := graph.Line(3)
	s := CorrectState(g, 0)
	c := s.Clone()
	c.Dist[1] = 99
	c.Parent[1] = 0
	if s.Dist[1] == 99 || s.Parent[1] == 0 && s.Dist[1] == 99 {
		t.Fatal("Clone shares backing arrays")
	}
}

// Property: from any random configuration on any random graph, A
// stabilizes to the canonical tables and is then silent.
func TestQuickStabilization(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%8
		g := graph.RandomConnected(n, int(mRaw), rng)
		e := sm.NewEngine(g, NewProgram(g, access), daemon.NewSynchronous(seed), randomConfig(g, rng))
		_, terminal := e.Run(200_000, nil)
		if !terminal {
			return false
		}
		for p := 0; p < g.N(); p++ {
			if !Correct(g, graph.ProcessID(p), access(e.StateOf(graph.ProcessID(p)))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowProgramStabilizesToSameFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(4+rng.Intn(8), 20, rng)
		e := sm.NewEngine(g, NewSlowProgram(g, access), daemon.NewSynchronous(rng.Int63()), randomConfig(g, rng))
		_, terminal := e.Run(2_000_000, nil)
		if !terminal {
			t.Fatal("slow variant did not stabilize")
		}
		for p := 0; p < g.N(); p++ {
			if !Correct(g, graph.ProcessID(p), access(e.StateOf(graph.ProcessID(p)))) {
				t.Fatalf("slow variant fixpoint differs at %d", p)
			}
		}
	}
}

func TestSlowProgramIsSlower(t *testing.T) {
	// Same topology, same corrupted start: the slow variant must need
	// more rounds than the fast one (that is its purpose).
	g := graph.Grid(3, 3)
	mk := func(prog sm.Program) int {
		rng := rand.New(rand.NewSource(77))
		e := sm.NewEngine(g, prog, daemon.NewSynchronous(1), randomConfig(g, rng))
		if _, terminal := e.Run(2_000_000, nil); !terminal {
			t.Fatal("did not stabilize")
		}
		return e.Rounds()
	}
	fast := mk(NewProgram(g, access))
	slow := mk(NewSlowProgram(g, access))
	if slow <= fast {
		t.Fatalf("slow variant rounds = %d, fast = %d; expected slower", slow, fast)
	}
}
