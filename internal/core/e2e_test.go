package core_test

import (
	"fmt"
	"math/rand"
	"ssmfp/internal/routing"
	"testing"
	"testing/quick"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// inject enqueues a send request at src before (or during) a run.
func inject(cfg []sm.State, src graph.ProcessID, payload string, dest graph.ProcessID) {
	cfg[src].(*core.Node).FW.Enqueue(payload, dest)
}

// runToTerminal drives the engine to a terminal configuration, failing the
// test if the step cap is hit.
func runToTerminal(t *testing.T, e *sm.Engine, maxSteps int) {
	t.Helper()
	_, terminal := e.Run(maxSteps, nil)
	if !terminal {
		t.Fatalf("execution did not terminate within %d steps", maxSteps)
	}
}

// newTracked builds the composed engine plus an attached tracker.
func newTracked(g *graph.Graph, d sm.Daemon, cfg []sm.State) (*sm.Engine, *checker.Tracker) {
	e := sm.NewEngine(g, core.FullProgram(g), d, cfg)
	tr := checker.New(g)
	tr.Attach(e)
	return e, tr
}

func assertSP(t *testing.T, tr *checker.Tracker, wantGenerated int) {
	t.Helper()
	if v := tr.Violations(); len(v) > 0 {
		t.Fatalf("specification violations: %v", v)
	}
	if tr.GeneratedCount() != wantGenerated {
		t.Fatalf("generated %d messages, want %d", tr.GeneratedCount(), wantGenerated)
	}
	if !tr.AllValidDelivered() {
		t.Fatalf("undelivered valid messages: %v", tr.UndeliveredValid())
	}
}

func TestSingleMessageCleanNetwork(t *testing.T) {
	g := graph.Line(5)
	cfg := core.CleanConfig(g)
	inject(cfg, 0, "hello", 4)
	e, tr := newTracked(g, daemon.NewSynchronous(1), cfg)
	runToTerminal(t, e, 10_000)
	assertSP(t, tr, 1)
	if tr.InvalidDeliveredTotal() != 0 {
		t.Fatal("clean run must deliver no invalid messages")
	}
}

func TestSelfSendDelivers(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	inject(cfg, 1, "to-myself", 1)
	e, tr := newTracked(g, daemon.NewSynchronous(1), cfg)
	runToTerminal(t, e, 10_000)
	assertSP(t, tr, 1)
}

func TestIdenticalPayloadsBackToBack(t *testing.T) {
	// Two messages with the same useful information from the same source to
	// the same destination: the color flag must keep them apart and both
	// must be delivered exactly once (the proof's central subtlety).
	g := graph.Line(4)
	cfg := core.CleanConfig(g)
	inject(cfg, 0, "same", 3)
	inject(cfg, 0, "same", 3)
	inject(cfg, 0, "same", 3)
	e, tr := newTracked(g, daemon.NewSynchronous(7), cfg)
	runToTerminal(t, e, 50_000)
	assertSP(t, tr, 3)
	if len(tr.Deliveries()) != 3 {
		t.Fatalf("deliveries = %d, want exactly 3", len(tr.Deliveries()))
	}
}

func TestManyToOneFairNoStarvation(t *testing.T) {
	g := graph.Star(6) // leaves 1..5 all send to the center
	cfg := core.CleanConfig(g)
	for leaf := graph.ProcessID(1); leaf < 6; leaf++ {
		for k := 0; k < 3; k++ {
			inject(cfg, leaf, fmt.Sprintf("m-%d-%d", leaf, k), 0)
		}
	}
	e, tr := newTracked(g, daemon.NewWeaklyFair(daemon.NewCentralLIFO(), 50), cfg)
	runToTerminal(t, e, 500_000)
	assertSP(t, tr, 15)
}

func TestCorruptedRoutingStillDeliversExactlyOnce(t *testing.T) {
	// Inject a routing loop on the message's path; the message must still
	// be delivered exactly once after A repairs the tables.
	g := graph.Line(5)
	cfg := core.CleanConfig(g)
	tables := make([]*core.Node, g.N())
	for p := range tables {
		tables[p] = cfg[p].(*core.Node)
	}
	// For destination 4, make 1 and 2 route at each other (loop).
	tables[1].RT.Routes.At(4).Parent = 2
	*tables[2].RT.Routes.At(4) = routing.Route{Dist: 3, Parent: 1}
	inject(cfg, 0, "through-the-loop", 4)
	e, tr := newTracked(g, daemon.NewCentralRandom(3), cfg)
	runToTerminal(t, e, 500_000)
	assertSP(t, tr, 1)
}

func TestFullyCorruptConfigurationSnapStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(4+rng.Intn(5), 12, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		var want int
		for k := 0; k < 5; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			inject(cfg, src, fmt.Sprintf("v%d", k), dst)
			want++
		}
		e, tr := newTracked(g, daemon.NewSynchronous(rng.Int63()), cfg)
		runToTerminal(t, e, 2_000_000)
		assertSP(t, tr, want)
		if !core.Quiescent(snapshot(e)) {
			t.Fatal("terminal configuration must be quiescent")
		}
	}
}

func snapshot(e *sm.Engine) []sm.State {
	cfg := make([]sm.State, e.Graph().N())
	for p := 0; p < e.Graph().N(); p++ {
		cfg[p] = e.StateOf(graph.ProcessID(p))
	}
	return cfg
}

func TestNoLossInvariantHoldsEveryStep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := graph.Figure1Network()
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	inject(cfg, 3, "precious-1", 2)
	inject(cfg, 4, "precious-2", 0)
	inject(cfg, 0, "precious-3", 4)
	e, tr := newTracked(g, daemon.NewCentralRandom(5), cfg)
	for i := 0; i < 1_000_000; i++ {
		if !e.Step() {
			break
		}
		if err := tr.CheckNoLoss(snapshot(e)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !e.Terminal() {
		t.Fatal("did not terminate")
	}
	assertSP(t, tr, 3)
}

func TestInvalidDeliveriesWithinProp4Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(4+rng.Intn(4), 10, rng)
		cfg := core.RandomConfig(g, rng, core.CorruptOptions{
			BufferFill:     1, // every buffer stuffed with an invalid message
			CorruptRouting: true,
			CorruptQueues:  true,
		})
		e, tr := newTracked(g, daemon.NewSynchronous(rng.Int63()), cfg)
		runToTerminal(t, e, 2_000_000)
		for d, c := range tr.InvalidDeliveredPerDest() {
			if c > 2*g.N() {
				t.Fatalf("trial %d: destination %d got %d invalid deliveries > 2n=%d", trial, d, c, 2*g.N())
			}
		}
		if len(tr.Violations()) > 0 {
			t.Fatalf("trial %d: %v", trial, tr.Violations())
		}
	}
}

func TestMidRunInjectionUnderLoad(t *testing.T) {
	// Keep injecting messages while the system is still digesting invalid
	// traffic and repairing tables; everything must still be exactly-once.
	rng := rand.New(rand.NewSource(31))
	g := graph.Grid(3, 3)
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	e, tr := newTracked(g, daemon.NewDistributedRandom(9, 0.5), cfg)

	injected := 0
	for i := 0; i < 2_000_000; i++ {
		if i%50 == 0 && injected < 20 {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("live-%d", injected), dst)
			injected++
		}
		if !e.Step() {
			break
		}
	}
	if !e.Terminal() {
		t.Fatal("did not terminate")
	}
	assertSP(t, tr, injected)
}

func TestCaterpillarCensusConsistentDuringRun(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := graph.Figure1Network()
	cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
	inject(cfg, 0, "x", 4)
	e, _ := newTracked(g, daemon.NewCentralRandom(8), cfg)
	for i := 0; i < 500_000; i++ {
		for d := graph.ProcessID(0); int(d) < g.N(); d++ {
			census := core.CaterpillarCensus(g, snapshot(e), d)
			total, _ := core.Occupancy(snapshot(e), d)
			heads := census[core.Type1] + census[core.Type2] + census[core.Type3]
			if heads > total {
				t.Fatalf("more caterpillar heads (%d) than occupied buffers (%d) for dest %d", heads, total, d)
			}
			if total > 0 && heads == 0 {
				t.Fatalf("occupied buffers but no caterpillar head for dest %d", d)
			}
		}
		if !e.Step() {
			break
		}
	}
}

func TestDeterministicReplaySameSeed(t *testing.T) {
	run := func() (int, int, int) {
		rng := rand.New(rand.NewSource(99))
		g := graph.Ring(6)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		inject(cfg, 0, "a", 3)
		inject(cfg, 2, "b", 5)
		e, tr := newTracked(g, daemon.NewCentralRandom(4), cfg)
		e.Run(2_000_000, nil)
		return e.Steps(), e.Rounds(), len(tr.Deliveries())
	}
	s1, r1, d1 := run()
	s2, r2, d2 := run()
	if s1 != s2 || r1 != r2 || d1 != d2 {
		t.Fatalf("non-deterministic run: (%d,%d,%d) vs (%d,%d,%d)", s1, r1, d1, s2, r2, d2)
	}
}

// Property: for random small graphs, random corruption, random daemon mix
// and a random batch of sends, SSMFP satisfies SP and terminates.
func TestQuickSnapStabilization(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, nRaw, kRaw, daemonRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%5
		g := graph.RandomConnected(n, n+int(kRaw)%6, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		want := 1 + int(kRaw)%4
		for k := 0; k < want; k++ {
			inject(cfg, graph.ProcessID(rng.Intn(n)), fmt.Sprintf("q%d", k), graph.ProcessID(rng.Intn(n)))
		}
		var d sm.Daemon
		switch daemonRaw % 4 {
		case 0:
			d = daemon.NewSynchronous(seed)
		case 1:
			d = daemon.NewCentralRandom(seed)
		case 2:
			d = daemon.NewDistributedRandom(seed, 0.4)
		default:
			d = daemon.NewWeaklyFair(daemon.NewCentralLIFO(), 8*n)
		}
		e, tr := newTracked(g, d, cfg)
		_, terminal := e.Run(4_000_000, nil)
		return terminal && len(tr.Violations()) == 0 && tr.AllValidDelivered() && tr.GeneratedCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestR5SelfHopDoesNotEraseFreshGeneration(t *testing.T) {
	// Regression for a reproduction finding: with R5 applied at q = p (as
	// Algorithm 1 literally reads), a freshly generated (m, p, 0) in
	// bufR_p is erased whenever the processor's own bufE_p holds an
	// invalid message with the same payload and color 0 — losing a valid
	// message. R5 must be restricted to neighbors (q ∈ N_p).
	g := graph.Ring(6)
	cfg := core.CleanConfig(g)
	cfg[3].(*core.Node).FW.Dest(0).BufE = &core.Message{
		Payload: "x", LastHop: 3, Color: 0, UID: 1 << 40, Src: 3, Dest: 0, Valid: false}
	inject(cfg, 3, "x", 0) // same payload; R1 will stamp color 0
	e, tr := newTracked(g, daemon.NewCentralRandom(2009), cfg)
	for i := 0; i < 1_000_000; i++ {
		if err := tr.CheckNoLoss(snapshot(e)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !e.Step() {
			break
		}
	}
	assertSP(t, tr, 1)
}

func TestCollidingPayloadsUnderFullCorruption(t *testing.T) {
	// All traffic shares payloads with the planted invalid messages (the
	// corruption alphabet) so every (m, q, c) comparison is under maximal
	// collision pressure.
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(4+rng.Intn(5), 12, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		alphabet := []string{"m0", "m1", "m2"} // DefaultCorrupt's payloads
		want := 0
		for k := 0; k < 6; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			inject(cfg, src, alphabet[rng.Intn(len(alphabet))], dst)
			want++
		}
		e, tr := newTracked(g, daemon.NewCentralRandom(rng.Int63()), cfg)
		for i := 0; i < 4_000_000; i++ {
			if i%64 == 0 {
				if err := tr.CheckNoLoss(snapshot(e)); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, i, err)
				}
			}
			if !e.Step() {
				break
			}
		}
		if !e.Terminal() {
			t.Fatalf("trial %d did not terminate", trial)
		}
		assertSP(t, tr, want)
	}
}

func TestWellTypednessPreservedEveryStep(t *testing.T) {
	// §3.2's domains are invariant: starting well-typed (but arbitrary),
	// no rule ever produces an out-of-domain value.
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomConnected(4+rng.Intn(4), 10, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		inject(cfg, 0, "wt", graph.ProcessID(g.N()-1))
		e, _ := newTracked(g, daemon.NewCentralRandom(rng.Int63()), cfg)
		for i := 0; i < 500_000; i++ {
			if err := checker.WellTyped(g, snapshot(e)); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			if !e.Step() {
				break
			}
		}
		if !e.Terminal() {
			t.Fatalf("trial %d did not terminate", trial)
		}
	}
}
