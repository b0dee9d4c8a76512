package checker

import (
	"math/rand"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// fakeEngine satisfies the tracker's needs in unit tests: we only need an
// event source and a round counter, so we use a real engine with a trivial
// program and feed events through its Subscribe machinery indirectly by
// calling the tracker's handler via a real run where possible. For pure
// unit tests we call onEvent through a minimal engine.
func newEngineForEvents(g *graph.Graph) *sm.Engine {
	prog := sm.NewProgram(sm.Rule{
		Name:   "noop",
		Guard:  func(v *sm.View) bool { return false },
		Action: func(v *sm.View) {},
	})
	return sm.NewEngine(g, prog, daemon.NewSynchronous(1), core.CleanConfig(g))
}

func gen(t *Tracker, uid uint64, src, dest graph.ProcessID, step int) *core.Message {
	m := &core.Message{Payload: "p", UID: uid, Src: src, Dest: dest, Valid: true, GenStep: step}
	t.onEvent(sm.Event{Step: step, Process: src, Kind: core.KindGenerate,
		Payload: core.GenerateEvent{Msg: m}})
	return m
}

func deliver(t *Tracker, m *core.Message, at graph.ProcessID, step int) {
	t.onEvent(sm.Event{Step: step, Process: at, Kind: core.KindDeliver,
		Payload: core.DeliverEvent{Msg: m}})
}

func newTestTracker() (*Tracker, *graph.Graph) {
	g := graph.Line(4)
	tr := New(g)
	tr.Attach(newEngineForEvents(g))
	return tr, g
}

func TestExactlyOnceAccepted(t *testing.T) {
	tr, _ := newTestTracker()
	m := gen(tr, 1, 0, 3, 0)
	deliver(tr, m, 3, 10)
	if v := tr.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	if !tr.AllValidDelivered() || tr.DeliveredValid() != 1 || tr.GeneratedCount() != 1 {
		t.Fatal("accounting wrong")
	}
}

func TestDuplicateDeliveryDetected(t *testing.T) {
	tr, _ := newTestTracker()
	m := gen(tr, 1, 0, 3, 0)
	deliver(tr, m, 3, 10)
	deliver(tr, m, 3, 20)
	v := tr.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "duplication") {
		t.Fatalf("violations = %v, want one duplication", v)
	}
}

func TestWrongDestinationDetected(t *testing.T) {
	tr, _ := newTestTracker()
	m := gen(tr, 1, 0, 3, 0)
	deliver(tr, m, 2, 10) // wrong processor
	v := tr.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "destination") {
		t.Fatalf("violations = %v", v)
	}
}

func TestDoubleGenerationDetected(t *testing.T) {
	tr, _ := newTestTracker()
	gen(tr, 1, 0, 3, 0)
	gen(tr, 1, 0, 3, 5)
	v := tr.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "generated twice") {
		t.Fatalf("violations = %v", v)
	}
}

func TestUndeliveredListed(t *testing.T) {
	tr, _ := newTestTracker()
	gen(tr, 7, 0, 3, 0)
	gen(tr, 3, 1, 2, 1)
	if tr.AllValidDelivered() {
		t.Fatal("nothing delivered yet")
	}
	u := tr.UndeliveredValid()
	if len(u) != 2 || u[0] != 3 || u[1] != 7 {
		t.Fatalf("undelivered = %v, want sorted [3 7]", u)
	}
}

func TestInvalidDeliveryAccounting(t *testing.T) {
	tr, g := newTestTracker()
	inv := &core.Message{Payload: "junk", UID: 100, Dest: 2, Valid: false}
	for i := 0; i < 3; i++ {
		deliver(tr, inv, 2, i)
	}
	if tr.InvalidDeliveredTotal() != 3 {
		t.Fatalf("invalid total = %d", tr.InvalidDeliveredTotal())
	}
	if tr.InvalidDeliveredPerDest()[2] != 3 {
		t.Fatal("per-dest accounting wrong")
	}
	// Invalid duplicates are allowed (no violation) while within the 2n bound.
	if v := tr.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v, invalid repeats are allowed", v)
	}
	// Blow the Proposition 4 bound.
	for i := 0; i < 2*g.N(); i++ {
		deliver(tr, inv, 2, 10+i)
	}
	v := tr.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "bound is 2n") {
		t.Fatalf("violations = %v, want Prop 4 breach", v)
	}
}

func TestCheckNoLoss(t *testing.T) {
	tr, g := newTestTracker()
	cfg := core.CleanConfig(g)
	m := gen(tr, 9, 0, 3, 0)
	if err := tr.CheckNoLoss(cfg); err == nil {
		t.Fatal("message is in no buffer and undelivered: must report loss")
	}
	cfg[1].(*core.Node).FW.Dests[3].BufR = m
	if err := tr.CheckNoLoss(cfg); err != nil {
		t.Fatalf("message present: %v", err)
	}
	cfg[1].(*core.Node).FW.Dests[3].BufR = nil
	deliver(tr, m, 3, 4)
	if err := tr.CheckNoLoss(cfg); err != nil {
		t.Fatalf("message delivered: %v", err)
	}
}

func TestLatencyMaps(t *testing.T) {
	tr, _ := newTestTracker()
	m := gen(tr, 1, 0, 3, 10)
	deliver(tr, m, 3, 25)
	deliver(tr, m, 3, 30) // duplicate: latency counts the first delivery
	lat := tr.LatencySteps()
	if lat[1] != 15 {
		t.Fatalf("latency = %d, want 15", lat[1])
	}
	if rounds := tr.LatencyRounds(); rounds[1] != 0 {
		t.Fatalf("round latency = %d, want 0 (no rounds elapsed)", rounds[1])
	}
}

func TestGenerationRoundsOrdered(t *testing.T) {
	tr, _ := newTestTracker()
	gen(tr, 5, 0, 3, 30)
	gen(tr, 6, 0, 2, 10)
	rounds := tr.GenerationRounds()
	if len(rounds) != 2 {
		t.Fatalf("len = %d", len(rounds))
	}
}

func TestRecordInitial(t *testing.T) {
	g := graph.Line(3)
	tr := New(g)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Dests[1].BufE = &core.Message{Payload: "junk", UID: 500, Valid: false}
	tr.RecordInitial(cfg)
	if tr.initial != 1 {
		t.Fatalf("initial invalid count = %d", tr.initial)
	}
}

func TestEndToEndWithRealEngine(t *testing.T) {
	g := graph.Line(4)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("x", 3)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	tr := New(g)
	tr.RecordInitial(cfg)
	tr.Attach(e)
	if _, terminal := e.Run(10_000, nil); !terminal {
		t.Fatal("did not terminate")
	}
	if !tr.AllValidDelivered() || len(tr.Violations()) != 0 {
		t.Fatalf("SP violated: %v", tr.Violations())
	}
	if len(tr.Deliveries()) != 1 || tr.Deliveries()[0].At != 3 {
		t.Fatalf("deliveries = %+v", tr.Deliveries())
	}
}

func TestMarkCompromisedExemptsAccounting(t *testing.T) {
	tr, _ := newTestTracker()
	m := gen(tr, 11, 0, 3, 0)
	deliver(tr, m, 3, 5)
	deliver(tr, m, 3, 9)   // duplication...
	tr.MarkCompromised(11) // ...but a fault touched the message
	if v := tr.Violations(); len(v) != 0 {
		t.Fatalf("compromised violations must be filtered: %v", v)
	}
	if tr.Compromised() != 1 {
		t.Fatalf("Compromised() = %d", tr.Compromised())
	}
	// A compromised undelivered message is not "lost".
	gen(tr, 12, 1, 2, 10)
	tr.MarkCompromised(12)
	if !tr.AllValidDelivered() {
		t.Fatal("compromised messages are exempt from delivery accounting")
	}
	if len(tr.UndeliveredValid()) != 0 {
		t.Fatal("compromised messages must not be listed undelivered")
	}
	if err := tr.CheckNoLoss(nil); err != nil {
		t.Fatalf("CheckNoLoss must skip compromised: %v", err)
	}
}

func TestGenerationRoundsBySource(t *testing.T) {
	tr, _ := newTestTracker()
	gen(tr, 21, 0, 3, 5)
	gen(tr, 22, 0, 2, 1)
	gen(tr, 23, 1, 3, 3)
	by := tr.GenerationRoundsBySource()
	if len(by[0]) != 2 || len(by[1]) != 1 {
		t.Fatalf("per-source counts wrong: %v", by)
	}
}

func TestWellTypedAcceptsCleanAndRandom(t *testing.T) {
	g := graph.Figure1Network()
	if err := WellTyped(g, core.CleanConfig(g)); err != nil {
		t.Fatalf("clean config must be well-typed: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		if err := WellTyped(g, core.RandomConfig(g, rng, core.DefaultCorrupt)); err != nil {
			t.Fatalf("RandomConfig must stay in the domains: %v", err)
		}
	}
}

func TestWellTypedDetectsViolations(t *testing.T) {
	g := graph.Line(4)
	cases := []struct {
		name   string
		break_ func(cfg []sm.State)
	}{
		{"bad dist", func(cfg []sm.State) { cfg[0].(*core.Node).RT.Dist[2] = 99 }},
		{"bad parent", func(cfg []sm.State) { cfg[0].(*core.Node).RT.Parent[2] = 3 }},
		{"bad last hop", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dests[2].BufR = &core.Message{Payload: "m", LastHop: 3, Color: 0}
		}},
		{"bad color", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dests[2].BufE = &core.Message{Payload: "m", LastHop: 0, Color: 9}
		}},
		{"bad queue entry", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dests[2].Queue = []graph.ProcessID{3}
		}},
		{"overlong queue", func(cfg []sm.State) {
			cfg[1].(*core.Node).FW.Dests[2].Queue = []graph.ProcessID{0, 1, 2, 0}
		}},
	}
	for _, c := range cases {
		cfg := core.CleanConfig(g)
		c.break_(cfg)
		if err := WellTyped(g, cfg); err == nil {
			t.Errorf("%s: violation not detected", c.name)
		}
	}
}
