package checker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/spec"
	"ssmfp/internal/spec/spectest"
	sm "ssmfp/internal/statemodel"
)

func gen(t *Tracker, uid uint64, src, dest graph.ProcessID, step int) *core.Message {
	m := &core.Message{Payload: "p", UID: uid, Src: src, Dest: dest, Valid: true, GenStep: step}
	t.observe(sm.Event{Kind: obs.KindGenerate, Step: step, Proc: src, Dest: dest, Msg: m.Record()})
	return m
}

func deliver(t *Tracker, m *core.Message, at graph.ProcessID, step int) {
	t.observe(sm.Event{Kind: obs.KindDeliver, Step: step, Proc: at, Dest: at, Msg: m.Record()})
}

func newTestTracker() (*Tracker, *graph.Graph) {
	g := graph.Line(4)
	return New(g), g
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
	if len(v) != 1 || !strings.Contains(v[0], "addressed to 3") {
		t.Fatalf("violations = %v", v)
	}
}

func TestDoubleGenerationDetected(t *testing.T) {
	tr, _ := newTestTracker()
	gen(tr, 1, 0, 3, 0)
	gen(tr, 1, 0, 3, 5)
	v := tr.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "sent twice") {
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
	if len(v) != 1 || !strings.Contains(v[0], fmt.Sprintf("bound is %d", 2*g.N())) {
		t.Fatalf("violations = %v, want Prop 4 breach", v)
	}
}

// TestPropFourBreachesListedByDestination pins the order of Proposition 4
// breaches: with several destinations over the 2n bound, Violations lists
// them by ascending destination, identically on every call.
func TestPropFourBreachesListedByDestination(t *testing.T) {
	tr, g := newTestTracker()
	bound := 2 * g.N()
	for _, d := range []graph.ProcessID{3, 1, 0, 2} {
		inv := &core.Message{Payload: "junk", UID: 100 + uint64(d), Dest: d}
		for i := 0; i <= bound; i++ {
			deliver(tr, inv, d, i)
		}
	}
	var want []string
	for d := 0; d < g.N(); d++ {
		want = append(want, fmt.Sprintf("destination %d received %d invalid deliveries, bound is %d", d, bound+1, bound))
	}
	for run := 0; run < 20; run++ {
		if got := tr.Violations(); !slices.Equal(got, want) {
			t.Fatalf("run %d: violations = %q, want %q", run, got, want)
		}
	}
}

func TestCheckNoLoss(t *testing.T) {
	tr, g := newTestTracker()
	cfg := core.CleanConfig(g)
	m := gen(tr, 9, 0, 3, 0)
	if err := tr.CheckNoLoss(cfg); err == nil {
		t.Fatal("message is in no buffer and undelivered: must report loss")
	}
	cfg[1].(*core.Node).FW.Dest(3).BufR = m
	if err := tr.CheckNoLoss(cfg); err != nil {
		t.Fatalf("message present: %v", err)
	}
	cfg[1].(*core.Node).FW.Dest(3).BufR = nil
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

func TestEndToEndWithRealEngine(t *testing.T) {
	g := graph.Line(4)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("x", 3)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	tr := New(g)
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
		{"bad dist", func(cfg []sm.State) { cfg[0].(*core.Node).RT.Routes.At(2).Dist = 99 }},
		{"bad parent", func(cfg []sm.State) { cfg[0].(*core.Node).RT.Routes.At(2).Parent = 3 }},
		{"bad last hop", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dest(2).BufR = &core.Message{Payload: "m", LastHop: 3, Color: 0}
		}},
		{"bad color", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{Payload: "m", LastHop: 0, Color: 9}
		}},
		{"bad queue entry", func(cfg []sm.State) {
			cfg[0].(*core.Node).FW.Dest(2).Queue = []graph.ProcessID{3}
		}},
		{"overlong queue", func(cfg []sm.State) {
			cfg[1].(*core.Node).FW.Dest(2).Queue = []graph.ProcessID{0, 1, 2, 0}
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

// feedLifecycle plays a small hand-built execution into a tracker:
// two messages from source 2 to destination 0, one from source 1.
func feedLifecycle(t *Tracker) {
	msg := func(uid uint64, src graph.ProcessID) *obs.MsgRecord {
		return &obs.MsgRecord{Payload: "m", UID: uid, Src: src, Dest: 0, Valid: true}
	}
	evs := []sm.Event{
		// uid 1: generated at round 2, two hops, delivered at round 6.
		{Kind: obs.KindGenerate, Proc: 2, Dest: 0, Step: 1, Round: 2, Msg: msg(1, 2)},
		{Kind: obs.KindForward, Proc: 1, Dest: 0, From: 2, Step: 3, Round: 4, Msg: msg(1, 2)},
		{Kind: obs.KindForward, Proc: 0, Dest: 0, From: 1, Step: 4, Round: 5, Msg: msg(1, 2)},
		{Kind: obs.KindDeliver, Proc: 0, Dest: 0, Step: 5, Round: 6, Msg: msg(1, 2)},
		// uid 2: generated by the same source at round 5, delivered at 9.
		{Kind: obs.KindGenerate, Proc: 2, Dest: 0, Step: 6, Round: 5, Msg: msg(2, 2)},
		{Kind: obs.KindDeliver, Proc: 0, Dest: 0, Step: 9, Round: 9, Msg: msg(2, 2)},
		// uid 3: another source, generated at round 4, never delivered.
		{Kind: obs.KindGenerate, Proc: 1, Dest: 0, Step: 7, Round: 4, Msg: msg(3, 1)},
		// forward of an unknown UID (initial garbage): ignored.
		{Kind: obs.KindForward, Proc: 1, Dest: 0, From: 0, Step: 8, Round: 8, Msg: msg(99, 0)},
	}
	for _, ev := range evs {
		t.observe(ev)
	}
}

func TestTrackerTimelines(t *testing.T) {
	tr, _ := newTestTracker()
	feedLifecycle(tr)
	tls := tr.Report().Timelines
	if len(tls) != 3 {
		t.Fatalf("got %d timelines, want 3", len(tls))
	}
	m1 := tls[0]
	if m1.UID != 1 || m1.Src != 2 || m1.Dest != 0 || m1.GenRound != 2 {
		t.Fatalf("uid 1 timeline wrong: %+v", m1)
	}
	if len(m1.Hops) != 2 || m1.Hops[0].From != 2 || m1.Hops[0].To != 1 || m1.Hops[1].To != 0 {
		t.Fatalf("uid 1 hops wrong: %+v", m1.Hops)
	}
	if !m1.Delivered || m1.DeliverRound != 6 || m1.Deliveries != 1 {
		t.Fatalf("uid 1 delivery wrong: %+v", m1)
	}
	if tls[2].Delivered {
		t.Fatal("uid 3 reported delivered")
	}
	if tr.GeneratedCount() != 3 || tr.DeliveredValid() != 2 {
		t.Fatalf("counters = %d gen / %d dlv, want 3 / 2", tr.GeneratedCount(), tr.DeliveredValid())
	}
}

func TestTrackerReport(t *testing.T) {
	tr, _ := newTestTracker()
	feedLifecycle(tr)
	r := tr.Report()
	if r.Messages != 3 || r.Delivered != 2 {
		t.Fatalf("report counts = %d/%d, want 3/2", r.Messages, r.Delivered)
	}
	// Delivery times: uid1 6-2=4, uid2 9-5=4.
	if r.DeliveryRounds.N != 2 || r.DeliveryRounds.Mean != 4 {
		t.Fatalf("delivery summary = %+v, want N=2 mean=4", r.DeliveryRounds)
	}
	// Delays: source 1 first gen at round 4, source 2 at round 2.
	if r.DelayRounds.N != 2 || r.DelayRounds.Min != 2 || r.DelayRounds.Max != 4 {
		t.Fatalf("delay summary = %+v, want N=2 min=2 max=4", r.DelayRounds)
	}
	// Waiting: source 2's consecutive generations, 5-2=3.
	if r.WaitingRounds.N != 1 || r.WaitingRounds.Mean != 3 {
		t.Fatalf("waiting summary = %+v, want N=1 mean=3", r.WaitingRounds)
	}
	// Hop transits for uid 1: 4-2=2, 5-4=1.
	if r.HopRounds.N != 2 || r.HopRounds.Min != 1 || r.HopRounds.Max != 2 {
		t.Fatalf("hop summary = %+v, want N=2 min=1 max=2", r.HopRounds)
	}
	// Last delivery at round 9, 2 deliveries.
	if r.AmortizedRoundsPerDelivery != 4.5 {
		t.Fatalf("amortized = %v, want 4.5", r.AmortizedRoundsPerDelivery)
	}
}

// TestTrackerCases replays the shared judge table as engine events: a
// send is an R1 generation, a delivery an R6 consumption, a void a
// compromised UID. The tracker's bound is Proposition 4's 2n, so cases
// judged under another bound with invalid deliveries in them are not
// its to run.
func TestTrackerCases(t *testing.T) {
	for _, c := range spectest.Cases {
		t.Run(c.Name, func(t *testing.T) {
			invalid := slices.ContainsFunc(c.Delivered, func(d spec.Delivered) bool { return !d.Valid })
			if invalid && c.Bound != 2*spectest.N {
				t.Skipf("bound %d is not the tracker's 2n", c.Bound)
			}
			tr := New(graph.Line(spectest.N))
			for _, s := range c.Sent {
				gen(tr, s.UID, 0, s.Dst, 0)
			}
			for _, d := range c.Delivered {
				deliver(tr, &core.Message{Payload: "p", UID: d.UID, Dest: d.At, Valid: d.Valid}, d.At, 1)
			}
			tr.MarkCompromised(uidsOf(c.Void)...)
			if got := tr.ledger.Verdict().Lines; !slices.Equal(got, c.Want) {
				t.Fatalf("lines %q, want %q", got, c.Want)
			}
			if tr.AllValidDelivered() != (len(tr.UndeliveredValid()) == 0) {
				t.Fatal("AllValidDelivered disagrees with UndeliveredValid")
			}
		})
	}
}

func uidsOf(keys []spec.Key) []uint64 {
	var out []uint64
	for _, k := range keys {
		out = append(out, k.UID)
	}
	return out
}
