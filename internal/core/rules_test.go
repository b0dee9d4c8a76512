package core

import (
	"slices"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// syncDaemon activates every enabled processor with its first offered rule;
// a local copy so white-box micro-tests stay self-contained.
type syncDaemon struct{}

func (syncDaemon) Name() string { return "test-sync" }
func (syncDaemon) Select(step int, enabled []sm.Choice) []sm.Selection {
	out := make([]sm.Selection, len(enabled))
	for i, c := range enabled {
		out[i] = sm.Selection{Process: c.Process, Rule: c.Rules[0]}
	}
	return out
}

func node(cfg []sm.State, p graph.ProcessID) *Node { return cfg[p].(*Node) }

func engineNode(e *sm.Engine, p graph.ProcessID) *Node { return e.StateOf(p).(*Node) }

// newLineEngine builds a 3-processor line with correct tables, the full
// composed program, and the synchronous daemon.
func newLineEngine(t *testing.T) (*graph.Graph, []sm.State, *sm.Engine) {
	t.Helper()
	g := graph.Line(3)
	cfg := CleanConfig(g)
	e := sm.NewEngine(g, FullProgram(g), syncDaemon{}, cfg)
	return g, cfg, e
}

func TestR1GeneratesMessage(t *testing.T) {
	g, cfg, e := newLineEngine(t)
	_ = g
	node(cfg, 0).FW.Enqueue("hello", 2)

	if names := e.EnabledRuleNames(0); len(names) != 1 || names[0] != "R1@2" {
		t.Fatalf("enabled at 0: %v, want [R1@2]", names)
	}
	var gen *Message
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == obs.KindGenerate {
			gen = (*Message)(ev.Msg)
		}
	})
	e.Step()

	fw0 := engineNode(e, 0).FW
	m := fw0.Dest(2).BufR
	if m == nil {
		t.Fatal("R1 did not fill bufR")
	}
	if m.Payload != "hello" || m.LastHop != 0 || m.Color != 0 {
		t.Fatalf("R1 produced %v, want (hello,q=0,c=0)", m)
	}
	if !m.Valid || m.Src != 0 || m.Dest != 2 {
		t.Fatalf("bookkeeping wrong: %+v", m)
	}
	if fw0.Request || len(fw0.Pending) != 0 {
		t.Fatal("R1 must clear the request and pop pending")
	}
	if gen == nil || gen.UID != m.UID {
		t.Fatal("generate event missing or wrong")
	}
}

func TestR1BlockedByOccupiedBufR(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	node(cfg, 0).FW.Dest(2).BufR = &Message{Payload: "stale", LastHop: 0, Color: 1}
	node(cfg, 0).FW.Enqueue("hello", 2)
	for _, name := range e.EnabledRuleNames(0) {
		if name == "R1@2" {
			t.Fatal("R1 must be disabled while bufR is occupied")
		}
	}
}

func TestR1RearmsForNextPending(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	node(cfg, 0).FW.Enqueue("a", 2)
	node(cfg, 0).FW.Enqueue("b", 1)
	e.Step() // R1 accepts "a"
	fw0 := engineNode(e, 0).FW
	if !fw0.Request || len(fw0.Pending) != 1 {
		t.Fatal("request must re-arm while messages are pending")
	}
	if d, _ := fw0.NextDestination(); d != 1 {
		t.Fatal("next destination must advance")
	}
}

// walkOneMessage drives the canonical happy path on the line 0-1-2 for a
// message 0→2, asserting the buffer contents after every step.
func TestFullForwardingPath(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	node(cfg, 0).FW.Enqueue("hello", 2)

	var delivered []*Message
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == obs.KindDeliver {
			delivered = append(delivered, (*Message)(ev.Msg))
		}
	})

	// Step 1: R1 at 0.
	e.Step()
	if m := engineNode(e, 0).FW.Dest(2).BufR; m == nil || m.LastHop != 0 || m.Color != 0 {
		t.Fatalf("after R1: bufR_0(2) = %v", m)
	}

	// Step 2: R2 at 0 — internal move, fresh color (neighbors' bufR empty → 0).
	e.Step()
	n0 := engineNode(e, 0).FW.Dest(2)
	if n0.BufR != nil {
		t.Fatal("R2 must empty bufR")
	}
	if n0.BufE == nil || n0.BufE.LastHop != 0 || n0.BufE.Color != 0 {
		t.Fatalf("after R2: bufE_0(2) = %v", n0.BufE)
	}

	// Step 3: R3 at 1 pulls the message.
	e.Step()
	m1 := engineNode(e, 1).FW.Dest(2).BufR
	if m1 == nil || m1.LastHop != 0 || m1.Color != 0 || m1.Payload != "hello" {
		t.Fatalf("after R3: bufR_1(2) = %v", m1)
	}
	if engineNode(e, 0).FW.Dest(2).BufE == nil {
		t.Fatal("R3 copies; the origin emission buffer keeps the message until R4")
	}

	// Step 4: R4 at 0 erases the forwarded original. (R2 at 1 is blocked
	// until then because bufE_0 still matches (m, ·, c).)
	e.Step()
	if engineNode(e, 0).FW.Dest(2).BufE != nil {
		t.Fatal("R4 must erase bufE_0")
	}

	// Step 5: R2 at 1.
	e.Step()
	n1 := engineNode(e, 1).FW.Dest(2)
	if n1.BufR != nil || n1.BufE == nil || n1.BufE.LastHop != 1 {
		t.Fatalf("after R2 at 1: bufR=%v bufE=%v", n1.BufR, n1.BufE)
	}

	// Steps 6-8: R3 at 2, R4 at 1, R2 at 2.
	e.Step()
	if m := engineNode(e, 2).FW.Dest(2).BufR; m == nil || m.LastHop != 1 {
		t.Fatalf("after R3 at 2: %v", m)
	}
	e.Step()
	if engineNode(e, 1).FW.Dest(2).BufE != nil {
		t.Fatal("R4 must erase bufE_1")
	}
	e.Step()
	if m := engineNode(e, 2).FW.Dest(2).BufE; m == nil || m.LastHop != 2 {
		t.Fatalf("after R2 at 2: %v", m)
	}

	// Step 9: R6 delivers at the destination.
	e.Step()
	if len(delivered) != 1 || delivered[0].Payload != "hello" {
		t.Fatalf("delivered = %v", delivered)
	}
	if !Quiescent(configOf(e)) {
		t.Fatal("system must be quiescent after delivery")
	}
	if !e.Terminal() {
		t.Fatal("no rule may remain enabled")
	}
}

func configOf(e *sm.Engine) []sm.State {
	cfg := make([]sm.State, e.Graph().N())
	for p := 0; p < e.Graph().N(); p++ {
		cfg[p] = e.StateOf(graph.ProcessID(p))
	}
	return cfg
}

func TestR2BlockedWhileOriginHoldsMessage(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	// bufR_1(2) holds (m,0,1) and bufE_0(2) still holds (m,·,1): R2 at 1
	// must wait (otherwise the same message could advance twice).
	node(cfg, 1).FW.Dest(2).BufR = &Message{Payload: "m", LastHop: 0, Color: 1}
	node(cfg, 0).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 0, Color: 1}
	for _, name := range e.EnabledRuleNames(1) {
		if name == "R2@2" {
			t.Fatal("R2 must be blocked while bufE of the last hop matches (m,·,c)")
		}
	}
	// Different color at the origin: R2 unblocks.
	node(cfg, 0).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 0, Color: 2}
	found := false
	for _, name := range e.EnabledRuleNames(1) {
		if name == "R2@2" {
			found = true
		}
	}
	if !found {
		t.Fatal("R2 must be enabled when colors differ")
	}
}

func TestR2SelfGeneratedBypassesOriginCheck(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	// LastHop = p itself (generated here): the origin check is vacuous.
	node(cfg, 1).FW.Dest(2).BufR = &Message{Payload: "m", LastHop: 1, Color: 1}
	node(cfg, 1).FW.Dest(2).BufE = nil
	found := false
	for _, name := range e.EnabledRuleNames(1) {
		if name == "R2@2" {
			found = true
		}
	}
	if !found {
		t.Fatal("R2 must be enabled for self-generated messages")
	}
}

func TestFreshColorAvoidsNeighborReceptionBuffers(t *testing.T) {
	g := graph.Star(4) // center 0, leaves 1..3; Δ=3 → colors {0..3}
	cfg := CleanConfig(g)
	// Center is about to run R2 for destination 3; its neighbors' bufR(3)
	// hold colors 0, 1, 2 → the fresh color must be 3.
	node(cfg, 0).FW.Dest(3).BufR = &Message{Payload: "m", LastHop: 0, Color: 0}
	node(cfg, 1).FW.Dest(3).BufR = &Message{Payload: "x", LastHop: 1, Color: 0}
	node(cfg, 2).FW.Dest(3).BufR = &Message{Payload: "y", LastHop: 2, Color: 1}
	node(cfg, 3).FW.Dest(3).BufR = &Message{Payload: "z", LastHop: 3, Color: 2}
	e := sm.NewEngine(g, NewProgram(g), syncDaemon{}, cfg)

	// Force only R2 at 0 by stepping a scripted-like single selection: the
	// sync daemon would fire everyone, so check the guard and run the
	// action through a one-step engine on a restricted program instead.
	prog := sm.NewProgram(destRules(3, PolicyQueue, false)[1]) // R2@3 only
	e = sm.NewEngine(g, prog, syncDaemon{}, cfg)
	e.Step()
	m := engineNode(e, 0).FW.Dest(3).BufE
	if m == nil || m.Color != 3 {
		t.Fatalf("fresh color = %v, want 3", m)
	}
}

func TestR4RequiresExactCopyAtNextHopOnly(t *testing.T) {
	g := graph.Star(4) // center 0, leaves 1,2,3
	cfg := CleanConfig(g)
	// Center forwarded (m,0,1) toward destination 3 (nextHop_0(3)=3).
	node(cfg, 0).FW.Dest(3).BufE = &Message{Payload: "m", LastHop: 0, Color: 1}
	node(cfg, 3).FW.Dest(3).BufR = &Message{Payload: "m", LastHop: 0, Color: 1}
	// A stale exact copy also sits at leaf 2: R4 must be blocked.
	node(cfg, 2).FW.Dest(3).BufR = &Message{Payload: "m", LastHop: 0, Color: 1}
	e := sm.NewEngine(g, FullProgram(g), syncDaemon{}, cfg)

	for _, name := range e.EnabledRuleNames(0) {
		if name == "R4@3" {
			t.Fatal("R4 must be blocked while another neighbor holds the exact copy")
		}
	}
	// R5 must be enabled at leaf 2 (origin 0 holds (m,·,1), nextHop_0(3)=3≠2).
	r5 := false
	for _, name := range e.EnabledRuleNames(2) {
		if name == "R5@3" {
			r5 = true
		}
	}
	if !r5 {
		t.Fatalf("R5 must clear the stale duplicate; enabled at 2: %v", e.EnabledRuleNames(2))
	}
	// Clear the stale copy; now R4 fires.
	node(cfg, 2).FW.Dest(3).BufR = nil
	r4 := false
	for _, name := range e.EnabledRuleNames(0) {
		if name == "R4@3" {
			r4 = true
		}
	}
	if !r4 {
		t.Fatalf("R4 must be enabled once the copy is unique; enabled at 0: %v", e.EnabledRuleNames(0))
	}
}

func TestR4NeverFiresAtDestination(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	node(cfg, 2).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 2, Color: 0}
	for _, name := range e.EnabledRuleNames(2) {
		if name == "R4@2" {
			t.Fatal("R4 is for p ≠ d only; the destination consumes via R6")
		}
	}
	r6 := false
	for _, name := range e.EnabledRuleNames(2) {
		if name == "R6@2" {
			r6 = true
		}
	}
	if !r6 {
		t.Fatal("R6 must be enabled at the destination")
	}
}

func TestR5RequiresReroutedOrigin(t *testing.T) {
	g := graph.Star(4)
	cfg := CleanConfig(g)
	// Copy at leaf 1 whose origin 0 still holds (m,·,c) but routes to 1:
	// this is a normal in-flight forward, R5 must NOT fire.
	node(cfg, 1).FW.Dest(1).BufR = &Message{Payload: "m", LastHop: 0, Color: 2}
	node(cfg, 0).FW.Dest(1).BufE = &Message{Payload: "m", LastHop: 0, Color: 2}
	e := sm.NewEngine(g, FullProgram(g), syncDaemon{}, cfg)
	for _, name := range e.EnabledRuleNames(1) {
		if name == "R5@1" {
			t.Fatal("R5 must not fire when the origin still routes here")
		}
	}
}

func TestR6DeliversAndEmpties(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	msg := &Message{Payload: "m", LastHop: 1, Color: 2, UID: 42, Dest: 2, Valid: true}
	node(cfg, 2).FW.Dest(2).BufE = msg
	var got *Message
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == obs.KindDeliver {
			got = (*Message)(ev.Msg)
		}
	})
	e.Step()
	if got == nil || got.UID != 42 {
		t.Fatalf("delivered %v", got)
	}
	if got != msg {
		t.Fatal("the deliver event copied the message instead of sharing the immutable buffer value")
	}
	if engineNode(e, 2).FW.Dest(2).BufE != nil {
		t.Fatal("R6 must empty the buffer")
	}
}

func TestRoutingPriorityPreemptsForwarding(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	// Processor 2 could consume (R6@2) but its routing table is corrupt:
	// the A rule must preempt.
	node(cfg, 2).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 2, Color: 0}
	node(cfg, 2).RT.Routes[0].Dist = 7 // incorrect distance to 0
	names := e.EnabledRuleNames(2)
	if len(names) != 1 || names[0] != "A@0" {
		t.Fatalf("enabled at 2: %v, want only the routing correction", names)
	}
}

func TestChoiceFIFONoPassing(t *testing.T) {
	g := graph.Star(4) // leaves 1,2,3 all forward to center 0 for dest 0
	cfg := CleanConfig(g)
	for _, leaf := range []graph.ProcessID{1, 2, 3} {
		node(cfg, leaf).FW.Dest(0).BufE = &Message{
			Payload: "from" + string(rune('0'+leaf)), LastHop: leaf, Color: 0, UID: uint64(leaf), Valid: true, Dest: 0,
		}
	}
	// Restrict to R3@0 so only the center's pulls execute; queue order must
	// be 1, 2, 3 (ID order on first normalization) regardless of daemon.
	prog := sm.NewProgram(destRules(0, PolicyQueue, false)[2])
	e := sm.NewEngine(g, prog, syncDaemon{}, cfg)
	e.Step()
	first := engineNode(e, 0).FW.Dest(0).BufR
	if first == nil || first.LastHop != 1 {
		t.Fatalf("first served should be 1, got %v", first)
	}
	if q := engineNode(e, 0).FW.Dest(0).Queue; len(q) != 2 || q[0] != 2 || q[1] != 3 {
		t.Fatalf("queue after first serve = %v, want [2 3]", q)
	}
	// bufR occupied → R3 disabled; empty it (as R2 would) and pull again.
	ds := *engineNode(e, 0).FW.Dest(0)
	ds.BufR = nil
	engineNode(e, 0).FW.SetDest(0, ds)
	e.Step()
	second := engineNode(e, 0).FW.Dest(0).BufR
	if second == nil || second.LastHop != 2 {
		t.Fatalf("second served should be 2, got %v", second)
	}
	// Leaf 1 re-arrives (it never left: its bufE is still occupied) — it
	// must requeue BEHIND 3.
	if q := engineNode(e, 0).FW.Dest(0).Queue; len(q) != 2 || q[0] != 3 || q[1] != 1 {
		t.Fatalf("queue after second serve = %v, want [3 1]", q)
	}
}

func TestCorruptQueueEntriesIgnored(t *testing.T) {
	_, cfg, e := newLineEngine(t)
	// Queue at 1 stuffed with entries that are not candidates; a real
	// candidate (0, holding a message routed to 1) must still be served.
	node(cfg, 0).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 0, Color: 0, Valid: true, Dest: 2}
	node(cfg, 1).FW.Dest(2).Queue = []graph.ProcessID{2, 1, 1, 2}
	e.Step() // sync: R3 at 1 fires (choice normalizes to [0])
	if m := engineNode(e, 1).FW.Dest(2).BufR; m == nil || m.LastHop != 0 {
		t.Fatalf("bufR_1(2) = %v; corrupt queue entries must be ignored", m)
	}
}

func TestCaterpillarClassification(t *testing.T) {
	g := graph.Line(3)
	cfg := CleanConfig(g)

	// Type 1: message in bufR_1 whose origin 0 no longer holds (m,·,c).
	cfg[1].(*Node).FW.Dest(2).BufR = &Message{Payload: "m", LastHop: 0, Color: 1}
	if got := ClassifyR(g, cfg, 1, 2); got != Type1 {
		t.Fatalf("ClassifyR = %v, want type-1", got)
	}
	// Tail of an in-flight forward: origin still holds (m,·,c) → not a head.
	cfg[0].(*Node).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 0, Color: 1}
	if got := ClassifyR(g, cfg, 1, 2); got != None {
		t.Fatalf("ClassifyR = %v, want none while origin holds the message", got)
	}
	// The origin's emission occurrence: neighbor 1 holds the copy (m,0,1) → type 3.
	if got := ClassifyE(g, cfg, 0, 2); got != Type3 {
		t.Fatalf("ClassifyE = %v, want type-3", got)
	}
	// Self-generated in bufR → type 1 regardless of neighbors.
	cfg[1].(*Node).FW.Dest(2).BufR = &Message{Payload: "m", LastHop: 1, Color: 1}
	if got := ClassifyR(g, cfg, 1, 2); got != Type1 {
		t.Fatalf("ClassifyR = %v, want type-1 for self-generated", got)
	}
	// Emission buffer with no copy anywhere → type 2.
	cfg[1].(*Node).FW.Dest(2).BufR = nil
	cfg[0].(*Node).FW.Dest(2).BufE = nil
	cfg[1].(*Node).FW.Dest(2).BufE = &Message{Payload: "w", LastHop: 1, Color: 0}
	if got := ClassifyE(g, cfg, 1, 2); got != Type2 {
		t.Fatalf("ClassifyE = %v, want type-2", got)
	}
	// Empty buffers classify as none.
	if ClassifyR(g, cfg, 0, 2) != None || ClassifyE(g, cfg, 0, 2) != None {
		t.Fatal("empty buffers must classify as none")
	}
}

func TestCaterpillarCensus(t *testing.T) {
	g := graph.Line(3)
	cfg := CleanConfig(g)
	cfg[0].(*Node).FW.Dest(2).BufE = &Message{Payload: "m", LastHop: 0, Color: 1}
	cfg[1].(*Node).FW.Dest(2).BufR = &Message{Payload: "m", LastHop: 0, Color: 1}
	cfg[2].(*Node).FW.Dest(2).BufE = &Message{Payload: "z", LastHop: 2, Color: 0}
	census := CaterpillarCensus(g, cfg, 2)
	if census[Type3] != 1 || census[Type2] != 1 || census[Type1] != 0 {
		t.Fatalf("census = %v, want 1×type-3, 1×type-2", census)
	}
}

// TestSynchronousStepReadsPreStepValues runs one synchronous step on a
// line in which a processor writes the slot its neighbour's action reads,
// with the writer on either side of the reader in execution order. The
// reader must see the pre-step value, as the model's composite atomicity
// requires, which holds only if the engine commits the step's writes after
// every selection has run.
//   - erase: destination 1 consumes bufE_1(1) (R6) while neighbour c, to
//     which 1's own table entry points, copies it (R3). SSMFP runs without
//     A here, which would otherwise repair that entry first.
//   - advance: processors 0 and 1 both move bufR(2) into bufE(2) (R2),
//     each choosing a colour not held in the other's pre-step bufR(2):
//     colour 1, since both hold colour 0.
func TestSynchronousStepReadsPreStepValues(t *testing.T) {
	g := graph.Line(3)
	for _, c := range []graph.ProcessID{0, 2} {
		const d = 1
		cfg := CleanConfig(g)
		m := &Message{Payload: "m", LastHop: d, UID: 1<<62 + 1, Src: d, Dest: d}
		node(cfg, d).FW.Dest(d).BufE = m
		node(cfg, d).RT.Routes[d] = routing.Route{Dist: 0, Parent: c}
		e := sm.NewEngine(g, NewProgram(g), syncDaemon{}, cfg)
		fired := firedRules(e)
		e.Step()
		if slices.Sort(*fired); !slices.Equal(*fired, []string{"R3@1", "R6@1"}) {
			t.Fatalf("erase, copier %d: fired %v, want R3@1 and R6@1 in one step", c, *fired)
		}
		if got := engineNode(e, c).FW.Dest(d).BufR; got == nil || got.UID != m.UID || got.LastHop != d {
			t.Fatalf("erase, copier %d: bufR_%d(1) = %v, want the pre-step bufE_1(1) copied", c, c, got)
		}
		if engineNode(e, d).FW.Dest(d).BufE != nil {
			t.Fatalf("erase, copier %d: bufE_1(1) not consumed", c)
		}
	}
	const d = 2
	cfg := CleanConfig(g)
	for p := graph.ProcessID(0); p < 2; p++ {
		node(cfg, p).FW.Dest(d).BufR = &Message{Payload: "m", LastHop: p, UID: 1<<62 + 2 + uint64(p), Src: p, Dest: d}
	}
	e := sm.NewEngine(g, FullProgram(g), syncDaemon{}, cfg)
	fired := firedRules(e)
	e.Step()
	if !slices.Equal(*fired, []string{"R2@2", "R2@2"}) {
		t.Fatalf("advance: fired %v, want R2@2 at 0 and 1 in one step", *fired)
	}
	for p := graph.ProcessID(0); p < 2; p++ {
		if got := engineNode(e, p).FW.Dest(d).BufE; got == nil || got.Color != 1 {
			t.Fatalf("advance: bufE_%d(2) = %v, want colour 1: the neighbour's pre-step bufR(2) holds colour 0", p, got)
		}
	}
}

// firedRules records the rule of every move the engine makes.
func firedRules(e *sm.Engine) *[]string {
	var fired []string
	e.Subscribe(func(ev sm.Event) {
		if ev.Kind == obs.KindFire {
			fired = append(fired, ev.Rule)
		}
	})
	return &fired
}
