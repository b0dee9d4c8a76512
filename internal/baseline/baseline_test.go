package baseline_test

import (
	"fmt"
	"testing"

	"ssmfp/internal/baseline"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

func newTracked(g *graph.Graph, prog sm.Program, d sm.Daemon, cfg []sm.State) (*sm.Engine, *checker.Tracker) {
	e := sm.NewEngine(g, prog, d, cfg)
	tr := checker.New(g)
	tr.Attach(e)
	return e, tr
}

func TestNaiveFaultFreeDeliversExactlyOnce(t *testing.T) {
	g := graph.Line(3)
	cfg := baseline.CleanConfig(g)
	cfg[0].(*baseline.Node).FW.Enqueue("hello", 2)
	e, tr := newTracked(g, baseline.NaiveFullProgram(g), daemon.NewSynchronous(1), cfg)
	if _, terminal := e.Run(10_000, nil); !terminal {
		t.Fatal("did not terminate")
	}
	if !tr.AllValidDelivered() || len(tr.Violations()) != 0 {
		t.Fatalf("fault-free naive run failed: %v", tr.Violations())
	}
	if len(tr.Deliveries()) != 1 {
		t.Fatalf("deliveries = %d", len(tr.Deliveries()))
	}
}

func TestNaiveDuplicatesOnConsumeBeforeErase(t *testing.T) {
	// The re-pull anomaly: the destination consumes the copy before the
	// sender erases, the sender's original is pulled again, and the same
	// message (same UID) is delivered twice. SSMFP's R2 guard (wait until
	// the origin's bufE no longer matches) forbids exactly this.
	g := graph.Line(3)
	prog := baseline.NaiveFullProgram(g)
	cfg := baseline.CleanConfig(g)
	cfg[0].(*baseline.Node).FW.Enqueue("dup", 2)
	script := []daemon.ScriptStep{
		{daemon.Act(0, "G@2")},
		{daemon.Act(1, "F1@2")},
		{daemon.Act(0, "F2@2")},
		{daemon.Act(2, "F1@2")},
		{daemon.Act(2, "C@2")},  // consumed before F2 at 1 fires
		{daemon.Act(2, "F1@2")}, // re-pull of the same message
		{daemon.Act(2, "C@2")},  // second delivery: duplication
	}
	e, tr := newTracked(g, prog, daemon.NewScripted(prog, script, daemon.NewCentralRoundRobin()), cfg)
	for range script {
		e.Step()
	}
	if len(tr.Deliveries()) != 2 {
		t.Fatalf("deliveries = %d, want 2 (duplication)", len(tr.Deliveries()))
	}
	found := false
	for _, v := range tr.Violations() {
		if contains(v, "duplication") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a duplication violation, got %v", tr.Violations())
	}
}

func TestNaiveLosesOnPayloadCollision(t *testing.T) {
	// An invalid message with the same payload sits at the next hop
	// claiming to come from the sender; F2's payload-only match erases the
	// valid original before it was ever copied.
	g := graph.Line(3)
	cfg := baseline.CleanConfig(g)
	cfg[1].(*baseline.Node).FW.Buf[2] = &core.Message{
		Payload: "x", LastHop: 0, UID: 999_999, Src: 1, Dest: 2, Valid: false,
	}
	cfg[0].(*baseline.Node).FW.Enqueue("x", 2)
	e, tr := newTracked(g, baseline.NaiveFullProgram(g), daemon.NewSynchronous(3), cfg)
	if _, terminal := e.Run(100_000, nil); !terminal {
		t.Fatal("did not terminate")
	}
	if tr.AllValidDelivered() {
		t.Fatal("expected the valid message to be lost (merged with the invalid one)")
	}
	if tr.GeneratedCount() != 1 || tr.DeliveredValid() != 0 {
		t.Fatalf("generated=%d deliveredValid=%d", tr.GeneratedCount(), tr.DeliveredValid())
	}
}

func TestSSMFPSurvivesTheSameCollision(t *testing.T) {
	// The same adversarial setup against SSMFP: invalid same-payload
	// message planted on the path; the valid message must still arrive
	// exactly once (the color flag distinguishes the two).
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[1].(*core.Node).FW.Dest(2).BufE = &core.Message{
		Payload: "x", LastHop: 0, Color: 0, UID: 888_888, Src: 1, Dest: 2, Valid: false,
	}
	cfg[0].(*core.Node).FW.Enqueue("x", 2)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(3), cfg)
	tr := checker.New(g)
	tr.Attach(e)
	if _, terminal := e.Run(100_000, nil); !terminal {
		t.Fatal("did not terminate")
	}
	if !tr.AllValidDelivered() || len(tr.Violations()) != 0 {
		t.Fatalf("SSMFP must survive the collision: delivered=%v violations=%v",
			tr.AllValidDelivered(), tr.Violations())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNaiveCloneDeep(t *testing.T) {
	g := graph.Line(3)
	n := baseline.CleanNode(g, 0)
	n.FW.Enqueue("a", 2)
	n.FW.Buf[1] = &core.Message{Payload: "b"}
	c := n.Clone().(*baseline.Node)
	c.FW.Pending[0].Payload = "z"
	c.FW.Buf[1] = nil
	c.RT.Routes.At(2).Dist = 77
	if n.FW.Pending[0].Payload != "a" || n.FW.Buf[1] == nil || n.RT.Route(2).Dist == 77 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestNaiveQuiescent(t *testing.T) {
	g := graph.Line(3)
	cfg := baseline.CleanConfig(g)
	if !baseline.Quiescent(cfg) {
		t.Fatal("clean config must be quiescent")
	}
	cfg[0].(*baseline.Node).FW.Buf[1] = &core.Message{Payload: "b"}
	if baseline.Quiescent(cfg) {
		t.Fatal("occupied config must not be quiescent")
	}
}

// --- atomic-move simulator ------------------------------------------

func TestAtomicFaultFreeExactMoveCount(t *testing.T) {
	// Under correct tables every forward strictly descends the routing
	// tree, so each message costs exactly dist(src,dst)+2 moves.
	g := graph.Grid(3, 3)
	a := baseline.NewAtomic(g, baseline.CorrectTables(g), 42)
	wantMoves := 0
	k := 0
	for src := 0; src < g.N(); src++ {
		dst := (src + 4) % g.N()
		if src == dst {
			continue
		}
		a.Enqueue(graph.ProcessID(src), fmt.Sprintf("m%d", src), graph.ProcessID(dst))
		wantMoves += g.Dist(graph.ProcessID(src), graph.ProcessID(dst)) + 2
		k++
	}
	_, stopped := a.Run(1_000_000)
	if !stopped || !a.Quiescent() {
		t.Fatal("fault-free atomic run must drain")
	}
	if a.Moves() != wantMoves {
		t.Fatalf("moves = %d, want %d", a.Moves(), wantMoves)
	}
	if len(a.Delivered()) != k {
		t.Fatalf("delivered = %d, want %d", len(a.Delivered()), k)
	}
	byKind := a.MovesByKind()
	if byKind[baseline.Generate] != k || byKind[baseline.Consume] != k {
		t.Fatalf("byKind = %v", byKind)
	}
}

func TestAtomicDeadlockOnFullCycle(t *testing.T) {
	// Two-cycle in the tables for destination 0 with both buffers full:
	// neither message can move, the component deadlocks.
	g := graph.Ring(4)
	ts := baseline.CorrectTables(g)
	ts[1].Routes.At(0).Parent = 2
	ts[2].Routes.At(0).Parent = 1
	a := baseline.NewAtomic(g, ts, 7)
	a.PlaceInvalid(1, 0, "stuck-a")
	a.PlaceInvalid(2, 0, "stuck-b")
	if !a.Deadlocked() {
		t.Fatalf("expected deadlock; legal moves: %v", a.LegalMoves())
	}
	if a.Step() {
		t.Fatal("Step must refuse to move in deadlock")
	}
}

func TestAtomicLivelockOnRoutingLoop(t *testing.T) {
	// One message inside a 2-cycle bounces forever: moves keep happening
	// but nothing is ever delivered.
	g := graph.Ring(4)
	ts := baseline.CorrectTables(g)
	ts[1].Routes.At(0).Parent = 2
	ts[2].Routes.At(0).Parent = 1
	a := baseline.NewAtomic(g, ts, 7)
	a.PlaceInvalid(1, 0, "wanderer")
	moves, stopped := a.Run(10_000)
	if stopped {
		t.Fatal("livelock must keep moving")
	}
	if moves != 10_000 || len(a.Delivered()) != 0 {
		t.Fatalf("moves=%d delivered=%d; expected endless circulation", moves, len(a.Delivered()))
	}
}

func TestAtomicRepairEndsLivelock(t *testing.T) {
	g := graph.Ring(4)
	ts := baseline.CorrectTables(g)
	ts[1].Routes.At(0).Parent = 2
	ts[2].Routes.At(0).Parent = 1
	a := baseline.NewAtomic(g, ts, 7)
	m := a.PlaceInvalid(1, 0, "wanderer")
	a.Run(1_000)
	a.RepairTables()
	if _, stopped := a.Run(1_000); !stopped {
		t.Fatal("must drain after repair")
	}
	if len(a.Delivered()) != 1 || a.Delivered()[0].UID != m.UID {
		t.Fatalf("delivered = %v", a.Delivered())
	}
}

func TestAtomicPlaceInvalidRejectsOccupied(t *testing.T) {
	g := graph.Line(3)
	a := baseline.NewAtomic(g, baseline.CorrectTables(g), 1)
	a.PlaceInvalid(0, 2, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.PlaceInvalid(0, 2, "y")
}

func TestAtomicBufferAccessorAndMoveString(t *testing.T) {
	g := graph.Line(3)
	a := baseline.NewAtomic(g, baseline.CorrectTables(g), 1)
	if a.Buffer(0, 2) != nil {
		t.Fatal("fresh buffers must be empty")
	}
	m := a.PlaceInvalid(0, 2, "x")
	if a.Buffer(0, 2) != m {
		t.Fatal("Buffer must return the placed message")
	}
	if baseline.Generate.String() != "generate" || baseline.Forward.String() != "forward" ||
		baseline.Consume.String() != "consume" || baseline.MoveKind(9).String() != "move(9)" {
		t.Fatal("MoveKind strings wrong")
	}
}

func TestAtomicGenerationWaitsForFreeBuffer(t *testing.T) {
	g := graph.Line(2)
	a := baseline.NewAtomic(g, baseline.CorrectTables(g), 1)
	a.PlaceInvalid(0, 1, "blocker")
	a.Enqueue(0, "waiting", 1)
	for _, mv := range a.LegalMoves() {
		if mv.Kind == baseline.Generate {
			t.Fatal("generation must wait until the buffer frees")
		}
	}
	if _, stopped := a.Run(1_000); !stopped || !a.Quiescent() {
		t.Fatal("both messages should eventually drain")
	}
	if len(a.Delivered()) != 2 {
		t.Fatalf("delivered = %d, want 2", len(a.Delivered()))
	}
}
