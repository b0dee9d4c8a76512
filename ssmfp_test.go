package ssmfp_test

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ssmfp"
)

func TestQuickstartCleanNetwork(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Line(5))
	net.Send(0, 4, "hello")
	report := net.Run()
	if !report.OK() {
		t.Fatalf("report: %s", report)
	}
	if report.Delivered != 1 || report.Generated != 1 {
		t.Fatalf("report: %+v", report)
	}
	ds := net.Deliveries()
	if len(ds) != 1 || ds[0].Payload != "hello" || ds[0].To != 4 || !ds[0].Valid {
		t.Fatalf("deliveries: %+v", ds)
	}
	if !strings.Contains(report.String(), "SP satisfied") {
		t.Fatalf("String: %s", report)
	}
}

func TestCorruptStartStillExactlyOnce(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Grid(3, 3),
		ssmfp.WithCorruptStart(42),
		ssmfp.WithDaemon("central-random"))
	for p := ssmfp.ProcessID(0); p < 9; p++ {
		net.Send(p, (p+4)%9, "from-corrupt-start")
	}
	report := net.Run()
	if !report.OK() {
		t.Fatalf("snap-stabilization failed: %s", report)
	}
	if report.Generated != 9 || report.Delivered != 9 {
		t.Fatalf("accounting: %+v", report)
	}
}

func TestAllDaemonKinds(t *testing.T) {
	for _, kind := range []string{
		"synchronous", "central-random", "central-round-robin", "distributed-random", "weakly-fair-lifo",
	} {
		t.Run(kind, func(t *testing.T) {
			net := ssmfp.NewNetwork(ssmfp.Ring(5),
				ssmfp.WithDaemon(kind), ssmfp.WithSeed(7))
			net.Send(0, 2, "x")
			net.Send(3, 1, "y")
			if report := net.Run(); !report.OK() {
				t.Fatalf("%s: %s", kind, report)
			}
		})
	}
}

func TestUnknownDaemonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ssmfp.NewNetwork(ssmfp.Line(3), ssmfp.WithDaemon("fifo-magic"))
}

func TestSendValidation(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Line(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range processor")
		}
	}()
	net.Send(0, 7, "nope")
}

func TestDeliveryHandler(t *testing.T) {
	var got []ssmfp.Delivery
	net := ssmfp.NewNetwork(ssmfp.Line(4),
		ssmfp.WithDeliveryHandler(func(d ssmfp.Delivery) { got = append(got, d) }))
	net.Send(0, 3, "cb")
	net.Run()
	if len(got) != 1 || got[0].Payload != "cb" || got[0].To != 3 {
		t.Fatalf("handler saw: %+v", got)
	}
}

func TestStepAndIncrementalReport(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Line(3))
	net.Send(0, 2, "step-by-step")
	steps := 0
	for net.Step() {
		steps++
		if steps > 1000 {
			t.Fatal("did not quiesce")
		}
	}
	r := net.Report()
	if !r.OK() || r.Steps != steps {
		t.Fatalf("report: %+v (steps=%d)", r, steps)
	}
}

func TestWithMaxStepsCapsRun(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Line(6), ssmfp.WithMaxSteps(3))
	net.Send(0, 5, "far")
	r := net.Run()
	if r.OK() {
		t.Fatal("3 steps cannot deliver across 5 hops")
	}
	if r.Steps != 3 {
		t.Fatalf("steps = %d, want 3", r.Steps)
	}
}

func TestCustomTopology(t *testing.T) {
	tp := ssmfp.Custom(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if tp.N() != 4 || tp.Diameter() != 2 {
		t.Fatalf("custom topology wrong: %v", tp)
	}
	net := ssmfp.NewNetwork(tp)
	net.Send(0, 2, "via-ring")
	if !net.Run().OK() {
		t.Fatal("custom topology run failed")
	}
}

func TestTopologyConstructors(t *testing.T) {
	cases := []struct {
		tp   *ssmfp.Topology
		n, d int
	}{
		{ssmfp.Line(4), 4, 3},
		{ssmfp.Ring(6), 6, 3},
		{ssmfp.Star(5), 5, 2},
		{ssmfp.Complete(4), 4, 1},
		{ssmfp.BinaryTree(7), 7, 4},
		{ssmfp.Grid(2, 3), 6, 3},
		{ssmfp.Torus(3, 3), 9, 2},
		{ssmfp.Hypercube(3), 8, 3},
		{ssmfp.Random(7, 12, 3), 7, -1},
	}
	for i, c := range cases {
		if c.tp.N() != c.n {
			t.Errorf("case %d: n = %d, want %d", i, c.tp.N(), c.n)
		}
		if c.d >= 0 && c.tp.Diameter() != c.d {
			t.Errorf("case %d: D = %d, want %d", i, c.tp.Diameter(), c.d)
		}
	}
}

func TestLiveNetworkEndToEnd(t *testing.T) {
	live := ssmfp.NewLiveNetwork(ssmfp.Grid(2, 3), ssmfp.LiveOptions{
		Seed: 9, CorruptStart: true, LossRate: 0.1, DupRate: 0.2})
	defer live.Close()
	var ids []uint64
	for p := ssmfp.ProcessID(0); p < 6; p++ {
		uid, err := live.Send(p, (p+3)%6, "live")
		if err != nil {
			t.Fatalf("Send(%d): %v", p, err)
		}
		ids = append(ids, uid)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if live.DeliveredExactlyOnce(ids...) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !live.DeliveredExactlyOnce(ids...) {
		t.Fatalf("live network failed exactly-once; deliveries: %d", len(live.Deliveries()))
	}
}

func TestLiveNetworkClosedGuards(t *testing.T) {
	live := ssmfp.NewLiveNetwork(ssmfp.Line(3), ssmfp.LiveOptions{Seed: 2})
	uid, err := live.Send(0, 2, "pre-close")
	if err != nil {
		t.Fatalf("Send on open network: %v", err)
	}
	if !live.WaitDelivered(1, 30*time.Second) {
		t.Fatal("pre-close message not delivered")
	}
	live.Close()
	live.Close() // idempotent: a second Close must not panic
	if _, err := live.Send(0, 2, "post-close"); err != ssmfp.ErrClosed {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
	start := time.Now()
	if live.WaitDelivered(2, 30*time.Second) {
		t.Fatal("WaitDelivered reported an impossible delivery after Close")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitDelivered blocked %v on a closed network", elapsed)
	}
	if !live.DeliveredExactlyOnce(uid) {
		t.Fatal("closed network lost its delivery records")
	}
}

// Property: any random topology, any seed, corrupted start, a handful of
// messages — Specification SP holds through the facade.
func TestQuickFacadeSnapStabilization(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 3 + int(nRaw)%6
		tp := ssmfp.Random(n, 2*n, seed)
		net := ssmfp.NewNetwork(tp, ssmfp.WithCorruptStart(seed), ssmfp.WithDaemon("distributed-random"))
		k := 1 + int(kRaw)%5
		for i := 0; i < k; i++ {
			net.Send(ssmfp.ProcessID(i%n), ssmfp.ProcessID((i+1)%n), "q")
		}
		return net.Run().OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWithChoicePolicy(t *testing.T) {
	for _, policy := range []string{"fifo-queue", "rotating", "lowest-id"} {
		net := ssmfp.NewNetwork(ssmfp.Star(5), ssmfp.WithChoicePolicy(policy))
		net.Send(1, 3, "p")
		if !net.Run().OK() {
			t.Fatalf("policy %s failed", policy)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy must panic")
		}
	}()
	ssmfp.NewNetwork(ssmfp.Line(3), ssmfp.WithChoicePolicy("coin-flip"))
}

func TestInjectFaultsKeepsPostFaultGuarantee(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Grid(3, 3), ssmfp.WithDaemon("central-random"), ssmfp.WithSeed(5))
	net.Send(0, 8, "pre-fault")
	for i := 0; i < 10; i++ {
		net.Step()
	}
	net.InjectFaults(7, 5)
	net.Send(8, 0, "post-fault-1")
	net.Send(3, 5, "post-fault-2")
	report := net.Run()
	if !report.Quiescent || len(report.Violations) != 0 || report.Undelivered != 0 {
		t.Fatalf("post-fault guarantee broken: %+v", report)
	}
}

func TestPendingAccessor(t *testing.T) {
	net := ssmfp.NewNetwork(ssmfp.Line(3))
	if net.Pending() != 0 {
		t.Fatal("fresh network has nothing pending")
	}
	net.Send(0, 2, "a")
	net.Send(1, 0, "b")
	if net.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", net.Pending())
	}
	net.Run()
	if net.Pending() != 0 {
		t.Fatal("run must drain pending")
	}
}
