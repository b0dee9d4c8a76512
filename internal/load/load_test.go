package load_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

// newNet builds and starts a msgpass deployment wired to a fresh hook.
func newNet(g *graph.Graph, opts msgpass.Options) (*msgpass.Network, *load.Hook) {
	hook := &load.Hook{}
	opts.OnDeliver = hook.OnDeliver
	nw := msgpass.New(g, opts)
	nw.Start()
	return nw, hook
}

func TestTagRoundTrip(t *testing.T) {
	tag := load.EncodeTag(42, 3, 7, 1234567890123)
	seq, src, dst, sched, ok := load.ParseTag(tag)
	if !ok || seq != 42 || src != 3 || dst != 7 || sched != 1234567890123 {
		t.Fatalf("round trip gave (%d,%d,%d,%d,%v)", seq, src, dst, sched, ok)
	}
	for _, bad := range []string{"", "m-1-2", "lt1:x:1:2:3", "lt1:1:2:3", "lt2:1:2:3:4"} {
		if _, _, _, _, ok := load.ParseTag(bad); ok {
			t.Errorf("ParseTag(%q) accepted a foreign payload", bad)
		}
	}
}

func TestOpenLoopExactlyOnce(t *testing.T) {
	g := graph.Grid(3, 3)
	nw, hook := newNet(g, msgpass.Options{Seed: 11})
	defer nw.Stop()
	rep, err := load.Run(nw, g, hook, load.Config{
		Driver: load.DriverOpen, Arrival: load.ArrivalPoisson,
		Rate: 2000, Messages: 200, Seed: 11, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactlyOnce {
		t.Fatalf("exactly-once violated: %v", rep.Violations)
	}
	if rep.Sent != 200 || rep.Delivered != 200 {
		t.Fatalf("sent %d delivered %d, want 200/200", rep.Sent, rep.Delivered)
	}
	if rep.Hist == nil || rep.Hist.Count() != 200 {
		t.Fatalf("histogram incomplete: %+v", rep.Hist)
	}
	if rep.Latency.P50NS <= 0 || rep.Latency.P99NS < rep.Latency.P50NS {
		t.Fatalf("implausible quantiles: %+v", rep.Latency)
	}
}

func TestClosedLoopExactlyOnce(t *testing.T) {
	g := graph.Grid(3, 3)
	nw, hook := newNet(g, msgpass.Options{Seed: 12})
	defer nw.Stop()
	rep, err := load.Run(nw, g, hook, load.Config{
		Driver: load.DriverClosed, Outstanding: 2,
		Messages: 150, Seed: 12, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactlyOnce {
		t.Fatalf("exactly-once violated: %v", rep.Violations)
	}
	if rep.Sent != 150 || rep.Delivered != 150 {
		t.Fatalf("sent %d delivered %d, want 150/150", rep.Sent, rep.Delivered)
	}
	if rep.OfferedRate != 0 {
		t.Fatalf("closed loop must not claim an offered rate, got %v", rep.OfferedRate)
	}
}

// TestLoadProgressLines pins the progress output: load-tick lines at the
// tick period and one load-done line at the end of the step.
func TestLoadProgressLines(t *testing.T) {
	g := graph.Grid(2, 2)
	nw, hook := newNet(g, msgpass.Options{Seed: 13})
	defer nw.Stop()
	var progress bytes.Buffer
	_, err := load.Run(nw, g, hook, load.Config{
		Rate: 500, Messages: 100, Seed: 13,
		TickEvery: 20 * time.Millisecond, Progress: &progress, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(progress.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("no load-tick lines for a ~200ms run with a 20ms beat:\n%s", progress.String())
	}
	for _, line := range lines[:len(lines)-1] {
		if !strings.HasPrefix(line, "load-tick step=0 sent=") {
			t.Errorf("progress line %q, want a load-tick", line)
		}
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "load-done rate=500 sent=100 delivered=100 p99=") {
		t.Errorf("last progress line %q, want the load-done summary", last)
	}
}

// sweepOnce runs a small fixed ladder on a 3x3 grid.
func sweepOnce(t *testing.T) *load.Report {
	t.Helper()
	g := graph.Grid(3, 3)
	factory := func(step int) (load.Network, *load.Hook, func(), error) {
		nw, hook := newNet(g, msgpass.Options{Seed: 21 + int64(step)})
		return nw, hook, func() { nw.Stop() }, nil
	}
	rep, err := load.Sweep("grid-3x3", g, factory, load.SweepConfig{
		Base:  load.Config{Messages: 120, Seed: 21, DrainTimeout: 60 * time.Second},
		Start: 500, Factor: 4, Steps: 3, KneeRatio: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSweepKneeAndDeterminism(t *testing.T) {
	rep := sweepOnce(t)
	if rep.Schema != load.Schema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if !rep.ExactlyOnce {
		t.Fatalf("sweep violated exactly-once: %+v", rep.Steps)
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("%d steps, want 3", len(rep.Steps))
	}
	for i, s := range rep.Steps {
		if i > 0 && s.OfferedRate <= rep.Steps[i-1].OfferedRate {
			t.Fatalf("ladder not increasing at step %d", i)
		}
		if s.Step != i {
			t.Fatalf("step %d labeled %d", i, s.Step)
		}
		l := s.Latency
		if l.P50NS > l.P90NS || l.P90NS > l.P99NS || l.P99NS > l.P999NS {
			t.Fatalf("step %d quantiles out of order: %+v", i, l)
		}
	}
	// Latency under a heavier offered rate cannot beat the lightest
	// rung's median (weak cross-step monotonicity; the strong form is
	// host-timing dependent).
	last := rep.Steps[len(rep.Steps)-1].Latency
	if last.P99NS < rep.Steps[0].Latency.P50NS {
		t.Fatalf("top-rung p99 %d below first-rung p50 %d", last.P99NS, rep.Steps[0].Latency.P50NS)
	}
	if rep.MaxAchieved <= 0 {
		t.Fatal("no measured throughput")
	}
	// The first rung (500 msg/s on an idle 3x3 grid) must be under the
	// knee; whether the top rung saturates is host-dependent.
	if rep.KneeRate <= 0 {
		t.Fatalf("no knee found: %+v", rep)
	}

	// Determinism: a second sweep of the same configuration must match
	// byte-for-byte once volatile fields are normalized.
	rep2 := sweepOnce(t)
	b1, err := rep.Normalize().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.Normalize().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("normalized reports differ:\n%s\n---\n%s", b1, b2)
	}
}

// TestBandwidthCapClampsGoodput drives sustained open-loop traffic far
// above what a bandwidth-capped wire can carry and checks that the
// protocol degrades by queueing — throughput clamps, latency grows —
// while exactly-once still holds.
func TestBandwidthCapClampsGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-traffic test skipped in -short mode")
	}
	g := graph.Line(3)
	// Every frame — offers, acks, gossip, retransmissions — shares the
	// capped line, so the cap must leave the control plane breathing room:
	// this topology moves ~5000 msg/s uncapped, ~700 msg/s at 256 KiB/s,
	// and collapses into retransmission storms much below that.
	tr := transport.NewChaos(transport.NewChan(g, transport.DefaultDepth), transport.ChaosOptions{Seed: 31, BandwidthBps: 256 << 10})
	defer tr.Close()
	nw, hook := newNet(g, msgpass.Options{Seed: 31, Transport: tr})
	defer nw.Stop()
	rep, err := load.Run(nw, g, hook, load.Config{
		Rate: 5000, Messages: 300, Seed: 31,
		Sources:      []graph.ProcessID{0},
		DrainTimeout: 120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactlyOnce {
		t.Fatalf("exactly-once violated under bandwidth cap: %v", rep.Violations)
	}
	if rep.GoodputRatio > 0.5 {
		t.Fatalf("goodput ratio %.2f — the cap did not bind", rep.GoodputRatio)
	}
	// Scheduled-time latency accounting: the wire backlog must show up in
	// the tail, an order of magnitude above the ~2ms uncapped p99.
	if rep.Latency.P99NS < (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("p99 %v too small for a saturated wire", time.Duration(rep.Latency.P99NS))
	}
}

func TestCompareGates(t *testing.T) {
	mk := func() *load.Report {
		return &load.Report{
			Schema: load.Schema, Topology: "grid-3x3", Driver: load.DriverOpen,
			Seed: 1, Sweep: true, ExactlyOnce: true,
			KneeRate: 8000, MaxAchieved: 9000,
			Steps: []load.StepReport{
				{Step: 0, OfferedRate: 1000, Sent: 100, Delivered: 100, ExactlyOnce: true,
					AchievedRate: 1000, Latency: load.LatencySummary{P99NS: 2_000_000}},
				{Step: 1, OfferedRate: 8000, Sent: 100, Delivered: 100, ExactlyOnce: true,
					AchievedRate: 7800, Latency: load.LatencySummary{P99NS: 5_000_000}},
			},
		}
	}
	base := mk()
	if res := load.Compare(base, mk(), load.Thresholds{}); !res.Clean() {
		t.Fatalf("identical reports flagged: %+v", res)
	}
	// Exactly-once flip always gates.
	bad := mk()
	bad.ExactlyOnce = false
	bad.Steps[1].ExactlyOnce = false
	if res := load.Compare(base, bad, load.Thresholds{}); res.Clean() || len(res.Broken) == 0 {
		t.Fatalf("exactly-once flip not gated: %+v", res)
	}
	// Large p99 regression gates; small one is noise.
	slow := mk()
	slow.Steps[1].Latency.P99NS = 20_000_000
	if res := load.Compare(base, slow, load.Thresholds{}); res.Clean() {
		t.Fatal("4x p99 growth not gated")
	}
	noisy := mk()
	noisy.Steps[1].Latency.P99NS = 5_100_000
	if res := load.Compare(base, noisy, load.Thresholds{}); !res.Clean() {
		t.Fatalf("2%% p99 growth gated: %+v", res)
	}
	// Knee collapse gates.
	kneeless := mk()
	kneeless.KneeRate = 1000
	if res := load.Compare(base, kneeless, load.Thresholds{}); res.Clean() {
		t.Fatal("knee-rate collapse not gated")
	}
	// Missing steps gate.
	short := mk()
	short.Steps = short.Steps[:1]
	if res := load.Compare(base, short, load.Thresholds{}); res.Clean() || len(res.Broken) == 0 {
		t.Fatalf("missing step not gated: %+v", res)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	rep := &load.Report{
		Schema: load.Schema, Topology: "line-3", Driver: load.DriverOpen,
		Arrival: load.ArrivalPoisson, Seed: 5, Messages: 10, ExactlyOnce: true,
		Steps: []load.StepReport{{Step: 0, OfferedRate: 100, Sent: 10, Delivered: 10, ExactlyOnce: true}},
	}
	path := t.TempDir() + "/rep.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := load.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Topology != rep.Topology || len(back.Steps) != 1 || back.Steps[0].Sent != 10 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// Wrong schema refuses to load.
	rep.Schema = "ssmfp-load-report/v0"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := load.Load(path); err == nil {
		t.Fatal("loaded a report with a foreign schema")
	}
}

// TestAttributionInReport: with HoldStamp wired, the step report carries
// a latency attribution whose components are consistent with the
// end-to-end histogram — per message hold+wire+deliver == e2e (hold is
// whole microseconds and wire clamps at zero, so means match within that
// granularity), and the telemetry-backed queue fields are populated.
func TestAttributionInReport(t *testing.T) {
	g := graph.Grid(3, 3)
	nw, hook := newNet(g, msgpass.Options{Seed: 13, HoldStamp: load.AddHold})
	defer nw.Stop()
	rep, err := load.Run(nw, g, hook, load.Config{
		Driver: load.DriverOpen, Arrival: load.ArrivalPoisson,
		Rate: 3000, Messages: 300, Seed: 13, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactlyOnce {
		t.Fatalf("exactly-once violated: %v", rep.Violations)
	}
	a := rep.Attribution
	if a == nil {
		t.Fatal("report has no attribution")
	}
	if a.Deliver.MeanNS <= 0 || a.Wire.MeanNS <= 0 {
		t.Fatalf("degenerate attribution: %+v", a)
	}
	sum := a.Hold.MeanNS + a.Wire.MeanNS + a.Deliver.MeanNS
	e2e := rep.Latency.MeanNS
	// The wire clamp only ever makes sum >= e2e; the hold slot's µs
	// granularity can shave up to 1µs per stamp off sum. Allow 5%.
	if diff := sum - e2e; diff < -0.05*e2e || diff > 0.05*e2e {
		t.Fatalf("attribution sum %.0fns vs e2e mean %.0fns", sum, e2e)
	}

	// Normalize drops the volatile attribution and queue sections.
	r := load.NewReport("grid-3x3", load.Config{Seed: 13}, false, []load.StepReport{rep})
	r.Normalize()
	if r.Steps[0].Attribution != nil || r.Steps[0].Queues != (load.QueueSummary{}) {
		t.Fatalf("Normalize left volatile telemetry: %+v", r.Steps[0])
	}
}

// refusingNet refuses the refuse-th Send (counting from 1) and forwards
// every other one.
type refusingNet struct {
	*msgpass.Network
	refuse, calls int
}

func (r *refusingNet) Send(src graph.ProcessID, payload string, dst graph.ProcessID) (uint64, error) {
	if r.calls++; r.calls == r.refuse {
		return 0, errors.New("refused")
	}
	return r.Network.Send(src, payload, dst)
}

// TestRefusedSendIsRolledBack: when the network refuses a Send, the open
// loop stops and the step fails on the send error alone — the entry the
// collector had marked before the refused Send is rolled back, so it is
// judged neither missing nor unknown.
func TestRefusedSendIsRolledBack(t *testing.T) {
	g := graph.Grid(2, 2)
	nw, hook := newNet(g, msgpass.Options{Seed: 3})
	defer nw.Stop()
	rep, err := load.Run(&refusingNet{Network: nw, refuse: 3}, g, hook, load.Config{
		Rate: 5000, Messages: 6, Seed: 3, DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExactlyOnce || rep.Sent != 2 || rep.Delivered != 2 {
		t.Fatalf("exactly-once %v, sent %d, delivered %d; want false, 2, 2", rep.ExactlyOnce, rep.Sent, rep.Delivered)
	}
	if want := "send of seq 2 failed: refused"; len(rep.Violations) != 1 || rep.Violations[0] != want {
		t.Fatalf("violations %q, want only %q", rep.Violations, want)
	}
}
