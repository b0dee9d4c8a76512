package msgpass

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// TestTelemetryEndToEnd runs a live 4-ring under a shared registry and
// checks the protocol series a scrape would see: sends and deliveries
// count exactly, frame counters agree with Stats(), buffer gauges carry
// event-driven peaks, and every attribution component histogram saw the
// traffic.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.New()
	g := graph.Ring(4)
	nw := New(g, Options{Seed: 7, Tick: 100 * time.Microsecond, Telemetry: reg})
	nw.Start()
	defer nw.Stop()

	const msgs = 20
	for i := 0; i < msgs; i++ {
		src := graph.ProcessID(i % 4)
		dst := graph.ProcessID((i + 2) % 4)
		if _, err := nw.Send(src, "m"+strconv.Itoa(i), dst); err != nil {
			t.Fatal(err)
		}
	}
	if !nw.WaitDelivered(msgs, 10*time.Second) {
		t.Fatalf("only %d/%d delivered", nw.Delivered(), msgs)
	}
	// Stop before comparing: the nodes keep gossiping, so two reads of a
	// live counter can differ by the frames sent in between.
	nw.Stop()

	if v, _ := reg.Value(telemetry.SeriesSends); v != msgs {
		t.Fatalf("sends series = %d, want %d", v, msgs)
	}
	if v, _ := reg.Value(telemetry.SeriesDeliveries); int(v) != nw.Delivered() {
		t.Fatalf("deliveries series = %d, Delivered() = %d", v, nw.Delivered())
	}
	if v := reg.SumValues(telemetry.SeriesInvalidDeliveries); v != 0 {
		t.Fatalf("invalid deliveries on a clean run: %d", v)
	}
	if v := reg.SumValues(telemetry.SeriesPhantomDeliveries); v != 0 {
		t.Fatalf("phantom deliveries on a clean run: %d", v)
	}

	// Frame counters: the registry and Stats() read the same atomics.
	st := nw.Stats()
	checks := []struct {
		kind string
		want int
	}{{"dv", st.DVSent}, {"offer", st.OffersSent}, {"accept", st.AcceptsSent}}
	for _, c := range checks {
		v, ok := reg.Value(telemetry.SeriesFramesSent, telemetry.L("kind", c.kind))
		if !ok || int(v) != c.want {
			t.Fatalf("frames{kind=%q} = %d (ok=%v), Stats says %d", c.kind, v, ok, c.want)
		}
	}
	if st.OffersSent == 0 || st.DVSent == 0 {
		t.Fatal("no offers or no DV gossip on a delivering network")
	}

	// Every message occupied some bufR and bufE along the way: the
	// event-driven peaks must have registered even though the network is
	// idle again by now.
	if p := reg.MaxPeak(telemetry.SeriesBufOccupancy); p < 1 {
		t.Fatalf("bufR/bufE peak = %d after %d deliveries", p, msgs)
	}
	if p := reg.MaxPeak(telemetry.SeriesPending); p < 1 {
		t.Fatalf("pending peak = %d after %d sends", p, msgs)
	}

	// Attribution: every delivery crossed R1 (queued) and R6 (deliver).
	for _, comp := range []string{"queued", "deliver"} {
		h, ok := reg.HistSnapshot(telemetry.SeriesLatencyComponent, telemetry.L("component", comp))
		if !ok || h.Count() == 0 {
			t.Fatalf("latency component %q empty (ok=%v)", comp, ok)
		}
	}

	// Wire series mirror the transport counters.
	if v, _ := reg.Value(telemetry.SeriesWireFramesSent); uint64(v) != nw.Stats().Wire.FramesSent {
		t.Fatalf("wire frames series %d != transport %d", v, nw.Stats().Wire.FramesSent)
	}
	if v, _ := reg.Value(telemetry.SeriesWireBytesSent); v == 0 {
		t.Fatal("wire bytes series zero — chan backend not counting encoded bytes")
	}
	// Per-link series exist for every directed local link.
	if v := reg.SumValues(telemetry.SeriesLinkFramesSent); uint64(v) != nw.Stats().Wire.FramesSent {
		t.Fatalf("per-link frames sum %d != transport total %d", v, nw.Stats().Wire.FramesSent)
	}
}

// TestHoldStampAtR1 pins the HoldStamp contract: the hook fires at R1
// acceptance with the enqueue wait, and its rewritten payload is what the
// protocol forwards and finally delivers.
func TestHoldStampAtR1(t *testing.T) {
	var mu sync.Mutex
	var waits []int64
	nw := New(graph.Line(2), Options{
		Seed: 1,
		Tick: 100 * time.Microsecond,
		HoldStamp: func(payload string, waitNanos int64) (string, bool) {
			mu.Lock()
			waits = append(waits, waitNanos)
			mu.Unlock()
			return payload + "+stamped", true
		},
	})
	nw.Start()
	defer nw.Stop()
	if _, err := nw.Send(0, "p", 1); err != nil {
		t.Fatal(err)
	}
	if !nw.WaitDelivered(1, 5*time.Second) {
		t.Fatal("not delivered")
	}
	ds := nw.Deliveries()
	if len(ds) != 1 || ds[0].Msg.Payload != "p+stamped" {
		t.Fatalf("delivered payload %q, want the HoldStamp rewrite", ds[0].Msg.Payload)
	}
	if ds[0].DeliverWaitNS < 0 {
		t.Fatalf("DeliverWaitNS = %d", ds[0].DeliverWaitNS)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 1 || waits[0] < 0 {
		t.Fatalf("HoldStamp calls %v, want exactly one non-negative wait", waits)
	}
}

// TestParkTelemetry drives the deterministic congested-hop scenario from
// park_test.go and checks its telemetry shadow: a park event, a park-wait
// observation on acceptance, an eviction counter on cancel, and the
// parked gauge returning to zero.
func TestParkTelemetry(t *testing.T) {
	reg := telemetry.New()
	nw := New(graph.Line(3), Options{Seed: 1, DiscardDeliveries: true, Telemetry: reg})
	defer nw.tr.Close()
	n := nw.nodes[1]

	n.handleOffer(0, offer(1, "first"))
	n.handleOffer(0, offer(2, "second")) // bufR occupied: parks
	if v, _ := reg.Value(telemetry.SeriesParkEvents); v != 1 {
		t.Fatalf("park events = %d, want 1", v)
	}
	if v := reg.SumValues(telemetry.SeriesParked); v != 1 {
		t.Fatalf("parked gauge sum = %d, want 1", v)
	}
	n.handleOffer(0, offer(2, "second")) // retransmit refresh: no new event
	if v, _ := reg.Value(telemetry.SeriesParkEvents); v != 1 {
		t.Fatalf("park events after refresh = %d, want 1", v)
	}
	n.localMoves() // frees bufR, accepts the parked offer
	if v := reg.SumValues(telemetry.SeriesParked); v != 0 {
		t.Fatalf("parked gauge after unpark = %d, want 0", v)
	}
	h, ok := reg.HistSnapshot(telemetry.SeriesLatencyComponent, telemetry.L("component", "park"))
	if !ok || h.Count() != 1 {
		t.Fatalf("park component count = %d (ok=%v), want 1", h.Count(), ok)
	}

	// A third offer parks; a cancel evicts it.
	n.handleOffer(0, offer(3, "third"))
	n.handleOffer(0, offer(4, "fourth"))
	n.handleCancel(0, transport.Ack{Dest: 2, Seq: 4})
	if v, _ := reg.Value(telemetry.SeriesParkEvictions); v != 1 {
		t.Fatalf("park evictions = %d, want 1", v)
	}
	if v := reg.SumValues(telemetry.SeriesParked); v != 0 {
		t.Fatalf("parked gauge after eviction = %d, want 0", v)
	}
}

// TestWatermarkViolationTelemetry: an ack for a sequence this node never
// issued is counted as a stabilization-health signal (and otherwise
// ignored, as before).
func TestWatermarkViolationTelemetry(t *testing.T) {
	reg := telemetry.New()
	nw := New(graph.Line(2), Options{Seed: 1, Telemetry: reg})
	defer nw.tr.Close()
	n := nw.nodes[0]
	n.handleAccept(1, transport.Ack{Dest: 1, Seq: 999})
	n.handleCancelAck(1, transport.Ack{Dest: 1, Seq: 999})
	if v, _ := reg.Value(telemetry.SeriesWatermarkViolations); v != 2 {
		t.Fatalf("watermark violations = %d, want 2", v)
	}
}

// TestQueueDepthsPendingMatchesBreakdown snapshots a running network
// over and over while sends flow and R1 drains them: every row's Pending
// must equal the sum of its PendingByDest, i.e. both come from one read.
func TestQueueDepthsPendingMatchesBreakdown(t *testing.T) {
	nw := New(graph.Ring(4), Options{Seed: 1})
	nw.Start()
	defer nw.Stop()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 400; i++ {
			src := graph.ProcessID(i % 4)
			if _, err := nw.Send(src, "q", (src+2)%4); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for snaps := 0; ; snaps++ {
		for _, q := range nw.QueueDepths() {
			sum := 0
			for _, c := range q.PendingByDest {
				sum += c
			}
			if q.Pending != sum {
				t.Fatalf("snapshot %d: proc %d Pending=%d but PendingByDest %v sums to %d",
					snaps, q.Proc, q.Pending, q.PendingByDest, sum)
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}

// TestQueueDepthsParkedAndPendingByDest: the cold-path occupancy snapshot
// carries the new parked count and the per-destination pending breakdown.
func TestQueueDepthsParkedAndPendingByDest(t *testing.T) {
	// Huge tick: nothing moves until localMoves is driven by hand, so the
	// pending rings stay populated for the snapshot.
	nw := New(graph.Line(3), Options{Seed: 1, Tick: time.Hour})
	defer nw.tr.Close()
	for i := 0; i < 3; i++ {
		if _, err := nw.Send(0, "a", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Send(0, "b", 2); err != nil {
		t.Fatal(err)
	}
	n1 := nw.nodes[1]
	n1.handleOffer(0, offer(1, "x"))
	n1.handleOffer(0, offer(2, "y")) // parks

	var q0, q1 *QueueDepth
	for i, q := range nw.QueueDepths() {
		switch q.Proc {
		case 0:
			q0 = &nw.QueueDepths()[i]
		case 1:
			q1 = &nw.QueueDepths()[i]
		}
	}
	if q0 == nil || q1 == nil {
		t.Fatal("missing queue depth rows")
	}
	if q0.Pending != 4 || q0.PendingByDest[1] != 3 || q0.PendingByDest[2] != 1 {
		t.Fatalf("node 0 pending breakdown wrong: %+v", q0)
	}
	if q1.Parked != 1 || q1.BufR != 1 {
		t.Fatalf("node 1 parked/bufR wrong: %+v", q1)
	}
	if q0.PendingByDest == nil || q1.PendingByDest != nil {
		t.Fatalf("PendingByDest presence wrong: q0=%v q1=%v", q0.PendingByDest, q1.PendingByDest)
	}
}
