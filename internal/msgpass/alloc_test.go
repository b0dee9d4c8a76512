package msgpass

import (
	"sync/atomic"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// TestDeliveryPathAllocFree holds the whole receiver-side delivery path —
// offer into bufR, R2 internal move, R6 delivery through the OnDeliver
// hook, accept back on the wire — to zero steady-state allocations under
// the load generator's configuration (DiscardDeliveries). This is
// the unit-test twin of BenchmarkDeliveryHotPath; `make bench-allocs`
// gates the benchmark, this gates every plain `go test` run.
func TestDeliveryPathAllocFree(t *testing.T) {
	g := graph.Line(2)
	var got atomic.Int64
	nw := New(g, Options{
		Seed:              1,
		DiscardDeliveries: true,
		OnDeliver:         func(d Delivery) { got.Add(1) },
	})
	defer nw.tr.Close()
	n := nw.nodes[1]
	msg := transport.Message{Payload: "alloc-test-payload", UID: 7, Src: 0, Dest: 1, Valid: true}
	seq := uint64(0)
	// Warm the path once so lazily-created state (accepted/killed map
	// entries for the neighbor) exists before counting.
	seq++
	n.handleOffer(0, transport.Offer{Dest: 1, Seq: seq, Msg: msg})
	n.localMoves()
	if allocs := testing.AllocsPerRun(500, func() {
		seq++
		n.handleOffer(0, transport.Offer{Dest: 1, Seq: seq, Msg: msg})
		n.localMoves()
	}); allocs > 0 {
		t.Fatalf("delivery path allocates %.1f times per message, want 0", allocs)
	}
	if got.Load() == 0 {
		t.Fatal("delivery callback never fired")
	}
}

// TestSendHotPathAllocFree pins the sender-side wire handoff (frame-kind
// accounting + link send) to zero allocations per frame.
func TestSendHotPathAllocFree(t *testing.T) {
	g := graph.Complete(4)
	nw := New(g, Options{Seed: 1})
	defer nw.tr.Close()
	n := nw.nodes[0]
	dv := make([]int, g.N())
	if allocs := testing.AllocsPerRun(500, func() {
		n.send(1, transport.Frame{Kind: transport.KindDV, From: 0, DV: dv})
	}); allocs > 0 {
		t.Fatalf("send hot path allocates %.1f times per frame, want 0", allocs)
	}
}
