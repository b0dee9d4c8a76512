package msgpass

import (
	"sync/atomic"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// BenchmarkSendHotPathParallel hammers the wire hot path (frame-kind
// accounting + link handoff) from many goroutines at once — the pattern
// a running deployment produces, where every worker goroutine crosses this
// path once or twice per frame. Before the kind counters became atomics
// this path took the network-wide mutex once or twice per frame; on this
// benchmark the lock's removal cut the contended cost from ~64 ns/op to
// ~29 ns/op on 8 hardware threads.
func BenchmarkSendHotPathParallel(b *testing.B) {
	g := graph.Complete(8)
	nw := New(g, Options{Seed: 1})
	defer nw.tr.Close()
	n := nw.nodes[0]
	dv := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer() // construction-time registry setup is not the hot path
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.send(1, transport.Frame{Kind: transport.KindDV, From: 0, DV: dv})
		}
	})
}

// BenchmarkDeliveryHotPath drives the full receiver-side delivery path —
// offer handling into bufR, the R2 internal move, the R6 delivery with
// its OnDeliver callback, and the accept going back on the wire — on an
// unstarted two-node network, the way a worker goroutine runs it. With
// DiscardDeliveries set (the load generator's configuration) the path
// must be allocation-free in steady state: `make bench-allocs` gates on
// this benchmark reporting 0 allocs/op.
func BenchmarkDeliveryHotPath(b *testing.B) {
	g := graph.Line(2)
	var got atomic.Int64
	nw := New(g, Options{
		Seed:              1,
		DiscardDeliveries: true,
		OnDeliver:         func(d Delivery) { got.Add(1) },
	})
	defer nw.tr.Close()
	n := nw.nodes[1]
	msg := transport.Message{Payload: "bench-payload", UID: 7, Src: 0, Dest: 1, Valid: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.handleOffer(0, transport.Offer{Dest: 1, Seq: uint64(i + 1), Msg: msg})
		n.localMoves()
	}
	b.StopTimer()
	// The pipeline runs one iteration behind (R2 stages what the next
	// loop's R6 delivers); flush the last message before checking.
	n.localMoves()
	if got.Load() != int64(b.N) {
		b.Fatalf("%d deliveries for %d offers", got.Load(), b.N)
	}
}
