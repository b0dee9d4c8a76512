package msgpass_test

import (
	"errors"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
)

// joinEpoch returns epoch 1 of a Line(3) deployment: slot 3 joins with
// links to both ends of the line.
func joinEpoch(t *testing.T) msgpass.Epoch {
	t.Helper()
	topo := graph.NewTopology(graph.Line(3))
	topo.AddNode()
	for _, q := range []graph.ProcessID{0, 2} {
		if err := topo.AddEdge(3, q); err != nil {
			t.Fatal(err)
		}
	}
	g, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	return msgpass.Epoch{Seq: 1, Graph: g}
}

// requireNoWorkerGoroutines fails unless every goroutine this package
// started is gone. Stop has waited for them all; the grace period only
// covers a goroutine between its last deferred call and its exit.
func requireNoWorkerGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for msgpassGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines still running after Stop", msgpassGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopStopAfterJoin: the workers a join epoch starts are stopped by
// Stop like the ones Start started.
func TestLoopStopAfterJoin(t *testing.T) {
	nw := msgpass.New(graph.Line(3), msgpass.Options{Seed: 7})
	nw.Start()
	if err := nw.ApplyEpoch(joinEpoch(t)); err != nil {
		t.Fatalf("ApplyEpoch: %v", err)
	}
	mustSend(t, nw, 3, "joined", 1)
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("joiner's message not delivered")
	}
	nw.Stop()
	requireNoWorkerGoroutines(t)
}

// TestLoopStopRacesEpoch runs Stop against a concurrent join epoch: the
// epoch either lands first (and its fresh workers are stopped) or finds
// the network stopped; either way no goroutine outlives Stop.
func TestLoopStopRacesEpoch(t *testing.T) {
	e := joinEpoch(t)
	for i := 0; i < 20; i++ {
		nw := msgpass.New(graph.Line(3), msgpass.Options{Seed: int64(i)})
		nw.Start()
		errc := make(chan error, 1)
		go func() { errc <- nw.ApplyEpoch(e) }()
		if i%2 == 0 {
			time.Sleep(time.Duration(i) * 10 * time.Microsecond)
		}
		nw.Stop()
		if err := <-errc; err != nil && !errors.Is(err, msgpass.ErrStopped) {
			t.Fatalf("ApplyEpoch racing Stop: %v", err)
		}
		requireNoWorkerGoroutines(t)
	}
}
