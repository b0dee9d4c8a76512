package msgpass_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

// newChaotic builds a network over a channel transport impaired by copts
// at opts.Seed; stop stops the network, then closes the wire.
func newChaotic(g *graph.Graph, opts msgpass.Options, copts transport.ChaosOptions) (nw *msgpass.Network, stop func()) {
	copts.Seed = opts.Seed
	tr := transport.NewChaos(transport.NewChan(g, transport.DefaultDepth), copts)
	opts.Transport = tr
	nw = msgpass.New(g, opts)
	return nw, func() { nw.Stop(); tr.Close() }
}

// mustSend injects a message on a network the test knows is running.
func mustSend(t *testing.T, nw *msgpass.Network, src graph.ProcessID, payload string, dst graph.ProcessID) uint64 {
	t.Helper()
	uid, err := nw.Send(src, payload, dst)
	if err != nil {
		t.Fatalf("Send(%d, %q, %d): %v", src, payload, dst, err)
	}
	return uid
}

// checkExactlyOnce fails the test if any UID in want is missing or any
// valid UID was delivered more than once.
func checkExactlyOnce(t *testing.T, nw *msgpass.Network, want map[uint64]graph.ProcessID) {
	t.Helper()
	counts := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		if d.Msg.Valid {
			counts[d.Msg.UID]++
			if wantAt, ok := want[d.Msg.UID]; !ok {
				t.Errorf("delivery of unknown UID %d", d.Msg.UID)
			} else if d.At != wantAt {
				t.Errorf("UID %d delivered at %d, want %d", d.Msg.UID, d.At, wantAt)
			}
		}
	}
	for uid := range want {
		switch counts[uid] {
		case 0:
			t.Errorf("UID %d never delivered", uid)
		case 1: // exactly once: good
		default:
			t.Errorf("UID %d delivered %d times", uid, counts[uid])
		}
	}
}

func TestSingleMessageDelivered(t *testing.T) {
	g := graph.Line(4)
	nw := msgpass.New(g, msgpass.Options{Seed: 1})
	nw.Start()
	defer nw.Stop()
	uid := mustSend(t, nw, 0, "hello", 3)
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("message not delivered in time")
	}
	checkExactlyOnce(t, nw, map[uint64]graph.ProcessID{uid: 3})
}

func TestSelfSend(t *testing.T) {
	g := graph.Line(3)
	nw := msgpass.New(g, msgpass.Options{Seed: 2})
	nw.Start()
	defer nw.Stop()
	uid := mustSend(t, nw, 1, "me", 1)
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("self-send not delivered")
	}
	checkExactlyOnce(t, nw, map[uint64]graph.ProcessID{uid: 1})
}

// TestSendWakesNode: with a tick that never fires during the test and no
// frame to react to, only Send's wake can get the message through R1.
func TestSendWakesNode(t *testing.T) {
	nw := msgpass.New(graph.Line(2), msgpass.Options{Seed: 2, Tick: time.Minute})
	nw.Start()
	defer nw.Stop()
	uid := mustSend(t, nw, 0, "woken", 0)
	if !nw.WaitDelivered(1, time.Second) {
		t.Fatal("self-send not delivered within 1s: Send did not wake the node")
	}
	checkExactlyOnce(t, nw, map[uint64]graph.ProcessID{uid: 0})
}

// TestStartAddsOneGoroutinePerNode: over the channel transport a node
// reads its inbox itself, so Start adds one goroutine per node and no
// per-link forwarding stage.
func TestStartAddsOneGoroutinePerNode(t *testing.T) {
	g := graph.Grid(4, 4)
	nw := msgpass.New(g, msgpass.Options{Seed: 3})
	// A node goroutine of an earlier test may still be between its
	// stopped network's Wait and its exit; it would leave the count
	// below.
	requireNoNodeGoroutines(t)
	before := msgpassGoroutines()
	nw.Start()
	defer nw.Stop()
	if got := msgpassGoroutines() - before; got != g.N() {
		t.Fatalf("Start added %d goroutines, want %d (one per node)", got, g.N())
	}
}

// msgpassGoroutines counts the live goroutines this package started.
// Counting by creator keeps goroutines of earlier tests that are still
// winding down (a closed chaos dispatcher, say) out of the figure.
func msgpassGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by ssmfp/internal/msgpass.")
}

func TestManyMessagesExactlyOnce(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := msgpass.New(g, msgpass.Options{Seed: 3})
	nw.Start()
	defer nw.Stop()
	want := make(map[uint64]graph.ProcessID)
	k := 0
	for src := 0; src < g.N(); src++ {
		for off := 1; off <= 3; off++ {
			dst := graph.ProcessID((src + off) % g.N())
			uid := mustSend(t, nw, graph.ProcessID(src), fmt.Sprintf("m%d", k), dst)
			want[uid] = dst
			k++
		}
	}
	if !nw.WaitDelivered(k, 30*time.Second) {
		t.Fatalf("only %d/%d delivered", len(nw.Deliveries()), k)
	}
	checkExactlyOnce(t, nw, want)
}

func TestLossyLinksStillExactlyOnce(t *testing.T) {
	g := graph.Ring(6)
	nw, stop := newChaotic(g, msgpass.Options{Seed: 4}, transport.ChaosOptions{LossRate: 0.3})
	nw.Start()
	defer stop()
	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		dst := graph.ProcessID((src + 3) % g.N())
		uid := mustSend(t, nw, graph.ProcessID(src), fmt.Sprintf("lossy%d", src), dst)
		want[uid] = dst
	}
	if !nw.WaitDelivered(len(want), 60*time.Second) {
		t.Fatalf("only %d/%d delivered under loss", len(nw.Deliveries()), len(want))
	}
	checkExactlyOnce(t, nw, want)
}

func TestCorruptInitialStateStillDelivers(t *testing.T) {
	g := graph.Grid(2, 3)
	nw := msgpass.New(g, msgpass.Options{Seed: 5, CorruptInit: true})
	nw.Start()
	defer nw.Stop()
	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		dst := graph.ProcessID((src + 2) % g.N())
		uid := mustSend(t, nw, graph.ProcessID(src), fmt.Sprintf("c%d", src), dst)
		want[uid] = dst
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		valid := 0
		for _, d := range nw.Deliveries() {
			if d.Msg.Valid {
				valid++
			}
		}
		if valid >= len(want) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	checkExactlyOnce(t, nw, want)
	// Invalid planted messages must never be delivered more than once each.
	invCount := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		if !d.Msg.Valid {
			invCount[d.Msg.UID]++
			if invCount[d.Msg.UID] > 1 {
				t.Fatalf("invalid UID %d delivered %d times", d.Msg.UID, invCount[d.Msg.UID])
			}
		}
	}
}

func TestStopTerminates(t *testing.T) {
	g := graph.Ring(5)
	nw := msgpass.New(g, msgpass.Options{Seed: 6})
	nw.Start()
	nw.Send(0, "x", 2)
	done := make(chan struct{})
	go func() {
		nw.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not terminate the goroutines")
	}
}

func TestStoppedNetworkGuards(t *testing.T) {
	// Long-running load drivers race Send/WaitDelivered against shutdown;
	// the stopped network must answer with errors, not panics or stalls.
	g := graph.Line(3)
	nw := msgpass.New(g, msgpass.Options{Seed: 8})
	nw.Start()
	mustSend(t, nw, 0, "before-stop", 2)
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("pre-stop message not delivered")
	}
	nw.Stop()
	nw.Stop() // idempotent: a second Stop must not panic
	if _, err := nw.Send(0, "after-stop", 2); err != msgpass.ErrStopped {
		t.Fatalf("Send after Stop: err = %v, want ErrStopped", err)
	}
	start := time.Now()
	if nw.WaitDelivered(2, 30*time.Second) {
		t.Fatal("WaitDelivered reported an impossible second delivery")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitDelivered blocked %v on a stopped network", elapsed)
	}
	// Thresholds already met keep reporting true after Stop.
	if !nw.WaitDelivered(1, time.Millisecond) {
		t.Fatal("WaitDelivered lost the recorded delivery after Stop")
	}
}

func TestOnDeliverHookObservesDeliveries(t *testing.T) {
	g := graph.Line(4)
	var mu sync.Mutex
	var got []msgpass.Delivery
	nw := msgpass.New(g, msgpass.Options{Seed: 9, OnDeliver: func(d msgpass.Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}})
	nw.Start()
	defer nw.Stop()
	before := time.Now()
	uid := mustSend(t, nw, 0, "hooked", 3)
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("message not delivered in time")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Msg.UID != uid || got[0].At != 3 {
		t.Fatalf("hook observed %+v, want one delivery of uid %d at 3", got, uid)
	}
	if got[0].Time.Before(before) || got[0].Time.After(time.Now()) {
		t.Fatalf("delivery timestamp %v outside the test window", got[0].Time)
	}
}

func TestWaitDeliveredTimesOut(t *testing.T) {
	g := graph.Line(2)
	nw := msgpass.New(g, msgpass.Options{Seed: 7})
	nw.Start()
	defer nw.Stop()
	if nw.WaitDelivered(1, 20*time.Millisecond) {
		t.Fatal("nothing was sent; WaitDelivered should time out")
	}
}

func TestStatsCountRetransmissionsUnderLoss(t *testing.T) {
	g := graph.Line(5)
	nw, stop := newChaotic(g, msgpass.Options{Seed: 12}, transport.ChaosOptions{LossRate: 0.4})
	nw.Start()
	defer stop()
	uid := mustSend(t, nw, 0, "lossy-road", 4)
	if !nw.WaitDelivered(1, 60*time.Second) {
		t.Fatal("not delivered despite retransmission")
	}
	checkExactlyOnce(t, nw, map[uint64]graph.ProcessID{uid: 4})
	st := nw.Stats()
	if st.Wire.DroppedImpair == 0 {
		t.Fatal("40% loss must have dropped frames")
	}
	// 4 hops needed; with 40% loss the offer count must exceed the hop
	// count (retransmissions happened).
	if st.OffersSent <= 4 {
		t.Fatalf("offers = %d; expected retransmissions beyond the 4 hops", st.OffersSent)
	}
	if st.AcceptsSent == 0 || st.DVSent == 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
}

func TestCancelsHappenUnderCorruptRouting(t *testing.T) {
	// With corrupted initial routing, the distance vector retargets
	// in-flight offers; the cancel machinery must actually engage in at
	// least some seeds (this exercises the retarget path end to end). A
	// millisecond of wire latency keeps each offer outstanding while the
	// first distance vectors land; on an instant wire a message can finish
	// its hops before routing moves at all.
	sawCancel := false
	for seed := int64(0); seed < 12 && !sawCancel; seed++ {
		g := graph.Ring(6)
		nw, stop := newChaotic(g, msgpass.Options{Seed: seed, CorruptInit: true}, transport.ChaosOptions{Latency: time.Millisecond})
		nw.Start()
		for p := 0; p < g.N(); p++ {
			nw.Send(graph.ProcessID(p), "c", graph.ProcessID((p+3)%g.N()))
		}
		nw.WaitDelivered(g.N(), 30*time.Second)
		if nw.Stats().CancelsSent > 0 {
			sawCancel = true
		}
		stop()
	}
	if !sawCancel {
		t.Fatal("no seed exercised the cancel path — retargeting never happened?")
	}
}

// BenchmarkLiveThroughput measures end-to-end messages/second of the
// message-passing port on a clean 3×3 grid (antipodal permutation).
func BenchmarkLiveThroughput(b *testing.B) {
	g := graph.Grid(3, 3)
	nw := msgpass.New(g, msgpass.Options{Seed: 1})
	nw.Start()
	defer nw.Stop()
	sent := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := graph.ProcessID(i % g.N())
		nw.Send(src, "bench", graph.ProcessID((i+4)%g.N()))
		sent++
	}
	if !nw.WaitDelivered(sent, 120*time.Second) {
		b.Fatalf("only %d/%d delivered", len(nw.Deliveries()), sent)
	}
}

func TestDuplicatingLinksStillExactlyOnce(t *testing.T) {
	// Links that both lose AND duplicate frames: the per-hop sequence
	// numbers must absorb duplicates while retransmission absorbs losses.
	g := graph.Ring(6)
	nw, stop := newChaotic(g, msgpass.Options{Seed: 13}, transport.ChaosOptions{LossRate: 0.15, DupRate: 0.3})
	nw.Start()
	defer stop()
	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		dst := graph.ProcessID((src + 2) % g.N())
		uid := mustSend(t, nw, graph.ProcessID(src), fmt.Sprintf("dup%d", src), dst)
		want[uid] = dst
	}
	if !nw.WaitDelivered(len(want), 60*time.Second) {
		t.Fatalf("only %d/%d delivered under dup+loss", len(nw.Deliveries()), len(want))
	}
	checkExactlyOnce(t, nw, want)
}

func TestQueueDepthsSnapshot(t *testing.T) {
	g := graph.Line(3)
	nw := msgpass.New(g, msgpass.Options{Seed: 6})
	// Before Start the pending queue is visible immediately.
	nw.Send(0, "queued", 2)
	qd := nw.QueueDepths()
	if len(qd) != 3 {
		t.Fatalf("depths for %d nodes, want 3", len(qd))
	}
	if qd[0].Proc != 0 || qd[0].Pending != 1 {
		t.Fatalf("node 0 depth = %+v, want pending 1", qd[0])
	}
	nw.Start()
	defer nw.Stop()
	if !nw.WaitDelivered(1, 10*time.Second) {
		t.Fatal("message not delivered in time")
	}
	// Drained: no pending sends remain anywhere.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, q := range nw.QueueDepths() {
			total += q.Pending
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending queues never drained: %+v", nw.QueueDepths())
		}
		time.Sleep(time.Millisecond)
	}
}
