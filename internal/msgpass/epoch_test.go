package msgpass

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// uidLog collects delivered UIDs and flags duplicates — the exactly-once
// oracle for the elastic tests.
type uidLog struct {
	mu   sync.Mutex
	seen map[uint64]int
}

func newUIDLog() *uidLog { return &uidLog{seen: make(map[uint64]int)} }

func (l *uidLog) hook(d Delivery) {
	l.mu.Lock()
	l.seen[d.Msg.UID]++
	l.mu.Unlock()
}

func (l *uidLog) check(t *testing.T, sent map[uint64]bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for uid := range sent {
		switch c := l.seen[uid]; {
		case c == 0:
			t.Errorf("uid %d lost (never delivered)", uid)
		case c > 1:
			t.Errorf("uid %d delivered %d times", uid, c)
		}
	}
}

func mustBuild(t *testing.T, topo *graph.Topology) *graph.Graph {
	t.Helper()
	g, err := topo.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestEpochJoinNode(t *testing.T) {
	log := newUIDLog()
	nw := New(graph.Line(3), Options{Seed: 7, OnDeliver: log.hook})
	nw.Start()
	defer nw.Stop()

	sent := make(map[uint64]bool)
	uid, err := nw.Send(0, "pre-join", 2)
	if err != nil {
		t.Fatal(err)
	}
	sent[uid] = true
	if !nw.WaitDelivered(1, 5*time.Second) {
		t.Fatal("pre-join message not delivered")
	}

	// Slot 3 joins with links to both ends of the line.
	topo := graph.NewTopology(graph.Line(3))
	if p := topo.AddNode(); p != 3 {
		t.Fatalf("AddNode = %d", p)
	}
	for _, q := range []graph.ProcessID{0, 2} {
		if err := topo.AddEdge(3, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("ApplyEpoch: %v", err)
	}
	if got := nw.CurrentEpoch(); got != 1 {
		t.Fatalf("CurrentEpoch = %d, want 1", got)
	}

	// Traffic to and from the joiner must flow once routing converges.
	for _, sd := range [][2]graph.ProcessID{{0, 3}, {3, 1}, {2, 3}, {3, 0}} {
		uid, err := nw.Send(sd[0], "post-join", sd[1])
		if err != nil {
			t.Fatalf("Send %d->%d: %v", sd[0], sd[1], err)
		}
		sent[uid] = true
	}
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("joiner traffic stalled: %d/%d delivered", nw.Delivered(), len(sent))
	}
	log.check(t, sent)

	// A stale or duplicate epoch push must be refused.
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: nw.Graph()}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch err = %v, want ErrStaleEpoch", err)
	}
}

func TestEpochGracefulLinkCut(t *testing.T) {
	log := newUIDLog()
	nw := New(graph.Ring(4), Options{Seed: 11, OnDeliver: log.hook})
	nw.Start()
	defer nw.Stop()

	sent := make(map[uint64]bool)
	send := func(src, dst graph.ProcessID) {
		t.Helper()
		uid, err := nw.Send(src, "x", dst)
		if err != nil {
			t.Fatalf("Send %d->%d: %v", src, dst, err)
		}
		sent[uid] = true
	}
	for i := 0; i < 8; i++ {
		send(1, 2)
		send(2, 1)
	}

	// Phase one: disable the edge for routing; the wire stays up so the
	// outstanding handshakes complete.
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: graph.Ring(4), Disabled: [][2]graph.ProcessID{{1, 2}}}); err != nil {
		t.Fatalf("disable epoch: %v", err)
	}
	for i := 0; i < 8; i++ {
		send(1, 2) // must route the long way now
	}
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("traffic stalled under disabled edge: %d/%d", nw.Delivered(), len(sent))
	}

	// Phase two: the edge quiesced (everything delivered), remove it.
	topo := graph.NewTopology(graph.Ring(4))
	if err := topo.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 2, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("cut epoch: %v", err)
	}
	for i := 0; i < 8; i++ {
		send(2, 1)
	}
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("traffic stalled after cut: %d/%d", nw.Delivered(), len(sent))
	}
	log.check(t, sent)
}

// TestEpochDropsFrameQueuedOverCutEdge: an offer from 0 already queued in
// 1's inbox when an epoch cuts edge 0-1 reaches handle after the cut and
// is dropped there — 0 is no longer a neighbor, so 1 must not store it.
func TestEpochDropsFrameQueuedOverCutEdge(t *testing.T) {
	tr := transport.NewChan(graph.Ring(4), 0)
	nw := New(graph.Ring(4), Options{Seed: 5, Transport: tr, Tick: time.Minute})
	stale := tr.Link(0, 1)
	stale.Send(transport.Frame{Kind: transport.KindOffer, From: 0, Offer: transport.Offer{
		Dest: 2, Seq: 1, Msg: Message{Payload: "stale", UID: 99, Src: 0, Dest: 2, Valid: true},
	}})

	topo := graph.NewTopology(graph.Ring(4))
	if err := topo.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("cut epoch: %v", err)
	}
	nw.Start()
	defer nw.Stop()
	for deadline := time.Now().Add(5 * time.Second); len(stale.Recv()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("node 1 never read its inbox")
		}
	}
	var ds destState
	nw.inspect(func() { ds = nw.nodes[1].dests[2] })
	if ds.hasR || ds.hasE || ds.accepted[0] != 0 {
		t.Fatalf("stale offer over the cut edge was stored: hasR=%v hasE=%v accepted[0]=%d", ds.hasR, ds.hasE, ds.accepted[0])
	}
	if st := nw.Stats(); st.AcceptsSent != 0 {
		t.Fatalf("node 1 acknowledged the stale offer (%d accepts sent)", st.AcceptsSent)
	}
}

// TestEpochForcedCutSettlesStoredOffer: the target of 0's offer stored
// it, and its accept is still queued at 0 when an epoch cuts the edge.
// 0 must erase its copy at the barrier rather than offer it again on
// another route, which would deliver the message twice.
func TestEpochForcedCutSettlesStoredOffer(t *testing.T) {
	nw := New(graph.Ring(4), Options{Seed: 9})
	if _, err := nw.Send(0, "x", 2); err != nil {
		t.Fatal(err)
	}
	src := nw.nodes[0]
	src.localMoves() // R1, R2 and the first offer, by hand: nothing runs yet
	q := src.dests[2].offerTarget
	if !src.dests[2].hasE || src.dests[2].offerSeq == 0 {
		t.Fatal("no offer outstanding at 0")
	}
	nw.nodes[q].handle(<-nw.nodes[q].inbox) // q stores it and queues the accept at 0

	topo := graph.NewTopology(graph.Ring(4))
	if err := topo.RemoveEdge(0, q); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("cut epoch: %v", err)
	}
	if src.dests[2].hasE {
		t.Fatal("0 still holds the message its cut neighbor stored: it would be offered twice")
	}
	nw.Start()
	defer nw.Stop()
	if !nw.WaitDelivered(1, 5*time.Second) {
		t.Fatal("message not delivered after the cut")
	}
}

// TestEpochGrowsOneNodeDeployment: a lone processor has no link and so
// no inbox; the epoch that gives it a neighbor must hand it one.
func TestEpochGrowsOneNodeDeployment(t *testing.T) {
	nw := New(graph.Line(1), Options{Seed: 1})
	nw.Start()
	defer nw.Stop()
	topo := graph.NewTopology(graph.Line(1))
	if err := topo.AddEdge(0, topo.AddNode()); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("grow epoch: %v", err)
	}
	for _, sd := range [][2]graph.ProcessID{{0, 1}, {1, 0}} {
		if _, err := nw.Send(sd[0], "x", sd[1]); err != nil {
			t.Fatalf("Send %d->%d: %v", sd[0], sd[1], err)
		}
	}
	if !nw.WaitDelivered(2, 5*time.Second) {
		t.Fatalf("only %d/2 delivered across the new edge", nw.Delivered())
	}
}

func TestEpochDrainAndDetach(t *testing.T) {
	log := newUIDLog()
	nw := New(graph.Ring(4), Options{Seed: 13, OnDeliver: log.hook})
	nw.Start()
	defer nw.Stop()

	sent := make(map[uint64]bool)
	for i := 0; i < 6; i++ {
		uid, err := nw.Send(0, "to-drainer", 3)
		if err != nil {
			t.Fatal(err)
		}
		sent[uid] = true
		uid, err = nw.Send(3, "from-drainer", 1)
		if err != nil {
			t.Fatal(err)
		}
		sent[uid] = true
	}

	// Drain 3: no new injections there, in-flight work completes.
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: graph.Ring(4), Draining: []graph.ProcessID{3}}); err != nil {
		t.Fatalf("drain epoch: %v", err)
	}
	if !nw.Draining(3) {
		t.Fatal("Draining(3) = false after drain epoch")
	}
	if _, err := nw.Send(3, "rejected", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("Send at draining node: err = %v, want ErrDraining", err)
	}
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("drain traffic stalled: %d/%d", nw.Delivered(), len(sent))
	}
	// Quiescence: the drainer holds nothing, and nothing anywhere is still
	// addressed to it.
	deadline := time.Now().Add(5 * time.Second)
	for !nw.Quiesced(3) || nw.InFlightFor(3) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node 3 never quiesced: quiesced=%v inflight=%d", nw.Quiesced(3), nw.InFlightFor(3))
		}
		time.Sleep(time.Millisecond)
	}

	// Detach: remove 3, heal the ring around it.
	topo := graph.NewTopology(graph.Ring(4))
	if err := topo.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 2, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("detach epoch: %v", err)
	}
	if _, err := nw.Send(3, "gone", 0); !errors.Is(err, ErrNotLocal) {
		t.Fatalf("Send at detached node: err = %v, want ErrNotLocal", err)
	}
	if _, err := nw.Send(0, "unroutable", 3); !errors.Is(err, ErrNotMember) {
		t.Fatalf("Send to detached node: err = %v, want ErrNotMember", err)
	}
	if got := len(nw.Members()); got != 3 {
		t.Fatalf("members after detach = %d, want 3", got)
	}

	// The survivors still deliver.
	uid, err := nw.Send(0, "post-detach", 2)
	if err != nil {
		t.Fatal(err)
	}
	sent[uid] = true
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("post-detach traffic stalled: %d/%d", nw.Delivered(), len(sent))
	}
	log.check(t, sent)

	// Re-admission: slot 3 comes back as a fresh incarnation.
	if err := topo.AddNodeID(3); err != nil {
		t.Fatal(err)
	}
	for _, q := range []graph.ProcessID{0, 2} {
		if err := topo.AddEdge(3, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 3, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatalf("rejoin epoch: %v", err)
	}
	uid, err = nw.Send(1, "to-rejoined", 3)
	if err != nil {
		t.Fatal(err)
	}
	sent[uid] = true
	uid, err = nw.Send(3, "from-rejoined", 0)
	if err != nil {
		t.Fatal(err)
	}
	sent[uid] = true
	if !nw.WaitDelivered(len(sent), 10*time.Second) {
		t.Fatalf("rejoin traffic stalled: %d/%d", nw.Delivered(), len(sent))
	}
	log.check(t, sent)
}

// TestEpochUnderLoad churns the topology while a sender hammers the
// network, asserting exactly-once across every transition — the in-process
// miniature of the spawn judge's churn scenario.
func TestEpochUnderLoad(t *testing.T) {
	log := newUIDLog()
	nw := New(graph.Ring(5), Options{Seed: 17, OnDeliver: log.hook})
	nw.Start()
	defer nw.Stop()

	var mu sync.Mutex
	sent := make(map[uint64]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for src := 0; src < 3; src++ {
		wg.Add(1)
		go func(src graph.ProcessID) {
			defer wg.Done()
			dst := graph.ProcessID((int(src) + 2) % 5)
			for {
				select {
				case <-stop:
					return
				default:
				}
				uid, err := nw.Send(src, "churn", dst)
				if err == nil {
					mu.Lock()
					sent[uid] = true
					mu.Unlock()
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(graph.ProcessID(src))
	}

	topo := graph.NewTopology(graph.Ring(5))
	seq := uint64(0)
	apply := func() {
		t.Helper()
		seq++
		if err := nw.ApplyEpoch(Epoch{Seq: seq, Graph: mustBuild(t, topo)}); err != nil {
			t.Fatalf("epoch %d: %v", seq, err)
		}
	}
	// Join a node, add a chord, cut an edge, all under load.
	p := topo.AddNode()
	if err := topo.AddEdge(p, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEdge(p, 2); err != nil {
		t.Fatal(err)
	}
	apply()
	time.Sleep(20 * time.Millisecond)
	if err := topo.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	apply()
	time.Sleep(20 * time.Millisecond)
	if err := topo.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	apply()
	time.Sleep(20 * time.Millisecond)

	close(stop)
	wg.Wait()
	mu.Lock()
	total := len(sent)
	mu.Unlock()
	if !nw.WaitDelivered(total, 20*time.Second) {
		t.Fatalf("churn traffic stalled: %d/%d", nw.Delivered(), total)
	}
	log.check(t, sent)
}
