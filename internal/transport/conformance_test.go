package transport_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

// backendFactory builds a whole-graph transport for g. The returned
// cleanup runs after the protocol layer has stopped.
type backendFactory func(t *testing.T, g *graph.Graph) (transport.Transport, func())

// chanBackend is the extracted in-memory wiring.
func chanBackend(t *testing.T, g *graph.Graph) (transport.Transport, func()) {
	tr := transport.NewChan(g, 64)
	return tr, func() { tr.Close() }
}

// tcpBackend is a full loopback TCP cluster in one process: one
// node-scoped transport per processor, composed by Multi. Listeners are
// bound on port 0 first so every peer address is known before any node
// transport starts.
func tcpBackend(t *testing.T, g *graph.Graph) (transport.Transport, func()) {
	t.Helper()
	listeners := make(map[graph.ProcessID]net.Listener, g.N())
	peers := make(map[graph.ProcessID]string, g.N())
	for _, p := range g.Processors() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("bind node %d: %v", p, err)
		}
		listeners[p] = ln
		peers[p] = ln.Addr().String()
	}
	per := make(map[graph.ProcessID]transport.Transport, g.N())
	for _, p := range g.Processors() {
		tr, err := transport.NewTCP(g, transport.TCPOptions{
			Local:    p,
			Peers:    peers,
			Listener: listeners[p],
			Seed:     int64(p),
		})
		if err != nil {
			t.Fatalf("tcp node %d: %v", p, err)
		}
		per[p] = tr
	}
	m := transport.NewMulti(per)
	return m, func() { m.Close() }
}

// chaosOver wraps a backend with the given impairment.
func chaosOver(inner backendFactory, opts transport.ChaosOptions) backendFactory {
	return func(t *testing.T, g *graph.Graph) (transport.Transport, func()) {
		tr, cleanup := inner(t, g)
		ch := transport.NewChaos(tr, opts)
		return ch, func() { ch.Close(); cleanup() }
	}
}

// --- link-level conformance -------------------------------------------

// drain collects frames from l.Recv until the link stays quiet for
// settle, returning the offers' sequence numbers in arrival order.
func drain(l transport.Link, settle time.Duration) []uint64 {
	var seqs []uint64
	for {
		select {
		case f := <-l.Recv():
			if f.Kind == transport.KindOffer {
				seqs = append(seqs, f.Offer.Seq)
			}
		case <-time.After(settle):
			return seqs
		}
	}
}

// offerFrame builds a payload-bearing frame with a recognizable sequence.
func offerFrame(from, to graph.ProcessID, seq uint64) transport.Frame {
	return transport.Frame{Kind: transport.KindOffer, From: from, Offer: transport.Offer{
		Dest: to, Seq: seq,
		Msg: transport.Message{Payload: fmt.Sprintf("f%d", seq), UID: seq, Src: from, Dest: to, Valid: true},
	}}
}

// testLosslessFIFO sends a burst smaller than the queue depth and
// expects every frame to arrive, in order — chan and tcp are FIFO per
// directed link.
func testLosslessFIFO(t *testing.T, mk backendFactory) {
	g := graph.Line(2)
	tr, cleanup := mk(t, g)
	defer cleanup()
	l := tr.Link(0, 1)
	const burst = 32
	sent := 0
	for seq := uint64(1); seq <= burst; seq++ {
		if l.Send(offerFrame(0, 1, seq)) {
			sent++
		}
	}
	if sent != burst {
		t.Fatalf("only %d/%d frames accepted below queue depth", sent, burst)
	}
	deadline := time.Now().Add(10 * time.Second)
	var got []uint64
	for len(got) < burst && time.Now().Before(deadline) {
		got = append(got, drain(l, 100*time.Millisecond)...)
	}
	if len(got) != burst {
		t.Fatalf("received %d/%d frames", len(got), burst)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("frame %d out of order: got seq %d; full order %v", i, seq, got)
		}
	}
	st := tr.Stats()
	if st.FramesSent < burst || st.FramesRecvd < burst {
		t.Fatalf("stats missed traffic: %+v", st)
	}
}

func TestChanLosslessFIFO(t *testing.T) { testLosslessFIFO(t, chanBackend) }
func TestTCPLosslessFIFO(t *testing.T)  { testLosslessFIFO(t, tcpBackend) }

// testOneInboxPerProcessor checks the receive contract: both links into
// the middle of a line return the same channel, and frames sent on each
// arrive on it once, naming their sender.
func testOneInboxPerProcessor(t *testing.T, mk backendFactory) {
	g := graph.Line(3)
	tr, cleanup := mk(t, g)
	defer cleanup()
	from0, from2 := tr.Link(0, 1), tr.Link(2, 1)
	if from0.Recv() != from2.Recv() {
		t.Fatal("links into processor 1 return different Recv channels")
	}
	const burst = 8
	for seq := uint64(1); seq <= burst; seq++ {
		from0.Send(offerFrame(0, 1, seq))
		from2.Send(offerFrame(2, 1, 100+seq))
	}
	seen := make(map[uint64]graph.ProcessID)
	deadline := time.After(10 * time.Second)
	for len(seen) < 2*burst {
		select {
		case f := <-from0.Recv():
			seq := f.Offer.Seq
			if _, dup := seen[seq]; dup {
				t.Fatalf("frame %d arrived twice", seq)
			}
			seen[seq] = f.From
		case <-deadline:
			t.Fatalf("received %d/%d frames", len(seen), 2*burst)
		}
	}
	for seq, from := range seen {
		want := graph.ProcessID(0)
		if seq > 100 {
			want = 2
		}
		if from != want {
			t.Fatalf("frame %d: From = %d, want %d", seq, from, want)
		}
	}
	if extra := drain(from0, 50*time.Millisecond); len(extra) != 0 {
		t.Fatalf("extra frames after the burst: %v", extra)
	}
}

func TestChanOneInboxPerProcessor(t *testing.T) { testOneInboxPerProcessor(t, chanBackend) }
func TestTCPOneInboxPerProcessor(t *testing.T)  { testOneInboxPerProcessor(t, tcpBackend) }
func TestChaosOneInboxPerProcessor(t *testing.T) {
	testOneInboxPerProcessor(t, chaosOver(chanBackend, transport.ChaosOptions{Seed: 5, Latency: time.Millisecond, Jitter: time.Millisecond}))
}

// TestChanLinkHasNoOutboundQueue: a frame in flight on a Chan link sits
// in the receiver's inbox, which the receiver counts; the link itself
// queues nothing, so summing link queues does not count it twice.
func TestChanLinkHasNoOutboundQueue(t *testing.T) {
	tr, cleanup := chanBackend(t, graph.Line(2))
	defer cleanup()
	l := tr.Link(0, 1)
	if !l.Send(offerFrame(0, 1, 1)) {
		t.Fatal("send refused")
	}
	if got := len(l.Recv()); got != 1 {
		t.Fatalf("receiver inbox holds %d frames, want 1", got)
	}
	if got := l.Stats().Queued; got != 0 {
		t.Fatalf("Link(0,1).Stats().Queued = %d, want 0", got)
	}
}

func TestChaosLossDropsFrames(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{Seed: 42, LossRate: 0.5})
	g := graph.Line(2)
	tr, cleanup := mk(t, g)
	defer cleanup()
	l := tr.Link(0, 1)
	const burst = 400
	var got []uint64
	for seq := uint64(1); seq <= burst; seq++ {
		l.Send(offerFrame(0, 1, seq))
		if seq%32 == 0 {
			// Drain as we go so the 64-deep channel never congests.
			got = append(got, drain(l, time.Millisecond)...)
		}
	}
	got = append(got, drain(l, 50*time.Millisecond)...)
	st := tr.Stats()
	if st.DroppedImpair == 0 {
		t.Fatalf("50%% loss dropped nothing: %+v", st)
	}
	if int(st.DroppedImpair)+len(got)+int(st.DroppedFull) < burst {
		t.Fatalf("frames unaccounted for: got %d, impair %d, congestion %d of %d",
			len(got), st.DroppedImpair, st.DroppedFull, burst)
	}
	if len(got) >= burst*3/4 {
		t.Fatalf("50%% loss let %d/%d frames through", len(got), burst)
	}
}

func TestChaosDuplicatesFrames(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{Seed: 7, DupRate: 0.5})
	g := graph.Line(2)
	tr, cleanup := mk(t, g)
	defer cleanup()
	l := tr.Link(0, 1)
	const burst = 40
	var got []uint64
	for seq := uint64(1); seq <= burst; seq++ {
		l.Send(offerFrame(0, 1, seq))
		got = append(got, drain(l, time.Millisecond)...)
	}
	got = append(got, drain(l, 50*time.Millisecond)...)
	if len(got) <= burst {
		t.Fatalf("50%% duplication delivered only %d copies of %d frames", len(got), burst)
	}
	if st := tr.Stats(); st.Duplicated == 0 {
		t.Fatalf("duplication not counted: %+v", st)
	}
}

func TestChaosReordersFrames(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{
		Seed: 3, ReorderRate: 0.3, ReorderSpan: 20 * time.Millisecond,
	})
	g := graph.Line(2)
	tr, cleanup := mk(t, g)
	defer cleanup()
	l := tr.Link(0, 1)
	const burst = 60
	for seq := uint64(1); seq <= burst; seq++ {
		l.Send(offerFrame(0, 1, seq))
		time.Sleep(time.Millisecond) // give held-back frames something to be overtaken by
	}
	got := drain(l, 100*time.Millisecond)
	if len(got) != burst {
		t.Fatalf("received %d/%d frames (reordering must not lose)", len(got), burst)
	}
	seen := make(map[uint64]bool)
	inOrder := true
	for i, seq := range got {
		if seen[seq] {
			t.Fatalf("frame %d duplicated", seq)
		}
		seen[seq] = true
		if i > 0 && seq < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("30%% reorder rate left the stream fully ordered: %v", got)
	}
}

func TestChaosPartitionHeal(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{
		Seed: 1,
		Partitions: []transport.PartitionWindow{{
			Start: 0, Duration: 200 * time.Millisecond,
			Edges: [][2]graph.ProcessID{{0, 1}},
		}},
	})
	g := graph.Line(3) // edges 0-1 (cut) and 1-2 (untouched)
	tr, cleanup := mk(t, g)
	defer cleanup()
	cut, open := tr.Link(0, 1), tr.Link(1, 2)
	if cut.Send(offerFrame(0, 1, 1)) {
		t.Fatal("send on a cut edge claimed success")
	}
	if !open.Send(offerFrame(1, 2, 2)) {
		t.Fatal("partition of 0-1 leaked onto edge 1-2")
	}
	if got := drain(open, 20*time.Millisecond); len(got) != 1 || got[0] != 2 {
		t.Fatalf("open edge traffic = %v, want [2]", got)
	}
	if got := drain(cut, 20*time.Millisecond); len(got) != 0 {
		t.Fatalf("cut edge delivered %v during the partition", got)
	}
	time.Sleep(250 * time.Millisecond) // heal
	if !cut.Send(offerFrame(0, 1, 3)) {
		t.Fatal("send after heal still dropping")
	}
	if got := drain(cut, 50*time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("post-heal traffic = %v, want [3]", got)
	}
	if st := tr.Stats(); st.DroppedImpair == 0 {
		t.Fatalf("partition drop not counted: %+v", st)
	}
}

// TestTCPLateStartAndReconnect exercises the dialer's backoff: the peer
// is down at first send, comes up later, and frames flow; then the peer
// restarts on the same address and frames flow again over a redial.
func TestTCPLateStartAndReconnect(t *testing.T) {
	g := graph.Line(2)
	// Reserve an address for node 1, then free it so the first dials fail.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := rsv.Addr().String()
	rsv.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[graph.ProcessID]string{0: ln0.Addr().String(), 1: addr1}
	t0, err := transport.NewTCP(g, transport.TCPOptions{
		Local: 0, Peers: peers, Listener: ln0,
		BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	send := t0.Link(0, 1)
	stopPump := make(chan struct{})
	defer close(stopPump)
	go func() { // keep offering frames while the peer is down, up, down, up
		seq := uint64(0)
		for {
			select {
			case <-stopPump:
				return
			case <-time.After(2 * time.Millisecond):
				seq++
				send.Send(offerFrame(0, 1, seq))
			}
		}
	}()

	startPeer := func() (transport.Transport, transport.Link) {
		ln1, err := net.Listen("tcp", addr1)
		if err != nil {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		t1, err := transport.NewTCP(g, transport.TCPOptions{Local: 1, Peers: peers, Listener: ln1})
		if err != nil {
			t.Fatal(err)
		}
		return t1, t1.Link(0, 1)
	}
	waitFrames := func(l transport.Link, what string) {
		select {
		case <-l.Recv():
		case <-time.After(10 * time.Second):
			t.Fatalf("no frames arrived %s", what)
		}
	}

	time.Sleep(30 * time.Millisecond) // let dials fail while the peer is down
	t1, recv := startPeer()
	waitFrames(recv, "after the peer came up late")
	t1.Close()

	time.Sleep(30 * time.Millisecond) // connection torn down; writer must redial
	t1b, recv2 := startPeer()
	defer t1b.Close()
	waitFrames(recv2, "after the peer restarted")

	if st := t0.Stats(); st.Dials < 2 {
		t.Fatalf("expected repeated dial attempts, got stats %+v", st)
	}
}

// --- protocol-level conformance: exactly-once over every backend -------

// runExactlyOnce drives a full SSMFP deployment over the given backend
// and checks the UID oracle: every sent message delivered exactly once,
// at its destination.
func runExactlyOnce(t *testing.T, mk backendFactory, opts msgpass.Options, timeout time.Duration) {
	t.Helper()
	g := graph.Ring(6)
	tr, cleanup := mk(t, g)
	defer cleanup()
	opts.Transport = tr
	if opts.Tick == 0 {
		opts.Tick = time.Millisecond
	}
	nw := msgpass.New(g, opts)
	nw.Start()
	defer nw.Stop()

	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		for off := 1; off <= 3; off++ {
			dst := graph.ProcessID((src + off) % g.N())
			uid, err := nw.Send(graph.ProcessID(src), fmt.Sprintf("m%d-%d", src, off), dst)
			if err != nil {
				t.Fatalf("Send(%d -> %d): %v", src, dst, err)
			}
			want[uid] = dst
		}
	}
	deadline := time.Now().Add(timeout)
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
		time.Sleep(5 * time.Millisecond)
	}
	counts := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		if !d.Msg.Valid {
			continue
		}
		counts[d.Msg.UID]++
		if at, ok := want[d.Msg.UID]; !ok {
			t.Errorf("delivery of unknown UID %d", d.Msg.UID)
		} else if d.At != at {
			t.Errorf("UID %d delivered at %d, want %d", d.Msg.UID, d.At, at)
		}
	}
	for uid := range want {
		if counts[uid] != 1 {
			t.Errorf("UID %d delivered %d times, want exactly once", uid, counts[uid])
		}
	}
}

func TestExactlyOnceOverChan(t *testing.T) {
	runExactlyOnce(t, chanBackend, msgpass.Options{Seed: 21}, 30*time.Second)
}

func TestExactlyOnceOverTCPLoopback(t *testing.T) {
	runExactlyOnce(t, tcpBackend, msgpass.Options{Seed: 22}, 60*time.Second)
}

func TestExactlyOnceOverChaosChan(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{
		Seed: 23, LossRate: 0.15, DupRate: 0.15,
		Latency: 100 * time.Microsecond, Jitter: 500 * time.Microsecond,
		ReorderRate: 0.1,
	})
	runExactlyOnce(t, mk, msgpass.Options{Seed: 23, CorruptInit: true}, 60*time.Second)
}

func TestExactlyOnceOverChaosTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-over-tcp cluster is slow under -short")
	}
	mk := chaosOver(tcpBackend, transport.ChaosOptions{
		Seed: 24, LossRate: 0.1, DupRate: 0.1, Jitter: time.Millisecond,
	})
	runExactlyOnce(t, mk, msgpass.Options{Seed: 24}, 90*time.Second)
}

// TestExactlyOncePartitionHeal cuts a ring edge mid-run: during the
// window messages route the long way or wait out the cut on
// retransmission; after the heal everything must still be exactly-once.
func TestExactlyOncePartitionHeal(t *testing.T) {
	mk := chaosOver(chanBackend, transport.ChaosOptions{
		Seed: 25,
		Partitions: []transport.PartitionWindow{{
			Start: 0, Duration: 300 * time.Millisecond,
			Edges: [][2]graph.ProcessID{{0, 1}, {3, 4}},
		}},
	})
	runExactlyOnce(t, mk, msgpass.Options{Seed: 25}, 60*time.Second)
}

// --- elastic conformance: a link's life across epochs ----------------

// elasticDeployment is a running deployment whose epochs a test drives:
// the Network that runs each processor (one for a whole-graph transport,
// one per processor for node-scoped ones), and for node-scoped wires the
// hook that teaches every node transport the dial addresses a new graph
// needs — what cluster.Agent replays before each epoch.
type elasticDeployment struct {
	nets  map[graph.ProcessID]*msgpass.Network
	peers func(g *graph.Graph)
}

// elasticFactory boots a deployment of g with hook wired into every
// Network's OnDeliver.
type elasticFactory func(t *testing.T, g *graph.Graph, hook func(msgpass.Delivery)) elasticDeployment

// chaosChanElastic runs one Network over Chaos(Chan): every epoch's wire
// change goes through Chaos.EnsureLink/DropLink to the channel backend.
func chaosChanElastic(t *testing.T, g *graph.Graph, hook func(msgpass.Delivery)) elasticDeployment {
	tr := transport.NewChaos(transport.NewChan(g, 64), transport.ChaosOptions{
		Seed: 31, LossRate: 0.1, DupRate: 0.1, Jitter: 500 * time.Microsecond,
	})
	nw := msgpass.New(g, msgpass.Options{Seed: 31, Tick: time.Millisecond, Transport: tr, OnDeliver: hook})
	nw.Start()
	t.Cleanup(func() { nw.Stop(); tr.Close() })
	nets := make(map[graph.ProcessID]*msgpass.Network, g.N())
	for _, p := range g.Processors() {
		nets[p] = nw
	}
	return elasticDeployment{nets: nets}
}

// runEpochExactlyOnce takes a chord through its whole life on Line(4).
// Epoch 1 adds edge 0-3 and disables 1-2, so traffic between the two
// halves can only cross the new chord; epoch 2 re-enables 1-2 and
// disables the chord (the graceful cut's first phase); epoch 3 removes
// the chord once its traffic has drained. Messages sent under every
// epoch must each be delivered exactly once, at their destination.
func runEpochExactlyOnce(t *testing.T, mk elasticFactory) {
	line := graph.Line(4)
	var mu sync.Mutex
	seen := make(map[string][]graph.ProcessID)
	d := mk(t, line, func(dl msgpass.Delivery) {
		mu.Lock()
		seen[dl.Msg.Payload] = append(seen[dl.Msg.Payload], dl.At)
		mu.Unlock()
	})
	want := make(map[string]graph.ProcessID)
	round := func(epoch int) {
		t.Helper()
		for _, sd := range [][2]graph.ProcessID{{1, 2}, {2, 1}, {0, 3}, {3, 0}, {1, 3}} {
			payload := fmt.Sprintf("e%d:%d->%d", epoch, sd[0], sd[1])
			if _, err := d.nets[sd[0]].Send(sd[0], payload, sd[1]); err != nil {
				t.Fatalf("epoch %d: Send %s: %v", epoch, payload, err)
			}
			want[payload] = sd[1]
		}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			mu.Lock()
			n := len(seen)
			mu.Unlock()
			if n == len(want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("epoch %d: %d/%d messages delivered", epoch, n, len(want))
			}
		}
	}
	apply := func(e msgpass.Epoch) {
		t.Helper()
		if d.peers != nil {
			d.peers(e.Graph)
		}
		applied := make(map[*msgpass.Network]bool)
		for _, p := range e.Graph.Processors() {
			if nw := d.nets[p]; !applied[nw] {
				applied[nw] = true
				if err := nw.ApplyEpoch(e); err != nil {
					t.Fatalf("epoch %d at node %d: %v", e.Seq, p, err)
				}
			}
		}
	}

	chorded := graph.Ring(4) // Line(4) plus the chord 0-3
	round(0)
	apply(msgpass.Epoch{Seq: 1, Graph: chorded, Disabled: [][2]graph.ProcessID{{1, 2}}})
	round(1)
	apply(msgpass.Epoch{Seq: 2, Graph: chorded, Disabled: [][2]graph.ProcessID{{0, 3}}})
	round(2)
	apply(msgpass.Epoch{Seq: 3, Graph: line})
	round(3)

	time.Sleep(50 * time.Millisecond) // let a late duplicate surface
	mu.Lock()
	defer mu.Unlock()
	for payload, dst := range want {
		if at := seen[payload]; len(at) != 1 || at[0] != dst {
			t.Errorf("%s delivered at %v, want once at %d", payload, at, dst)
		}
	}
}

func TestEpochExactlyOnceOverChaosChan(t *testing.T) { runEpochExactlyOnce(t, chaosChanElastic) }

// TestChaosBandwidthCapSustained pushes a sustained burst through a
// bandwidth-capped link and checks the line-rate model: every frame
// arrives exactly once, in order, and the drain rate clamps to the cap
// (frames queue behind each other's serialization time instead of being
// dropped).
func TestChaosBandwidthCapSustained(t *testing.T) {
	g := graph.Line(2)
	sample := offerFrame(0, 1, 1)
	size := transport.EncodedSize(&sample)
	const frames = 300
	const lineRate = 250 // frames per second
	mk := chaosOver(chanBackend, transport.ChaosOptions{Seed: 5, BandwidthBps: size * lineRate})
	tr, cleanup := mk(t, g)
	defer cleanup()
	l := tr.Link(0, 1)

	start := time.Now()
	for seq := uint64(1); seq <= frames; seq++ {
		if !l.Send(offerFrame(0, 1, seq)) {
			t.Fatalf("frame %d rejected — the cap must delay, not drop", seq)
		}
	}
	var got []uint64
	deadline := time.After(30 * time.Second)
	for len(got) < frames {
		select {
		case f := <-l.Recv():
			if f.Kind == transport.KindOffer {
				got = append(got, f.Offer.Seq)
			}
		case <-deadline:
			t.Fatalf("only %d/%d frames drained before the deadline", len(got), frames)
		}
	}
	elapsed := time.Since(start)

	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("frame %d arrived as %d — cap reordered or duplicated the line", i+1, seq)
		}
	}
	ideal := frames * time.Second / lineRate
	if elapsed < ideal*7/10 {
		t.Fatalf("burst drained in %v, line rate allows no less than ~%v", elapsed, ideal)
	}
	if measured := float64(frames) / elapsed.Seconds(); measured > lineRate*13/10 {
		t.Fatalf("measured %.0f frames/s through a %d frames/s line", measured, lineRate)
	}
}
