package msgpass

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// These tests run started networks on the wall clock. Their Ticks are
// 10 to 100 times the default so that scheduling delays, under the race
// detector and beside other test binaries, stay small next to the
// intervals they check.

// waitFor polls cond at the pause barrier (workers parked, so it
// may read their state) until it holds, or fails after 10s.
func waitFor(t *testing.T, nw *Network, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ok := false
		nw.inspect(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitBackedOff waits until routing has converged on a silent network
// and every node's heartbeat has backed off to its maximum interval.
func waitBackedOff(t *testing.T, nw *Network) {
	t.Helper()
	maxHB := int64(heartbeatMaxTicks * nw.opts.Tick)
	waitFor(t, nw, "every heartbeat backed off to its maximum", func() bool {
		for _, p := range nw.running {
			n := nw.nodes[p]
			if n.hbEvery != maxHB || n.dvDirty {
				return false
			}
			for d := range n.routes {
				if n.routes[d].Dist != nw.g.Dist(p, graph.ProcessID(d)) {
					return false
				}
			}
		}
		return true
	})
}

// directedLinks lists every directed link of g's wire.
func directedLinks(nw *Network) []transport.Link {
	var ls []transport.Link
	for _, p := range nw.g.Processors() {
		for _, q := range nw.g.Neighbors(p) {
			ls = append(ls, nw.tr.Link(p, q))
		}
	}
	return ls
}

func sentPerLink(ls []transport.Link) []uint64 {
	out := make([]uint64, len(ls))
	for i, l := range ls {
		out[i] = l.Stats().Sent
	}
	return out
}

// TestTimerIdleGridHeartbeatRate: a converged grid with no traffic sends
// only heartbeats. Each link sends at least one within every window of
// the maximum interval plus a quarter (for scheduling), and none faster
// than that interval allows: at most 4 over three such windows.
func TestTimerIdleGridHeartbeatRate(t *testing.T) {
	tick := 2 * time.Millisecond
	nw := New(graph.Grid(3, 3), Options{Seed: 1, Tick: tick})
	nw.Start()
	defer nw.Stop()
	waitBackedOff(t, nw)
	window := heartbeatMaxTicks * tick * 5 / 4

	links := directedLinks(nw)
	first := sentPerLink(links)
	prev := first
	for w := 0; w < 3; w++ {
		time.Sleep(window)
		cur := sentPerLink(links)
		for i := range links {
			if cur[i] == prev[i] {
				t.Errorf("window %d: link %d sent no frame within %v, the maximum heartbeat interval and a quarter", w, i, window)
			}
		}
		prev = cur
	}
	for i := range links {
		if got := prev[i] - first[i]; got > 4 {
			t.Errorf("link %d sent %d frames over %v, want at most 4 at one heartbeat per %v", i, got, 3*window, heartbeatMaxTicks*tick)
		}
	}
	if st := nw.Stats(); st.OffersSent+st.AcceptsSent+st.CancelsSent+st.CancelAcksSent != 0 {
		t.Errorf("an idle network sent handshake frames: %+v", st)
	}
}

// TestTimerRepairsCorruptNeighborTable plants a wrong entry in a
// neighbor table once every heartbeat has backed off to its maximum. The
// entry is off the node's routes, so no route change gossips it away:
// only the neighbor's next heartbeat repairs it, within the maximum.
func TestTimerRepairsCorruptNeighborTable(t *testing.T) {
	tick := 2 * time.Millisecond
	g := graph.Grid(3, 3)
	nw := New(g, Options{Seed: 1, Tick: tick})
	nw.Start()
	defer nw.Stop()
	waitBackedOff(t, nw)

	// Node 4 is the grid's center; its table for neighbor 1 says how far
	// 1 is from corner 8. 4 routes to 8 through 5 or 7, never through 1.
	const at, nbr, dest = 4, 1, 8
	n := nw.nodes[at]
	idx := -1
	for i, q := range n.nbrs {
		if q == nbr {
			idx = i
		}
	}
	want := g.Dist(nbr, dest)
	nw.inspect(func() { n.nbrDV[idx][dest] = g.N() })
	time.Sleep(heartbeatMaxTicks*tick + heartbeatMaxTicks*tick/4)
	var got int
	var parent graph.ProcessID
	nw.inspect(func() { got, parent = n.nbrDV[idx][dest], n.routes[dest].Parent })
	if got != want {
		t.Fatalf("node %d still reads %d for neighbor %d's distance to %d after the maximum heartbeat interval, want %d",
			at, got, nbr, dest, want)
	}
	if parent == nbr {
		t.Fatalf("node %d routes to %d through %d", at, dest, nbr)
	}
}

// gatedTransport wraps a transport to watch the offers on every directed
// link and to hold them back on chosen ones.
type gatedTransport struct {
	transport.Transport
	mu    sync.Mutex
	links map[[2]graph.ProcessID]*gatedLink
}

type gatedLink struct {
	transport.Link
	hold   atomic.Bool // drop offers, as a full inbox would
	mu     sync.Mutex
	offers []time.Time // when each offer was handed to the link
	dvs    []sentDV    // each DV frame handed to the link
}

// sentDV is one gossiped vector and when it was handed to the link. The
// slice is the sender's: a node never mutates a vector once gossiped.
type sentDV struct {
	at time.Time
	dv []int
}

func newGatedTransport(tr transport.Transport) *gatedTransport {
	return &gatedTransport{Transport: tr, links: make(map[[2]graph.ProcessID]*gatedLink)}
}

func (g *gatedTransport) Link(from, to graph.ProcessID) transport.Link { return g.link(from, to) }

func (g *gatedTransport) link(from, to graph.ProcessID) *gatedLink {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.links[[2]graph.ProcessID{from, to}]
	if l == nil {
		l = &gatedLink{Link: g.Transport.Link(from, to)}
		g.links[[2]graph.ProcessID{from, to}] = l
	}
	return l
}

func (l *gatedLink) Send(f transport.Frame) bool {
	if f.Kind == transport.KindDV {
		l.mu.Lock()
		l.dvs = append(l.dvs, sentDV{time.Now(), f.DV})
		l.mu.Unlock()
	}
	if f.Kind == transport.KindOffer {
		l.mu.Lock()
		l.offers = append(l.offers, time.Now())
		l.mu.Unlock()
		if l.hold.Load() {
			return false
		}
	}
	return l.Link.Send(f)
}

func (l *gatedLink) offerTimes() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Time(nil), l.offers...)
}

func (l *gatedLink) dvsSent() []sentDV {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sentDV(nil), l.dvs...)
}

// TestTimerGossipsChangeHandledInBurst: two DV frames reach an idle node
// together, so its worker handles both in one burst. The first changes
// nothing; the second changes a route. The changed vector must reach the
// wire within about a Tick, not at the next heartbeat up to
// heartbeatMaxTicks away.
func TestTimerGossipsChangeHandledInBurst(t *testing.T) {
	tick := 2 * time.Millisecond
	g := graph.Line(4) // 0 - 1 - 2 - 3
	tr := newGatedTransport(transport.NewChan(g, 0))
	defer tr.Close()
	nw := New(g, Options{Seed: 1, Tick: tick, Transport: tr})
	nw.Start()
	defer nw.Stop()
	waitBackedOff(t, nw)

	// Inject two Ticks after node 1's heartbeat: the next one is nearly a
	// whole maximum interval away, and a changed vector may go out at once.
	out := tr.link(1, 0)
	seen := len(out.dvsSent())
	for deadline := time.Now().Add(10 * time.Second); len(out.dvsSent()) == seen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("node 1 sent no heartbeat")
		}
	}
	seen = len(out.dvsSent())
	time.Sleep(2 * tick)

	// Node 2's true vector, then one that puts 3 five hops from 2: node 1
	// now reaches 3 through 0 and 2 hops further than before, at 4. One
	// processor while both frames go in keeps node 1 from running between
	// them, so the second waits in the inbox for the burst.
	in := tr.Transport.Link(2, 1)
	prev := runtime.GOMAXPROCS(1)
	at := time.Now()
	in.Send(transport.Frame{Kind: transport.KindDV, From: 2, DV: []int{2, 1, 0, 1}})
	in.Send(transport.Frame{Kind: transport.KindDV, From: 2, DV: []int{2, 1, 0, 5}})
	runtime.GOMAXPROCS(prev)

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if dvs := out.dvsSent(); len(dvs) > seen {
			if got := dvs[seen].dv[3]; got != 4 {
				t.Fatalf("node 1 gossiped distance %d to 3, want the changed 4", got)
			}
			if lag := dvs[seen].at.Sub(at); lag > 3*tick {
				t.Fatalf("node 1 gossiped its changed vector %v after the frame that changed it, want within about a Tick (%v)", lag, tick)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1 never gossiped its changed vector")
		}
	}
}

// requireDeliveredOnce waits for the given deliveries, gives a late
// duplicate time to land, and checks each UID arrived once, at its
// destination.
func requireDeliveredOnce(t *testing.T, nw *Network, want map[uint64]graph.ProcessID, settle time.Duration) {
	t.Helper()
	if !nw.WaitDelivered(len(want), 10*time.Second) {
		t.Fatalf("only %d/%d delivered", nw.Delivered(), len(want))
	}
	time.Sleep(settle)
	seen := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		seen[d.Msg.UID]++
		if dst, ok := want[d.Msg.UID]; !ok || dst != d.At {
			t.Errorf("delivery of UID %d at %d, want one of the sent messages at its destination", d.Msg.UID, d.At)
		}
	}
	for uid := range want {
		if seen[uid] != 1 {
			t.Errorf("UID %d delivered %d times, want once", uid, seen[uid])
		}
	}
}

// TestTimerReoffersOfferLostToFullInbox loses an offer to the receiver's
// full one-frame inbox. The sender must offer again at its retransmit
// deadline, within 3 Ticks, and the message must arrive once.
func TestTimerReoffersOfferLostToFullInbox(t *testing.T) {
	tick := 20 * time.Millisecond
	g := graph.Line(2)
	tr := newGatedTransport(transport.NewChan(g, 1))
	defer tr.Close()
	nw := New(g, Options{Seed: 1, Tick: tick, Transport: tr})
	defer nw.Stop()

	tr.Link(0, 1).Send(transport.Frame{Kind: transport.KindDV, From: 0, DV: []int{0, 1}})
	uid, err := nw.Send(0, "lost", 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.nodes[0].localMoves() // R1, R2 and the first offer, by hand: nothing runs yet
	if lost := nw.Stats().Wire.DroppedFull; lost != 1 {
		t.Fatalf("%d frames lost to the full inbox, want the offer", lost)
	}
	nw.Start()
	requireDeliveredOnce(t, nw, map[uint64]graph.ProcessID{uid: 1}, 3*tick)
	offers := tr.link(0, 1).offerTimes()
	if len(offers) < 2 {
		t.Fatalf("%d offers sent, want the lost one and its retransmission", len(offers))
	}
	if gap := offers[1].Sub(offers[0]); gap > 3*tick {
		t.Fatalf("the lost offer was sent again after %v, want within 3 Ticks (%v)", gap, 3*tick)
	}
}

// TestTimerUnparkedSenderDelivers fills the center of a star toward leaf
// 3: its bufE holds a message whose offers to 3 are held back, its bufR a
// second one, and its parking slot a third from leaf 1. An offer from
// leaf 2 then finds no room and is not parked, so only leaf 2's own
// retransmissions can get it through once the hop to 3 opens again.
func TestTimerUnparkedSenderDelivers(t *testing.T) {
	g := graph.Star(4) // center 0, leaves 1, 2, 3
	tr := newGatedTransport(transport.NewChan(g, 0))
	defer tr.Close()
	nw := New(g, Options{Seed: 1, Tick: time.Millisecond, Transport: tr})
	nw.Start()
	defer nw.Stop()
	waitFor(t, nw, "routes converge", func() bool {
		return nw.nodes[1].routes[3].Dist == 2 && nw.nodes[2].routes[3].Dist == 2 && nw.nodes[0].routes[3].Dist == 1
	})

	toLeaf := tr.link(0, 3)
	toLeaf.hold.Store(true)
	center := &nw.nodes[0].dests[3]
	want := make(map[uint64]graph.ProcessID)
	send := func(src graph.ProcessID, payload string) {
		t.Helper()
		uid, err := nw.Send(src, payload, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[uid] = 3
	}
	send(1, "a")
	waitFor(t, nw, "a waits in the center's bufE", func() bool { return center.hasE })
	send(1, "b")
	waitFor(t, nw, "b waits in the center's bufR", func() bool { return center.hasR })
	send(1, "c")
	waitFor(t, nw, "c is parked at the center", func() bool { return center.hasParked && center.parkedFrom == 1 })
	send(2, "d")
	fromLeaf2 := tr.link(2, 0)
	for deadline := time.Now().Add(10 * time.Second); len(fromLeaf2.offerTimes()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("leaf 2 never offered d again")
		}
	}
	var parkedFrom graph.ProcessID
	nw.inspect(func() { parkedFrom = center.parkedFrom })
	if parkedFrom != 1 {
		t.Fatalf("the center parked leaf %d's offer, want leaf 1's still", parkedFrom)
	}
	toLeaf.hold.Store(false)
	requireDeliveredOnce(t, nw, want, 3*time.Millisecond)
}

// TestDirtyCorruptBufRMovesWithoutTraffic: the invalid messages
// CorruptInit plants, some in bufR, must all move through R2 and on to
// their destinations with no send and no frame to trigger them: the
// dirty set starts full.
func TestDirtyCorruptBufRMovesWithoutTraffic(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := New(g, Options{Seed: 1, CorruptInit: true})
	var inBufR []uint64
	for _, n := range nw.nodes {
		for d := range n.dests {
			if n.dests[d].hasR {
				inBufR = append(inBufR, n.dests[d].bufR.UID)
			}
		}
	}
	if len(inBufR) == 0 {
		t.Fatal("seed 1 plants no message in a bufR; pick another seed")
	}
	nw.Start()
	defer nw.Stop()
	if !nw.WaitDelivered(g.N(), 10*time.Second) {
		t.Fatalf("only %d of the %d planted messages delivered", nw.Delivered(), g.N())
	}
	seen := make(map[uint64]bool)
	for _, d := range nw.Deliveries() {
		seen[d.Msg.UID] = true
	}
	for _, uid := range inBufR {
		if !seen[uid] {
			t.Errorf("message %d planted in a bufR never delivered", uid)
		}
	}
}

// TestDirtyEpochMarksAll: once a pass has emptied the dirty and pending
// sets, an epoch — here one that also grows the slot space — must refill
// both at every surviving node.
func TestDirtyEpochMarksAll(t *testing.T) {
	nw := New(graph.Line(3), Options{Seed: 1})
	defer nw.tr.Close()
	if _, err := nw.Send(0, "x", 2); err != nil {
		t.Fatal(err)
	}
	empty := func(s destSet) bool {
		for _, w := range s {
			if w != 0 {
				return false
			}
		}
		return true
	}
	n0 := nw.nodes[0]
	n0.localMoves()
	if !empty(n0.dirty) || !empty(n0.pending) {
		t.Fatalf("a pass left dirty %b and pending %b", n0.dirty, n0.pending)
	}
	topo := graph.NewTopology(graph.Line(3))
	if err := topo.AddEdge(2, topo.AddNode()); err != nil {
		t.Fatal(err)
	}
	if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: mustBuild(t, topo)}); err != nil {
		t.Fatal(err)
	}
	full := fullDestSet(4)
	for _, p := range []graph.ProcessID{0, 1, 2} {
		n := nw.nodes[p]
		if len(n.dirty) != len(full) || n.dirty[0] != full[0] {
			t.Errorf("node %d dirty %b after the epoch, want %b", p, n.dirty, full)
		}
		if len(n.pending) != len(full) || n.pending[0] != full[0] {
			t.Errorf("node %d pending %b after the epoch, want %b", p, n.pending, full)
		}
	}
}
