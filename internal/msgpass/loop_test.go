package msgpass

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// TestLoopBarrierUnderSaturation floods one node's inbox from both of its
// neighbors' links, then requires a barrier inspection, a queue snapshot
// and an epoch to complete within a fixed deadline while the flood goes
// on. The worker takes queued frames without a select; only the burst
// bound brings it back to read its pause slot, which
// TestLoopBarrierBeatsBacklog pins without depending on the scheduler.
func TestLoopBarrierUnderSaturation(t *testing.T) {
	g := graph.Line(3)
	nw := New(g, Options{Seed: 1})
	nw.Start()
	defer nw.Stop()

	// Frames as the neighbors would gossip them: handled in full, but
	// routing-neutral, so the flood changes nothing but the load.
	stop := make(chan struct{})
	var flooders sync.WaitGroup
	for _, from := range []graph.ProcessID{0, 2} {
		dv := []int{1, 1, 1}
		dv[from] = 0
		l := nw.tr.Link(from, 1)
		flooders.Add(1)
		go func() {
			defer flooders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 64; i++ {
					l.Send(transport.Frame{Kind: transport.KindDV, From: from, DV: dv})
				}
			}
		}()
	}
	defer func() {
		close(stop)
		flooders.Wait()
	}()

	saturated := false
	for deadline := time.Now().Add(5 * time.Second); !saturated && time.Now().Before(deadline); {
		saturated = nw.QueueDepths()[1].Inbox > 0
	}
	if !saturated {
		t.Fatal("the flood never left a frame in node 1's inbox")
	}

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s under a saturated inbox", what)
		}
	}
	within("InFlightFor", func() { nw.InFlightFor(2) })
	within("QueueDepths", func() { nw.QueueDepths() })
	within("ApplyEpoch", func() {
		if err := nw.ApplyEpoch(Epoch{Seq: 1, Graph: g}); err != nil {
			t.Errorf("ApplyEpoch: %v", err)
		}
	})
}

// TestLoopBarrierBeatsBacklog queues a backlog many bursts deep at one
// node before it starts and posts a barrier request in its worker's pause
// slot while the worker works through the backlog: the worker must park
// after handling at most one burst and one more frame at the node, not
// after draining its inbox.
func TestLoopBarrierBeatsBacklog(t *testing.T) {
	g := graph.Line(3)
	tr := transport.NewChan(g, 1<<13)
	defer tr.Close()
	nw := New(g, Options{Seed: 1, Transport: tr})
	defer nw.Stop()
	n := nw.nodes[1]
	l := nw.tr.Link(0, 1)
	backlog := cap(n.inbox)
	f := transport.Frame{Kind: transport.KindDV, From: 0, DV: []int{0, 1, 2}}
	for i := 0; i < backlog; i++ {
		l.Send(f)
	}
	nw.Start()
	for len(n.inbox) == backlog {
		runtime.Gosched()
	}
	req := &pauseReq{release: make(chan struct{})}
	req.arrived.Add(1)
	n.owner.Load().pause.Store(req)
	before := len(n.inbox) // frames node 1 may still handle before it parks
	req.arrived.Wait()
	handled := before - len(n.inbox) // neighbor heartbeats only add to the inbox
	close(req.release)
	if handled > inboxBurst+1 {
		t.Fatalf("node 1 handled %d of %d queued frames after the barrier was posted, want at most %d", handled, before, inboxBurst+1)
	}
}

// TestHeartbeatAllocFree drives one node's timed work, on a worker of its
// own, on a hand-moved clock.
// A changed vector goes out at once, or a Tick after the previous gossip;
// the heartbeat then backs off 8, 16, 32, 64, 64 Ticks; each heartbeat
// resends the vector last gossiped, allocating nothing. A draining node's
// all-infinity vector is built once per epoch, so its heartbeat is
// allocation-free even while its own distances keep moving.
func TestHeartbeatAllocFree(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := New(g, Options{Seed: 1})
	defer nw.tr.Close()
	clk := &manualClock{}
	nw.clk = clk
	n := nw.nodes[4]
	w := nw.newWorkers([]graph.ProcessID{n.id})[0]
	tick := nw.opts.Tick
	dvSent := func() int { return nw.Stats().DVSent }

	w.timed() // the initial vector is dirty: gossiped at once
	if got := dvSent(); got != 4 {
		t.Fatalf("initial gossip sent %d DV frames, want 4 (one per neighbor)", got)
	}
	for i, ticks := range []time.Duration{8, 16, 32, 64, 64} {
		before := dvSent()
		clk.advance(ticks*tick - 1)
		w.timed()
		if got := dvSent() - before; got != 0 {
			t.Fatalf("heartbeat %d: %d DV frames 1ns before %d Ticks of silence", i, got, ticks)
		}
		clk.advance(1)
		w.timed()
		if got := dvSent() - before; got != 4 {
			t.Fatalf("heartbeat %d: %d DV frames after %d Ticks of silence, want 4", i, got, ticks)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		clk.advance(heartbeatMaxTicks * tick)
		w.timed()
	}); allocs > 0 {
		t.Fatalf("heartbeat allocates %.1f times, want 0", allocs)
	}

	// A change long after the last gossip goes out at once; one within a
	// Tick of it waits for the Tick; either restarts the back-off.
	clk.advance(tick)
	before := dvSent()
	n.handleDV(1, []int{0, 0, 0, 0, 0, 0, 0, 0, 0})
	w.timed()
	if got := dvSent() - before; got != 4 {
		t.Fatalf("a changed vector a Tick after the last gossip sent %d DV frames, want 4", got)
	}
	n.handleDV(1, []int{9, 9, 9, 9, 9, 9, 9, 9, 9})
	w.timed()
	clk.advance(tick - 1)
	w.timed()
	if got := dvSent() - before; got != 4 {
		t.Fatalf("a second change within a Tick went out early (%d DV frames, want 4)", got)
	}
	clk.advance(1)
	w.timed()
	if got := dvSent() - before; got != 8 {
		t.Fatalf("a second change was not gossiped a Tick after the first (%d DV frames, want 8)", got)
	}
	if want := int64(heartbeatMinTicks * tick); n.hbEvery != want {
		t.Fatalf("heartbeat interval after a change is %v, want %v", time.Duration(n.hbEvery), time.Duration(want))
	}

	n.draining = true
	n.gossip = nil // what an epoch does
	clk.advance(tick)
	w.timed()
	flip := [][]int{{0, 0, 0, 0, 0, 0, 0, 0, 0}, {9, 9, 9, 9, 9, 9, 9, 9, 9}}
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		n.handleDV(1, flip[i%2]) // routes move while draining
		i++
		clk.advance(heartbeatMaxTicks * tick)
		w.timed()
	}); allocs > 0 {
		t.Fatalf("draining heartbeat allocates %.1f times, want 0", allocs)
	}
	for d, v := range n.gossip {
		if want := g.N(); d != int(n.id) && v != want {
			t.Fatalf("draining node advertises %d for %d, want %d", v, d, want)
		}
	}
}

// manualClock is a clock a test moves by hand: time stands still until
// advance, which fires, on the test's goroutine, every timer it passes.
type manualClock struct {
	now    int64
	timers []*manualTimer
}

type manualTimer struct {
	c  *manualClock
	at int64
	on bool
	f  func()
}

func (c *manualClock) Nanos() int64 { return c.now }

func (c *manualClock) Now() time.Time { return time.Unix(0, c.now) }

func (c *manualClock) AfterFunc(d time.Duration, f func()) timer {
	t := &manualTimer{c: c, f: f}
	t.Reset(d)
	c.timers = append(c.timers, t)
	return t
}

func (c *manualClock) advance(d time.Duration) {
	c.now += int64(d)
	for _, t := range c.timers {
		if t.on && t.at <= c.now {
			t.on = false
			t.f()
		}
	}
}

func (t *manualTimer) Reset(d time.Duration) bool {
	was := t.on
	t.at, t.on = t.c.now+int64(d), true
	return was
}

func (t *manualTimer) Stop() bool {
	was := t.on
	t.on = false
	return was
}

// BenchmarkNodeLoop runs a started grid-4x4 network over in-process
// channels as a closed loop: b.N messages between opposite corners of the
// grid's numbering, 16 in flight. It reports ns/msg through the whole
// node loop — inbox, handlers, local moves, timers — without the load
// harness.
func BenchmarkNodeLoop(b *testing.B) {
	const inFlight = 16
	g := graph.Grid(4, 4)
	done := make(chan struct{}, inFlight)
	nw := New(g, Options{
		Seed:              1,
		DiscardDeliveries: true,
		OnDeliver:         func(Delivery) { done <- struct{}{} },
	})
	nw.Start()
	defer nw.Stop()
	send := func(i int) {
		src := graph.ProcessID(i % g.N())
		if _, err := nw.Send(src, "loop", graph.ProcessID(g.N()-1)-src); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up: routing converges and every queue reaches its steady size.
	for i := 0; i < inFlight; i++ {
		send(i)
	}
	for i := 0; i < inFlight; i++ {
		<-done
	}
	b.ResetTimer()
	sent := 0
	for ; sent < inFlight && sent < b.N; sent++ {
		send(sent)
	}
	for got := 0; got < b.N; got++ {
		<-done
		if sent < b.N {
			send(sent)
			sent++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
}
