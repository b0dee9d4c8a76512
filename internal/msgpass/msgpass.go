// Package msgpass carries SSMFP to the message-passing model — the open
// problem the paper's conclusion poses ("it will be interesting to carry
// our protocol in the message passing model ... in order to enable
// snap-stabilizing message forwarding in a real network"). Every processor
// is a goroutine, every link a transport.Link supplied by the caller's
// transport (in-process channels, real TCP sockets, or a chaos-impaired
// wrapper of either — see internal/transport; the port impairs nothing
// itself), and the shared-memory reads of the state model become
// explicit frames:
//
//   - routing: a self-stabilizing distance-vector — nodes gossip their
//     per-destination distances within one tick after they change, and as
//     a heartbeat that backs off from 8 to 64 ticks while they do not
//     (heartbeatMinTicks, heartbeatMaxTicks), and correct (dist, parent)
//     with routing algorithm A's own rule (routing.Start, Route.Relax);
//   - forwarding: the bufR/bufE pairs survive, but the R3/R4 pair (copy at
//     the next hop, then erase at the origin) becomes an offer/accept
//     handshake with per-(sender, destination) sequence numbers,
//     retransmission at a per-offer deadline, and idempotent
//     acknowledgement — the standard alternating-bit-style realization
//     of the state model's "copy visible ⇒ erase" reasoning;
//   - consumption stays local.
//
// The handshake assumes nothing about the wire beyond best effort: frames
// may be dropped, duplicated, and — depending on the transport — arrive
// out of order. One directed channel or TCP link is FIFO per se, so with
// those backends out-of-order arrival happens only through retransmission
// interleaving (a retransmitted offer overtaking the original's late
// accept); the chaos transport's per-frame jitter is what introduces
// genuine wire reordering. Under all of it the handshake keeps every hop
// exactly-once, so valid messages are delivered once and only once while
// the distance vector repairs arbitrary initial routing state — the
// behaviour experiment E-X3 measures and the transport conformance suite
// re-checks against every backend. The port is an engineering
// demonstration, not a proof-carrying artifact: the paper leaves the
// formal transformation open, and DESIGN.md records the differences
// (timers and sequence numbers instead of colors for hop-level identity;
// colors are still carried for observability).
package msgpass

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// Message is the unit the port forwards. UID/Valid mirror the simulator's
// bookkeeping so the same exactly-once oracles apply. It is the
// transport's wire message type: what a node hands to a link is what the
// peer decodes.
type Message = transport.Message

// Delivery records a consumption at a destination. Time is the wall-clock
// instant the destination handed the message up — the load subsystem's
// latency measurements end here. DeliverWaitNS is the time the message
// spent at the destination between arrival (stored into bufR) and the R6
// consumption — the "deliver" component of the latency attribution,
// carried on the struct so observing it allocates nothing (it cannot ride
// the payload tag: the destination never rewrites the payload). Msg is a
// value: a delivery crosses the OnDeliver hook by copy.
type Delivery struct {
	Msg           Message
	At            graph.ProcessID
	Time          time.Time
	DeliverWaitNS int64
}

// ErrStopped is returned by Send after Stop: the node goroutines are gone,
// so an accepted message could never move again.
var ErrStopped = errors.New("msgpass: network stopped")

// Options tunes the port.
type Options struct {
	// Tick is the base unit of every timed action of a node; a node with
	// nothing due sets no timer. A changed distance vector goes on the
	// wire within one Tick, an unchanged one is repeated as a heartbeat
	// 8 Ticks after the last change and then at doubling intervals up to
	// 64 Ticks, and an unanswered offer or cancel is retransmitted 2
	// Ticks after it was sent. Default 200µs.
	Tick time.Duration
	// Seed drives the per-node randomness: CorruptInit's initial state
	// and the colours R2 draws. Link impairment is the transport's
	// (transport.ChaosOptions carries its own seed).
	Seed int64
	// CorruptInit randomizes initial routing state and plants invalid
	// messages in buffers when true.
	CorruptInit bool
	// Transport supplies the wire: the caller's, which must cover every
	// edge this Network's processors touch and which the caller closes
	// after Stop. Nil selects an unimpaired channel transport of
	// transport.DefaultDepth frames per link, which Stop closes.
	Transport transport.Transport
	// Procs restricts which processors this Network instance runs (nil =
	// all of them). With a node-scoped transport, every OS process runs
	// its own subset — typically a single processor (cmd/ssmfp-node) —
	// and the union of all processes forms the deployment. Send panics
	// for sources outside the subset; Deliveries reports local
	// consumptions only.
	Procs []graph.ProcessID
	// OnDeliver, when non-nil, is invoked once per local delivery, from
	// the destination's node goroutine, after the delivery is recorded
	// and before Delivered counts it.
	// It is the push-based delivery stream the load subsystem's latency
	// collector hooks into (polling Deliveries is O(n) per snapshot). The
	// callback must be fast and must not call back into the Network.
	// Invocation order across destinations may differ from the order of
	// the Deliveries slice.
	OnDeliver func(Delivery)
	// DiscardDeliveries disables the in-memory delivery log: Deliveries
	// returns nil and each delivery costs an atomic increment instead of
	// an append under the network lock. Sustained load runs set it — their
	// accounting lives in the OnDeliver hook — so a long run's memory and
	// hot path stay flat. WaitDelivered keeps working off the counter.
	DiscardDeliveries bool
	// Telemetry is the metrics registry the deployment reports into; nil
	// builds a private one. Telemetry is always on — hot-path updates are
	// a handful of atomics (see internal/telemetry) — so passing a shared
	// registry only changes who gets to scrape it, not what it costs.
	Telemetry *telemetry.Registry
	// HoldStamp, when non-nil, is invoked at the two points a message's
	// accumulated hold time grows — R1 acceptance (queued wait) and
	// parked-offer acceptance (park wait) — with the message payload and
	// the wait in nanoseconds. It returns the rewritten payload and
	// whether a rewrite happened (load.AddHold folds the wait into the
	// payload tag's attribution slot; foreign payloads pass through). The
	// callback runs on node goroutines and must not call into the Network.
	HoldStamp func(payload string, waitNanos int64) (string, bool)
}

// Network is a running message-passing deployment of the protocol — or,
// with Options.Procs set, one process's share of a deployment that spans
// several OS processes over a node-scoped transport.
type Network struct {
	g    *graph.Graph
	opts Options
	clk  clock // every instant the port stamps and every node timer

	tr    transport.Transport
	ownTr bool

	nodes []*node // indexed by ProcessID; nil for non-local processors
	local []graph.ProcessID

	// Elastic-membership machinery (epoch.go). view is the atomic read
	// surface for goroutines outside the epoch barrier; epochMu serializes
	// ApplyEpoch, barrier inspections and Stop; running lists the
	// processors with a live goroutine; procsWant pins a node-scoped
	// instance to its configured processor set (nil = adopt every member).
	view      atomic.Pointer[netView]
	epochMu   sync.Mutex
	running   []graph.ProcessID
	procsWant []graph.ProcessID
	started   bool

	// tel holds the pre-resolved telemetry handles (frame-kind counters,
	// delivery counters, attribution histograms). Every handle is atomics
	// under the hood, so the hot paths never take a network-wide lock
	// (see BenchmarkSendHotPathParallel).
	tel *netTelemetry

	nextUID atomic.Uint64

	deliveredCount atomic.Int64
	waiters        atomic.Int32 // WaitDelivered callers; deliver only signals when > 0

	mu         sync.Mutex
	deliveries []Delivery
	delivered  chan struct{} // closed and replaced on a delivery while waiters > 0

	// stop is closed by Stop to release WaitDelivered callers. Node
	// goroutines never wait on it: each is stopped through its own quit.
	stop     chan struct{}
	stopOnce sync.Once
	stopped  atomic.Bool
	wg       sync.WaitGroup
}

// Stats counts wire-level activity: how many frames of each kind were
// sent. Offers exceeding deliveries indicate retransmissions at work.
// Wire carries the transport's own counters, the frames lost to injected
// impairment (DroppedImpair) or congestion (DroppedFull) among them;
// bytes and dials are non-zero only on the TCP backend.
type Stats struct {
	DVSent         int
	OffersSent     int
	AcceptsSent    int
	CancelsSent    int
	CancelAcksSent int
	Wire           transport.Stats
}

// New builds (but does not start) a deployment on g.
func New(g *graph.Graph, opts Options) *Network {
	if opts.Tick <= 0 {
		opts.Tick = 200 * time.Microsecond
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	nw := &Network{
		g:         g,
		opts:      opts,
		clk:       newWallClock(),
		tr:        opts.Transport,
		tel:       newNetTelemetry(reg),
		nodes:     make([]*node, g.N()),
		delivered: make(chan struct{}),
		stop:      make(chan struct{}),
	}
	if nw.tr == nil {
		nw.ownTr = true
		nw.tr = transport.NewChan(g, transport.DefaultDepth)
	}
	nw.local = opts.Procs
	nw.procsWant = opts.Procs
	if nw.local == nil {
		nw.local = g.Processors()
	}
	nw.running = nw.local
	rng := rand.New(rand.NewSource(opts.Seed))
	seeds := make([]int64, g.N())
	for p := range seeds {
		// One draw per processor regardless of locality, so a node's
		// private stream depends only on (Seed, id) — every process of a
		// multi-process deployment derives the same per-node streams.
		seeds[p] = rng.Int63()
	}
	for _, p := range nw.local {
		nw.nodes[p] = newNode(nw, p, rand.New(rand.NewSource(seeds[p])), g)
	}
	nw.view.Store(&netView{
		g:          g,
		nodes:      nw.nodes,
		local:      nw.local,
		draining:   make([]bool, g.N()),
		namespaced: len(nw.local) != g.N(),
	})
	nw.tel.members.Set(int64(len(membersOf(g))))
	nw.registerWire()
	return nw
}

// Telemetry returns the deployment's metrics registry — the one passed in
// Options.Telemetry, or the private one the Network built. Consumers hang
// scrape endpoints and snapshot emitters off it.
func (nw *Network) Telemetry() *telemetry.Registry { return nw.tel.reg }

// Start launches one goroutine per local processor; each reads its
// transport inbox directly.
func (nw *Network) Start() {
	nw.epochMu.Lock()
	defer nw.epochMu.Unlock()
	nw.started = true
	for _, p := range nw.running {
		nw.wg.Add(1)
		go nw.nodes[p].run()
	}
}

// Stop terminates all node goroutines and waits for them; a transport the
// Network built for itself is closed, a caller-supplied one is left open.
// Stop is idempotent: long-running load drivers race their shutdown paths
// against the network's, and a second Stop must be a harmless no-op, not a
// close-of-closed-channel panic. Stop waits out an epoch barrier in
// progress: it sets each running node's quit under epochMu, so a join's
// fresh goroutines are stopped too and a barrier never loses a node, and
// it holds epochMu until the goroutines are gone, so an inspection that
// finds the network stopped reads node state no goroutine still writes.
func (nw *Network) Stop() {
	nw.stopOnce.Do(func() {
		nw.epochMu.Lock()
		nw.stopped.Store(true)
		close(nw.stop)
		for _, p := range nw.running {
			n := nw.nodes[p]
			n.quit.Store(true)
			n.wakeUp()
		}
		nw.wg.Wait()
		nw.epochMu.Unlock()
		if nw.ownTr {
			nw.tr.Close()
		}
	})
}

// Send injects a higher-layer send request at src and returns the UID the
// oracles can track. src must be a running local processor (ErrNotLocal
// otherwise — it never was local, or it left the cluster) and must not be
// draining (ErrDraining); dst must be a current cluster member
// (ErrNotMember). After Stop it returns ErrStopped: the message could
// never be forwarded, and sustained load drivers need the shutdown race
// surfaced as an error, not a message silently parked on a dead queue.
func (nw *Network) Send(src graph.ProcessID, payload string, dst graph.ProcessID) (uint64, error) {
	if nw.stopped.Load() {
		return 0, ErrStopped
	}
	v := nw.view.Load()
	if int(src) < 0 || int(src) >= len(v.nodes) || v.nodes[src] == nil {
		return 0, ErrNotLocal
	}
	if v.draining[src] {
		return 0, ErrDraining
	}
	if int(dst) < 0 || int(dst) >= v.g.N() || (v.g.Degree(dst) == 0 && v.g.N() > 1) {
		return 0, ErrNotMember
	}
	n := v.nodes[src]
	uid := nw.nextUID.Add(1)
	if v.namespaced {
		// Partial deployment: namespace UIDs by source so the union of
		// all processes' UIDs stays collision-free for the oracle.
		uid |= (uint64(src) + 1) << 40
	}
	m := Message{Payload: payload, UID: uid, Src: src, Dest: dst, Valid: true}
	enq := nw.clk.Nanos()
	n.mu.Lock()
	pq := &n.pendingByDest[dst]
	pq.q = append(pq.q, pendEntry{m: m, enqNS: enq})
	n.pending.add(dst)
	n.mu.Unlock()
	n.tg.pending.Add(1)
	nw.tel.sends.Inc()
	// Wake the node so R1 runs now rather than at its next frame.
	n.wakeUp()
	return uid, nil
}

// Deliveries returns a snapshot of all (local) deliveries so far. With
// Options.DiscardDeliveries it returns nil — use the OnDeliver hook.
func (nw *Network) Deliveries() []Delivery {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]Delivery(nil), nw.deliveries...)
}

// EachDelivery calls fn on every retained delivery, in order, without
// copying the log. It holds the network lock throughout, so fn must be
// quick and must not call into the Network. With
// Options.DiscardDeliveries it calls nothing.
func (nw *Network) EachDelivery(fn func(*Delivery)) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for i := range nw.deliveries {
		fn(&nw.deliveries[i])
	}
}

// Delivered returns the count of local deliveries so far; unlike
// Deliveries it works under DiscardDeliveries and takes no lock.
func (nw *Network) Delivered() int { return int(nw.deliveredCount.Load()) }

// WaitDelivered blocks until at least k deliveries happened or the timeout
// elapsed; it reports whether the threshold was reached. It is signalled
// by deliver, not polled. On a stopped network it returns immediately with
// the verdict on the deliveries recorded so far — no new delivery can
// arrive, so blocking out the timeout would only stall the caller.
func (nw *Network) WaitDelivered(k int, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	nw.waiters.Add(1)
	defer nw.waiters.Add(-1)
	for {
		// Grab the signal channel before checking the count: a delivery
		// that lands in between will have closed this channel (it sees our
		// registered waiter), so the select below cannot sleep through it.
		nw.mu.Lock()
		sig := nw.delivered
		nw.mu.Unlock()
		if int(nw.deliveredCount.Load()) >= k {
			return true
		}
		if nw.stopped.Load() {
			return false
		}
		select {
		case <-sig:
		case <-nw.stop:
		case <-timer.C:
			return int(nw.deliveredCount.Load()) >= k
		}
	}
}

func (nw *Network) deliver(d Delivery) {
	d.Time = nw.clk.Now()
	nw.tel.deliveries.Inc()
	if !d.Msg.Valid {
		nw.tel.invalidDeliveries.Inc()
	}
	if d.Msg.Dest != d.At {
		// A message consumed at a processor it was never destined for:
		// corrupt initial state flushing out, or a real forwarding bug.
		// The health detector flags any nonzero count after stabilization.
		nw.tel.phantomDeliveries.Inc()
	}
	if d.DeliverWaitNS > 0 {
		nw.tel.compDeliver.Observe(d.DeliverWaitNS)
	}
	if !nw.opts.DiscardDeliveries {
		nw.mu.Lock()
		nw.deliveries = append(nw.deliveries, d)
		nw.mu.Unlock()
	}
	// Outside the lock: the hook may take its own locks (the latency
	// collector does) and must not be able to deadlock against Deliveries.
	// It runs before the delivery is counted, so a WaitDelivered that
	// returns has seen the hook run for every delivery it counted.
	if fn := nw.opts.OnDeliver; fn != nil {
		fn(d)
	}
	nw.deliveredCount.Add(1)
	if nw.waiters.Load() > 0 {
		// Wake every WaitDelivered. Skipped entirely when nobody waits, so
		// the steady-state delivery path churns no channels.
		nw.mu.Lock()
		close(nw.delivered)
		nw.delivered = make(chan struct{})
		nw.mu.Unlock()
	}
}

// Stats returns a snapshot of the wire-level counters.
func (nw *Network) Stats() Stats {
	return Stats{
		DVSent:         int(nw.tel.frames[transport.KindDV].Load()),
		OffersSent:     int(nw.tel.frames[transport.KindOffer].Load()),
		AcceptsSent:    int(nw.tel.frames[transport.KindAccept].Load()),
		CancelsSent:    int(nw.tel.frames[transport.KindCancel].Load()),
		CancelAcksSent: int(nw.tel.frames[transport.KindCancelAck].Load()),
		Wire:           nw.tr.Stats(),
	}
}

// QueueDepth is a point-in-time occupancy snapshot of one node: frames
// in its inbox not yet handled, higher-layer sends not yet accepted by
// R1, occupied buffers, parked offers, and frames sitting in the node's
// outbound wire queues (0 over Chan, which has none: a frame in flight
// there sits in the receiver's Inbox). All fields are exact: the buffer
// and park gauges are updated at every occupancy transition, not
// sampled on a tick. PendingByDest breaks Pending down per destination
// ring (only non-empty rings appear).
type QueueDepth struct {
	Proc          graph.ProcessID         `json:"proc"`
	Inbox         int                     `json:"inbox"`
	Pending       int                     `json:"pending"`
	BufR          int                     `json:"bufR"`
	BufE          int                     `json:"bufE"`
	Parked        int                     `json:"parked"`
	WireOut       int                     `json:"wireOut"`
	PendingByDest map[graph.ProcessID]int `json:"pendingByDest,omitempty"`
}

// QueueDepths snapshots every local node's queue occupancy. Safe to call
// from any goroutine while the network runs. It is a cold-path observer:
// the per-destination breakdown takes each node's pending lock briefly.
func (nw *Network) QueueDepths() []QueueDepth {
	v := nw.view.Load()
	out := make([]QueueDepth, 0, len(v.local))
	for _, p := range v.local {
		n := v.nodes[p]
		if n == nil {
			continue
		}
		wireOut := 0
		for _, l := range *n.outp.Load() {
			wireOut += l.Stats().Queued
		}
		// Pending and its breakdown come from one locked read, so
		// Pending == sum(PendingByDest) in every snapshot; the lock-free
		// gauge R1 checks can lag a concurrent Send.
		var byDest map[graph.ProcessID]int
		pending := 0
		n.mu.Lock()
		inbox := len(n.inbox)
		for d := range n.pendingByDest {
			if c := len(n.pendingByDest[d].q) - n.pendingByDest[d].head; c > 0 {
				if byDest == nil {
					byDest = make(map[graph.ProcessID]int)
				}
				byDest[graph.ProcessID(d)] = c
				pending += c
			}
		}
		n.mu.Unlock()
		out = append(out, QueueDepth{
			Proc:          n.id,
			Inbox:         inbox,
			Pending:       pending,
			BufR:          int(n.tg.bufR.Load()),
			BufE:          int(n.tg.bufE.Load()),
			Parked:        int(n.tg.parked.Load()),
			WireOut:       wireOut,
			PendingByDest: byDest,
		})
	}
	return out
}

// countFrame attributes one sent frame to its kind counter. The counters
// are telemetry atomics: this is the wire hot path, crossed once or twice
// per frame by every node goroutine concurrently, and must not serialize
// on a network-wide lock.
func (nw *Network) countFrame(k transport.FrameKind) {
	if int(k) < len(nw.tel.frames) {
		if c := nw.tel.frames[k]; c != nil {
			c.Inc()
		}
	}
}
