package msgpass

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// Cadence constants, in ticks. The distance vector is gossiped whenever it
// changed and at least every dvHeartbeatTicks regardless (the heartbeat is
// what lets a node with arbitrarily corrupted routing state recover — the
// snap-stabilization requirement); an outstanding offer or cancel is
// retransmitted after offerRetransmitTicks of silence instead of every
// tick, so a healthy handshake in flight is not amplified into an offer
// storm under load.
const (
	dvHeartbeatTicks     = 8
	offerRetransmitTicks = 2
)

// destState is the per-destination forwarding state of a node: the bufR /
// bufE pair of the protocol plus the handshake bookkeeping that replaces
// the shared-memory R3/R4 reasoning. Buffers are values guarded by
// occupancy flags — the steady-state hop path never heap-allocates.
type destState struct {
	bufR, bufE Message
	hasR, hasE bool

	// Sender side: the occupancy's outstanding offer. offerSeq == 0 means
	// no offer issued yet; offerTarget is the single neighbor the sequence
	// was offered to (retargeting requires the cancel round trip).
	// lastDrive is the tick the offer/cancel was last put on the wire.
	offerSeq    uint64
	offerTarget graph.ProcessID
	lastDrive   uint64

	// Receiver side: an offer that arrived while bufR was occupied is
	// parked here and accepted the instant R2 frees the buffer — the
	// congested-hop handoff is event-driven, not retransmit-paced.
	// Accepting a parked offer is indistinguishable from accepting a
	// retransmitted copy of the same frame, so the handshake's safety
	// argument is untouched; a cancel for the parked sequence evicts it.
	// parkedAtNS is the instant of the first park of the current slot
	// occupancy (a retransmit refresh keeps it), so the park wait the
	// telemetry attributes spans the whole congestion episode.
	parked     transport.Offer
	parkedFrom graph.ProcessID
	hasParked  bool
	parkedAtNS int64

	// rAtNS is the arrival instant at the final destination: set when a
	// message for this node lands in bufR, consumed by R6 to attribute
	// the destination-side wait (the "deliver" latency component). Only
	// the self destState ever carries it.
	rAtNS int64

	// Receiver side, per neighbor sender: the highest sequence accepted
	// here and the highest sequence killed by a cancel. Sequences per
	// (sender, destination) stream are monotone, so these two high-water
	// marks resolve every duplicate deterministically: a duplicate offer at
	// or below the accepted mark is re-acknowledged (the sender, if still
	// on that sequence, may erase — the message is stored here); one at or
	// below the killed mark is re-refused; anything newer is fresh.
	accepted map[graph.ProcessID]uint64
	killed   map[graph.ProcessID]uint64
}

// pendEntry is one queued higher-layer send with its enqueue instant —
// what the R1 acceptance observes as the "queued" latency component.
type pendEntry struct {
	m     Message
	enqNS int64
}

// pendQueue is one destination's FIFO of higher-layer sends not yet
// accepted by R1. head indexes the next message; when the queue drains the
// backing array is reused, so sustained load reaches a steady state with
// no append growth.
type pendQueue struct {
	q    []pendEntry
	head int
}

// node is one processor goroutine.
type node struct {
	nw  *Network
	id  graph.ProcessID
	rng *rand.Rand

	// routing: self-stabilizing distance vector. nbrDV is indexed like
	// nbrs; an entry is nil until the first DV from that neighbor arrives,
	// then a fixed N-length slice updated in place. nbrDisabled marks
	// neighbors across an epoch-disabled edge (never a route candidate);
	// nbrDraining marks draining neighbors (a candidate only for traffic
	// destined to themselves). Both are rebuilt at every epoch.
	nbrs        []graph.ProcessID
	dist        []int
	parent      []graph.ProcessID
	nbrDV       [][]int
	dvDirty     bool
	nbrDisabled []bool
	nbrDraining []bool

	// draining: this node refuses new injections and advertises infinite
	// distance for every destination but itself, so in-flight deliveries
	// to it complete while its buffers hand off to live neighbors.
	// detached: set at the epoch barrier when the node leaves the member
	// set; the goroutine exits on release. Both are written only while
	// the goroutine is parked (or before it starts).
	draining bool
	detached bool

	// forwarding.
	dests     []destState
	nextSeq   uint64
	tickCount uint64

	// outp caches this node's outgoing wire links, one per neighbor; the
	// send hot path is an atomic pointer load plus a map read. The map is
	// replaced wholesale at an epoch transition — telemetry closures and
	// QueueDepths resolve links through the pointer, never a stale map.
	outp atomic.Pointer[map[graph.ProcessID]transport.Link]

	// inbox is this processor's transport inbox — the Recv of every
	// incoming link — and nil while it has no neighbor. It is written
	// only at the epoch barrier and under mu; other goroutines read it
	// under mu. wake (capacity 1) is signalled by Network.Send so R1 runs
	// without waiting for a tick or a frame.
	inbox <-chan transport.Frame
	wake  chan struct{}

	// tg holds this processor's occupancy gauges (bufR/bufE/pending/
	// parked), updated at the exact transition points so peaks are
	// event-driven high-water marks. QueueDepths reads the same gauges.
	tg nodeGauges

	// pendingByDest queues, per destination, the messages sent by the
	// higher layer; written by Network.Send concurrently. The tg.pending
	// gauge counts them and is read lock-free on the hot path so an idle
	// R1 costs one atomic load. mu also guards inbox.
	mu            sync.Mutex
	pendingByDest []pendQueue
}

func newNode(nw *Network, id graph.ProcessID, rng *rand.Rand, g *graph.Graph) *node {
	nbrs := g.Neighbors(id)
	n := &node{
		nw:            nw,
		id:            id,
		rng:           rng,
		nbrs:          nbrs,
		dist:          make([]int, g.N()),
		parent:        make([]graph.ProcessID, g.N()),
		nbrDV:         make([][]int, len(nbrs)),
		nbrDisabled:   make([]bool, len(nbrs)),
		nbrDraining:   make([]bool, len(nbrs)),
		dests:         make([]destState, g.N()),
		nextSeq:       1,
		inbox:         nw.inboxOf(id, nbrs),
		wake:          make(chan struct{}, 1),
		pendingByDest: make([]pendQueue, g.N()),
		dvDirty:       true, // gossip the initial vector on the first tick
	}
	n.tg = newNodeGauges(nw.tel.reg, id)
	out := make(map[graph.ProcessID]transport.Link, len(nbrs))
	for _, q := range nbrs {
		out[q] = nw.tr.Link(id, q)
	}
	n.outp.Store(&out)
	for d := 0; d < g.N(); d++ {
		n.dests[d].accepted = make(map[graph.ProcessID]uint64)
		n.dests[d].killed = make(map[graph.ProcessID]uint64)
		if nw.opts.CorruptInit && len(nbrs) > 0 {
			n.dist[d] = n.rng.Intn(g.N() + 1)
			n.parent[d] = nbrs[n.rng.Intn(len(nbrs))]
		} else {
			n.dist[d] = g.N() // pessimistic start; the DV converges downward
			if len(nbrs) > 0 {
				n.parent[d] = nbrs[0]
			} else {
				n.parent[d] = id
			}
		}
		if graph.ProcessID(d) == id {
			n.dist[d] = 0
			n.parent[d] = id
		}
	}
	if nw.opts.CorruptInit {
		// Plant an invalid message in a random buffer of a random
		// destination, as the state-model experiments do.
		d := graph.ProcessID(n.rng.Intn(g.N()))
		inv := Message{Payload: "junk", UID: 1<<60 + uint64(id), Src: id, Dest: d, Valid: false}
		if n.rng.Intn(2) == 0 {
			n.dests[d].bufR, n.dests[d].hasR = inv, true
			n.tg.bufR.Add(1)
		} else {
			n.dests[d].bufE, n.dests[d].hasE = inv, true
			n.tg.bufE.Add(1)
		}
	}
	return n
}

// inboxOf returns p's transport inbox: the shared Recv of its incoming
// links, or nil when p has no neighbor.
func (nw *Network) inboxOf(p graph.ProcessID, nbrs []graph.ProcessID) <-chan transport.Frame {
	if len(nbrs) == 0 {
		return nil
	}
	return nw.tr.Link(nbrs[0], p).Recv()
}

// send counts and ships one frame on the cached link to q. A nil link
// (a neighbor that vanished between the decision and the send — only
// possible transiently around an epoch) drops the frame like congestion.
func (n *node) send(q graph.ProcessID, f transport.Frame) {
	n.nw.countFrame(f.Kind)
	if l := (*n.outp.Load())[q]; l != nil {
		l.Send(f)
	}
}

// run is the node main loop: it reacts to frames from the transport
// inbox, Send wakes, ticks, and epoch barriers.
func (n *node) run() {
	defer n.nw.wg.Done()
	ticker := time.NewTicker(n.nw.opts.Tick)
	defer ticker.Stop()

	for {
		select {
		case <-n.nw.stop:
			return
		case req := <-n.nw.pause:
			// Epoch barrier: park while the network re-shapes this node's
			// state, resume on release — or exit, when the epoch detached
			// this processor or the network stopped mid-barrier.
			req.arrived.Done()
			select {
			case <-req.release:
			case <-n.nw.stop:
				return
			}
			if n.detached {
				return
			}
		case f := <-n.inbox:
			n.handle(f)
		case <-n.wake:
		case <-ticker.C:
			n.tick()
		}
		n.localMoves()
	}
}

// handle processes one incoming frame. A frame from a processor that is
// not a current neighbor is dropped: it was queued before an epoch cut
// the edge (or comes from an untrusted wire), and the sender resolves its
// side of the handshake on its own side of the cut.
func (n *node) handle(f transport.Frame) {
	if _, ok := (*n.outp.Load())[f.From]; !ok {
		return
	}
	switch f.Kind {
	case transport.KindDV:
		n.handleDV(f.From, f.DV)
	case transport.KindOffer:
		n.handleOffer(f.From, f.Offer)
	case transport.KindAccept:
		n.handleAccept(f.From, f.Ack)
	case transport.KindCancel:
		n.handleCancel(f.From, f.Ack)
	case transport.KindCancelAck:
		n.handleCancelAck(f.From, f.Ack)
	}
}

// handleDV folds a neighbor's gossiped vector into the fixed per-neighbor
// store and recomputes routes only when something actually changed — in
// steady state every gossip heartbeat is a no-op comparison, not a full
// Bellman-Ford pass.
func (n *node) handleDV(from graph.ProcessID, dv []int) {
	idx := -1
	for i, q := range n.nbrs {
		if q == from {
			idx = i
			break
		}
	}
	if idx < 0 || len(dv) != n.nw.g.N() {
		return // not a neighbor, or a corrupt frame from an untrusted wire
	}
	stored := n.nbrDV[idx]
	if stored == nil {
		n.nbrDV[idx] = append([]int(nil), dv...)
		n.recomputeRoutes()
		return
	}
	changed := false
	for i, v := range dv {
		if stored[i] != v {
			stored[i] = v
			changed = true
		}
	}
	if changed {
		n.recomputeRoutes()
	}
}

// recomputeRoutes is the distance-vector correction — the message-passing
// analogue of routing algorithm A's rule. Neighbors across a disabled
// edge are never candidates; draining neighbors are candidates only for
// traffic destined to themselves, so a drain stops attracting transit the
// instant the epoch lands instead of waiting for the gossip to say so.
func (n *node) recomputeRoutes() {
	g := n.nw.g
	for d := 0; d < g.N(); d++ {
		if graph.ProcessID(d) == n.id {
			n.dist[d] = 0
			n.parent[d] = n.id
			continue
		}
		if len(n.nbrs) == 0 {
			n.dist[d] = g.N()
			n.parent[d] = n.id
			continue
		}
		best := g.N()
		bestQ := n.nbrs[0]
		for i, q := range n.nbrs {
			if n.nbrDisabled[i] {
				continue
			}
			if n.nbrDraining[i] && graph.ProcessID(d) != q {
				continue
			}
			dv := n.nbrDV[i]
			if dv == nil {
				continue
			}
			if cand := dv[d] + 1; cand < best {
				best = cand
				bestQ = q
			}
		}
		if n.dist[d] != best {
			n.dist[d] = best
			n.dvDirty = true
		}
		n.parent[d] = bestQ
	}
}

// handleOffer is the receiver half of the hop transfer: store into an
// empty bufR exactly once per sequence, acknowledge idempotently at or
// below the watermark, and park the offer while busy so the handoff
// completes the moment R2 frees the buffer instead of waiting out the
// sender's retransmit interval.
func (n *node) handleOffer(from graph.ProcessID, o transport.Offer) {
	if int(o.Dest) >= len(n.dests) {
		return // corrupt frame from an untrusted wire
	}
	ds := &n.dests[o.Dest]
	switch {
	case o.Seq <= ds.accepted[from]:
		n.ack(from, o.Dest, o.Seq)
	case o.Seq <= ds.killed[from]:
		n.send(from, transport.Frame{Kind: transport.KindCancelAck, From: n.id, Ack: transport.Ack{Dest: o.Dest, Seq: o.Seq}})
	case !ds.hasR:
		ds.bufR = o.Msg
		ds.hasR = true
		ds.accepted[from] = o.Seq
		n.tg.bufR.Add(1)
		if o.Dest == n.id {
			// Final hop: start the destination-side wait clock R6 reads.
			ds.rAtNS = time.Now().UnixNano()
		}
		n.ack(from, o.Dest, o.Seq)
	case !ds.hasParked || ds.parkedFrom == from:
		// Buffer occupied: park the offer (a retransmit from the same
		// sender just refreshes the slot). A second sender keeps
		// retransmitting; one parked offer per destination is enough to
		// make the common single-chain pipeline event-driven.
		if !ds.hasParked {
			ds.parkedAtNS = time.Now().UnixNano()
			n.tg.parked.Add(1)
			n.nw.tel.parkEvents.Inc()
		}
		ds.parked = o
		ds.parkedFrom = from
		ds.hasParked = true
	}
}

func (n *node) ack(to graph.ProcessID, dest graph.ProcessID, seq uint64) {
	n.send(to, transport.Frame{Kind: transport.KindAccept, From: n.id, Ack: transport.Ack{Dest: dest, Seq: seq}})
}

// handleAccept is the sender half: the offered copy is stored at its
// single target, so the emission buffer empties — the R4 erase. Sequence
// matching makes stale accepts (from cancelled sequences or earlier
// occupancies) harmless.
func (n *node) handleAccept(from graph.ProcessID, a transport.Ack) {
	if int(a.Dest) >= len(n.dests) {
		return
	}
	if a.Seq >= n.nextSeq {
		// Acknowledging a sequence this node never issued: the peer holds
		// handshake state from another incarnation (or a corrupt frame).
		// Harmless to the protocol — the seq match below fails — but a
		// stabilization-health signal worth counting.
		n.nw.tel.watermarkViolations.Inc()
	}
	if ds := &n.dests[a.Dest]; ds.hasE && ds.offerSeq == a.Seq {
		n.erase(a.Dest)
	}
}

// erase is the R4 erase of d's emission buffer once its offered copy is
// stored at the target.
func (n *node) erase(d graph.ProcessID) {
	ds := &n.dests[d]
	ds.bufE = Message{}
	ds.hasE = false
	ds.offerSeq = 0
	n.tg.bufE.Add(-1)
	if n.draining {
		// One buffered message handed off to a live neighbor on the
		// way out — the drain-progress series operators watch.
		n.nw.tel.drainHandoffs.Inc()
	}
}

// handleCancel resolves a withdrawn offer at the receiver: if the sequence
// was never accepted it is killed (watermark raised, cancelAck); if it was
// already accepted the receiver owns the message and says so (accept).
func (n *node) handleCancel(from graph.ProcessID, c transport.Ack) {
	if int(c.Dest) >= len(n.dests) {
		return
	}
	ds := &n.dests[c.Dest]
	if c.Seq <= ds.accepted[from] {
		// Already stored here: the receiver owns the message; telling the
		// sender lets it erase (the transfer completed after all).
		n.ack(from, c.Dest, c.Seq)
		return
	}
	if ds.hasParked && ds.parkedFrom == from && ds.parked.Seq <= c.Seq {
		// The parked offer is withdrawn; evicting it here keeps the
		// invariant that a cancelAck'd sequence can never be accepted
		// later from the parking slot.
		ds.parked = transport.Offer{}
		ds.hasParked = false
		n.tg.parked.Add(-1)
		n.nw.tel.parkEvictions.Inc()
	}
	if c.Seq > ds.killed[from] {
		ds.killed[from] = c.Seq
	}
	n.send(from, transport.Frame{Kind: transport.KindCancelAck, From: n.id, Ack: transport.Ack{Dest: c.Dest, Seq: c.Seq}})
}

// handleCancelAck lets the sender retarget: the old sequence is dead at
// the old target, so a fresh sequence may be offered to the current parent.
func (n *node) handleCancelAck(from graph.ProcessID, c transport.Ack) {
	if int(c.Dest) >= len(n.dests) {
		return
	}
	if c.Seq >= n.nextSeq {
		n.nw.tel.watermarkViolations.Inc()
	}
	ds := &n.dests[c.Dest]
	if ds.hasE && ds.offerSeq == c.Seq && ds.offerTarget == from {
		ds.offerSeq = 0
		n.driveTransfer(c.Dest) // re-offer to the current parent immediately
	}
}

// tick gossips the distance vector (when changed, or on the heartbeat)
// and drives outstanding transfers.
func (n *node) tick() {
	n.tickCount++
	if n.dvDirty || n.tickCount%dvHeartbeatTicks == 1 {
		// One copy shared by all neighbor sends: receivers only read a DV
		// slice (handleDV copies it into the per-neighbor store), and the
		// sender never mutates a vector after gossiping it.
		var dv []int
		if n.draining {
			// A draining node advertises infinity everywhere but itself:
			// in-flight deliveries to it complete, nothing new routes
			// through it.
			dv = make([]int, len(n.dist))
			for d := range dv {
				dv[d] = n.nw.g.N()
			}
			dv[n.id] = 0
		} else {
			dv = append([]int(nil), n.dist...)
		}
		for _, q := range n.nbrs {
			n.send(q, transport.Frame{Kind: transport.KindDV, From: n.id, DV: dv})
		}
		n.dvDirty = false
	}
	for d := range n.dests {
		n.driveTransfer(graph.ProcessID(d))
	}
}

// driveTransfer (re)transmits the offer for an occupied emission buffer,
// or cancels it when routing has moved away from the offered target. A
// fresh occupancy (offerSeq == 0) goes on the wire immediately; an
// outstanding one is retransmitted only after offerRetransmitTicks of
// silence, giving the accept a chance to arrive first.
func (n *node) driveTransfer(d graph.ProcessID) {
	ds := &n.dests[d]
	if !ds.hasE || d == n.id {
		return
	}
	if ds.offerSeq == 0 {
		ds.offerSeq = n.nextSeq
		n.nextSeq++
		ds.offerTarget = n.parent[d]
	} else if n.tickCount-ds.lastDrive < offerRetransmitTicks {
		return
	} else {
		// Re-driving an outstanding offer (or its cancel) after the
		// silence interval: the retransmission machinery at work.
		n.nw.tel.retransmits.Inc()
	}
	ds.lastDrive = n.tickCount
	if ds.offerTarget == n.parent[d] {
		n.send(ds.offerTarget,
			transport.Frame{Kind: transport.KindOffer, From: n.id, Offer: transport.Offer{Dest: d, Seq: ds.offerSeq, Msg: ds.bufE}})
		return
	}
	// Routing changed under the outstanding offer: withdraw it before
	// offering elsewhere, so the sequence has exactly one possible owner.
	n.send(ds.offerTarget,
		transport.Frame{Kind: transport.KindCancel, From: n.id, Ack: transport.Ack{Dest: d, Seq: ds.offerSeq}})
}

// localMoves performs the purely local rules in pipeline order —
// generation (R1), the internal bufR→bufE move (R2), consumption (R6) —
// so one pass carries a fresh send to its first offer, a final-hop
// arrival to its delivery, and a self-send all the way through.
func (n *node) localMoves() {
	n.acceptPending()
	// R2: internal move wherever possible. Hop-level exactly-once is
	// carried by the handshake sequences in this port; the color field is
	// kept populated for observability only.
	for d := range n.dests {
		ds := &n.dests[d]
		if ds.hasR && !ds.hasE {
			m := ds.bufR
			m.Color = n.rng.Intn(n.nw.g.MaxDegree() + 1)
			ds.bufE = m
			ds.hasE = true
			ds.bufR = Message{}
			ds.hasR = false
			ds.offerSeq = 0 // fresh occupancy, fresh handshake
			n.tg.bufR.Add(-1)
			n.tg.bufE.Add(1)
			if graph.ProcessID(d) != n.id {
				n.driveTransfer(graph.ProcessID(d))
			}
			if ds.hasParked {
				// bufR just freed: accept the parked offer now. Re-running
				// handleOffer keeps every watermark check in one place (a
				// cancel may have raised killed since the offer parked).
				o, from, parkedAt := ds.parked, ds.parkedFrom, ds.parkedAtNS
				ds.parked, ds.hasParked = transport.Offer{}, false
				n.tg.parked.Add(-1)
				n.handleOffer(from, o)
				if ds.hasR && ds.bufR.UID == o.Msg.UID {
					// The parked offer was accepted (not refused by a raised
					// watermark): the slot wait is park time the message
					// spent at this congested hop.
					wait := time.Now().UnixNano() - parkedAt
					n.nw.tel.compPark.Observe(wait)
					if hs := n.nw.opts.HoldStamp; hs != nil {
						if p, ok := hs(ds.bufR.Payload, wait); ok {
							ds.bufR.Payload = p
						}
					}
				}
			}
		}
	}
	// R6: consume at the destination. The wait since the message landed in
	// this node's bufR is the "deliver" attribution component; it rides the
	// Delivery struct (the destination never rewrites the payload tag).
	self := &n.dests[n.id]
	if self.hasE {
		var wait int64
		if self.rAtNS != 0 {
			wait = time.Now().UnixNano() - self.rAtNS
			self.rAtNS = 0
		}
		n.nw.deliver(Delivery{Msg: self.bufE, At: n.id, DeliverWaitNS: wait})
		self.bufE = Message{}
		self.hasE = false
		n.tg.bufE.Add(-1)
	}
}

// acceptPending is R1: accept pending higher-layer messages wherever the
// destination's bufR is free. The lock-free occupancy check keeps an idle
// R1 at one atomic load per loop iteration.
func (n *node) acceptPending() {
	if n.tg.pending.Load() == 0 {
		return
	}
	hs := n.nw.opts.HoldStamp
	now := time.Now().UnixNano()
	n.mu.Lock()
	for d := range n.pendingByDest {
		pq := &n.pendingByDest[d]
		if pq.head >= len(pq.q) {
			continue
		}
		ds := &n.dests[d]
		if ds.hasR {
			continue
		}
		ent := pq.q[pq.head]
		wait := now - ent.enqNS
		n.nw.tel.compQueued.Observe(wait)
		if hs != nil {
			if p, ok := hs(ent.m.Payload, wait); ok {
				ent.m.Payload = p
			}
		}
		ds.bufR = ent.m
		ds.hasR = true
		n.tg.bufR.Add(1)
		if graph.ProcessID(d) == n.id {
			ds.rAtNS = now // self-send: the source is the final hop
		}
		pq.q[pq.head] = pendEntry{} // release the payload reference
		pq.head++
		if pq.head == len(pq.q) {
			pq.q = pq.q[:0] // drained: reuse the backing array
			pq.head = 0
		}
		n.tg.pending.Add(-1)
	}
	n.mu.Unlock()
}
