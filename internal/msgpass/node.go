package msgpass

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	"ssmfp/internal/transport"
)

// Cadence constants, in multiples of Options.Tick, the base unit of every
// timed action. A changed distance vector goes on the wire at once, or
// one Tick after the previous gossip if that was sooner. An unchanged one
// is repeated as a heartbeat heartbeatMinTicks after the last change,
// then at doubling intervals up to heartbeatMaxTicks. The heartbeat is
// what lets a node with arbitrarily corrupted routing state recover (the
// snap-stabilization requirement), so heartbeatMaxTicks — 12.8 ms at the
// default Tick — bounds how long a corrupted neighbor table can stay
// uncorrected on a silent network. An outstanding offer or cancel is
// retransmitted offerRetransmitTicks after it last went on the wire, so a
// healthy handshake in flight is not amplified into an offer storm under
// load.
const (
	heartbeatMinTicks    = 8
	heartbeatMaxTicks    = 64
	offerRetransmitTicks = 2
)

// inboxBurst bounds the frames a worker handles at one node in a turn, so
// a saturated inbox starves neither its other nodes, its timed work, Stop
// nor the barrier. 64 is one incoming link's share of the inbox at
// transport.DefaultDepth: a burst ends well inside one Tick.
const inboxBurst = 64

// destState is the per-destination forwarding state of a node: the bufR /
// bufE pair of the protocol plus the handshake bookkeeping that replaces
// the shared-memory R3/R4 reasoning. Buffers are values guarded by
// occupancy flags — the steady-state hop path never heap-allocates.
type destState struct {
	bufR, bufE Message
	hasR, hasE bool

	// Sender side: the occupancy's outstanding offer. offerSeq == 0 means
	// no offer issued yet; offerTarget is the single neighbor the sequence
	// was offered to (retargeting requires the cancel round trip). due is
	// when the offer or cancel last put on the wire is retransmitted.
	offerSeq    uint64
	offerTarget graph.ProcessID
	due         int64

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

// node is one processor, served by the worker that owns it.
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
	routes      []routing.Route // indexed by destination
	nbrDV       [][]int
	dvDirty     bool
	nbrDisabled []bool
	nbrDraining []bool

	// draining: this node refuses new injections and advertises infinite
	// distance for every destination but itself, so in-flight deliveries
	// to it complete while its buffers hand off to live neighbors.
	// Written only while the owning worker is parked (or before Start).
	draining bool

	// gossip is the vector last put on the wire. It is never mutated
	// after sending, so a heartbeat with nothing changed resends it as is;
	// a change (dvDirty) or an epoch (which resets it to nil) builds a
	// fresh one. gossipAt is when it went out and hbEvery the interval to
	// the next heartbeat, in nanoseconds on the network's clock;
	// gossipArmed is the due of the owner's live gossip deadline.
	gossip      []int
	gossipAt    int64
	hbEvery     int64
	gossipArmed int64

	// forwarding. dirty holds the destinations whose bufR was stored or
	// bufE erased since R2 last looked at them: R2 visits only those, so
	// a pass costs what changed, not one probe per destination.
	dests   []destState
	dirty   destSet
	nextSeq uint64

	// owner serves the node and keeps its deadlines (nil before Start); it
	// is swapped at an epoch barrier and read by the arrival hook and Send.
	owner atomic.Pointer[worker]

	// outp caches this node's outgoing wire links, one per neighbor; the
	// send hot path is an atomic pointer load plus a map read. The map is
	// replaced wholesale at an epoch transition — telemetry closures and
	// QueueDepths resolve links through the pointer, never a stale map.
	outp atomic.Pointer[map[graph.ProcessID]transport.Link]

	// inbox is this processor's transport inbox — the Recv of every
	// incoming link — and nil while it has no neighbor. It is written
	// only at the epoch barrier and under mu; other goroutines read it
	// under mu. Its arrival hook is notify.
	inbox <-chan transport.Frame

	// tg holds this processor's occupancy gauges (bufR/bufE/pending/
	// parked), updated at the exact transition points so peaks are
	// event-driven high-water marks. QueueDepths reads the same gauges.
	tg nodeGauges

	// pendingByDest queues, per destination, the messages sent by the
	// higher layer; written by Network.Send concurrently, which also marks
	// the destination in pending, so R1 visits only destinations with
	// queued sends. The tg.pending gauge counts them and is read lock-free
	// on the hot path so an idle R1 costs one atomic load. mu also guards
	// inbox.
	mu            sync.Mutex
	pendingByDest []pendQueue
	pending       destSet
}

// destSet is a set of destinations, one bit each. The forwarding sets
// start full and an epoch refills them (markAll), so whatever state a
// node starts or resumes from is looked at once.
type destSet []uint64

// fullDestSet returns the set of destinations 0..n-1.
func fullDestSet(n int) destSet {
	s := make(destSet, (n+63)/64)
	for i := range s {
		s[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s[len(s)-1] = 1<<r - 1
	}
	return s
}

func (s destSet) add(d graph.ProcessID) { s[d>>6] |= 1 << (d & 63) }

func (s destSet) remove(d graph.ProcessID) { s[d>>6] &^= 1 << (d & 63) }

func newNode(nw *Network, id graph.ProcessID, rng *rand.Rand, g *graph.Graph) *node {
	nbrs := g.Neighbors(id)
	n := &node{
		nw:            nw,
		id:            id,
		rng:           rng,
		nbrs:          nbrs,
		routes:        make([]routing.Route, g.N()),
		nbrDV:         make([][]int, len(nbrs)),
		nbrDisabled:   make([]bool, len(nbrs)),
		nbrDraining:   make([]bool, len(nbrs)),
		dests:         make([]destState, g.N()),
		dirty:         fullDestSet(g.N()),
		nextSeq:       1,
		inbox:         nw.inboxOf(id, nbrs),
		pendingByDest: make([]pendQueue, g.N()),
		pending:       fullDestSet(g.N()),
		dvDirty:       true,          // gossip the initial vector on the first pass
		gossipAt:      math.MinInt64, // never gossiped: the first is due at once
	}
	n.tg = newNodeGauges(nw.tel.reg, id)
	nw.tr.OnArrival(id, n.notify)
	out := make(map[graph.ProcessID]transport.Link, len(nbrs))
	for _, q := range nbrs {
		out[q] = nw.tr.Link(id, q)
	}
	n.outp.Store(&out)
	for d := 0; d < g.N(); d++ {
		n.dests[d].accepted = make(map[graph.ProcessID]uint64)
		n.dests[d].killed = make(map[graph.ProcessID]uint64)
		// The start route is pessimistic; the DV converges downward.
		n.routes[d] = routing.Start(id, graph.ProcessID(d), nbrs, g.N())
		if nw.opts.CorruptInit && len(nbrs) > 0 {
			// Drawn at the destination too, so every entry's draw
			// depends only on (Seed, id, d).
			r := routing.Route{Dist: n.rng.Intn(g.N() + 1), Parent: nbrs[n.rng.Intn(len(nbrs))]}
			if graph.ProcessID(d) != id {
				n.routes[d] = r
			}
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

// serve is the node's share of a turn: up to inboxBurst frames taken
// without blocking, each followed by the local moves, or the local moves
// alone (a Send, the start or an epoch may have left work). It reports
// whether a frame was handled.
func (n *node) serve() bool {
	for i := 0; i < inboxBurst; i++ {
		select {
		case f := <-n.inbox:
			n.handle(f)
			n.localMoves()
		default:
			if i == 0 {
				n.localMoves()
			}
			return i > 0
		}
	}
	return true
}

// notify wakes the node's worker, if it has one yet: the inbox's arrival
// hook, and Send's signal that R1 has work.
func (n *node) notify() {
	if w := n.owner.Load(); w != nil {
		w.wakeUp()
	}
}

// gossipDue is when the vector next goes on the wire: one Tick after the
// previous gossip if it changed since (or an epoch reset it), otherwise
// when the heartbeat is due.
func (n *node) gossipDue() int64 {
	if n.gossip == nil || n.dvDirty {
		return n.gossipAt + int64(n.nw.opts.Tick)
	}
	return n.gossipAt + n.hbEvery
}

// gossipNow puts the vector on the wire to every neighbor. A changed
// vector restarts the heartbeat at heartbeatMinTicks; an unchanged one
// (a heartbeat) doubles the interval to the next, up to
// heartbeatMaxTicks.
func (n *node) gossipNow(now int64) {
	tick := int64(n.nw.opts.Tick)
	if n.gossip == nil || n.dvDirty {
		// One copy shared by all neighbor sends and by every heartbeat
		// until the vector changes: receivers only read a DV slice
		// (handleDV copies it into the per-neighbor store), and the sender
		// never mutates a vector after gossiping it.
		n.gossip = n.advertised()
		n.hbEvery = heartbeatMinTicks * tick
	} else {
		n.hbEvery = min(2*n.hbEvery, heartbeatMaxTicks*tick)
	}
	n.dvDirty = false
	n.gossipAt = now
	for _, q := range n.nbrs {
		n.send(q, transport.Frame{Kind: transport.KindDV, From: n.id, DV: n.gossip})
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
	nProcs := n.nw.g.N()
	if idx < 0 || len(dv) != nProcs {
		return // not a neighbor, or a corrupt frame from an untrusted wire
	}
	stored := n.nbrDV[idx]
	fresh := stored == nil
	if fresh {
		stored = make([]int, nProcs)
		n.nbrDV[idx] = stored
	}
	changed := fresh
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

// recomputeRoutes runs routing algorithm A's rule (routing.Start and
// Route.Relax) over the neighbors' stored vectors; a distance outside
// [0, n] (a garbage frame or a neighbor starting from an arbitrary
// configuration) is clamped there. Neighbors across a disabled edge are
// never candidates; draining neighbors are candidates only for traffic
// destined to themselves, so a drain stops attracting transit the
// instant the epoch lands instead of waiting for the gossip to say so.
func (n *node) recomputeRoutes() {
	nProcs := n.nw.g.N()
	for dd := range n.routes {
		d := graph.ProcessID(dd)
		r := routing.Start(n.id, d, n.nbrs, nProcs)
		for i, q := range n.nbrs {
			if n.nbrDisabled[i] || (n.nbrDraining[i] && d != q) || n.nbrDV[i] == nil {
				continue
			}
			r = r.Relax(q, n.nbrDV[i][d], nProcs) // keeps Start's (0, n.id) at d == n.id
		}
		if n.routes[d].Dist != r.Dist {
			// A draining node advertises a fixed vector (advertised), so
			// its own distances moving changes nothing on the wire.
			n.dvDirty = n.dvDirty || !n.draining
		}
		n.routes[d] = r
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
		n.dirty.add(o.Dest)
		if o.Dest == n.id {
			// Final hop: start the destination-side wait clock R6 reads.
			ds.rAtNS = n.nw.clk.Nanos()
		}
		n.ack(from, o.Dest, o.Seq)
	case !ds.hasParked || ds.parkedFrom == from:
		// Buffer occupied: park the offer (a retransmit from the same
		// sender just refreshes the slot). A second sender keeps
		// retransmitting; one parked offer per destination is enough to
		// make the common single-chain pipeline event-driven.
		if !ds.hasParked {
			ds.parkedAtNS = n.nw.clk.Nanos()
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
	n.dirty.add(d) // a bufR waiting on this buffer can move now
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

// advertised builds the vector to gossip. A draining node advertises
// infinity everywhere but itself — in-flight deliveries to it complete,
// nothing new routes through it — whatever its own distances say, so it
// builds that vector once per epoch.
func (n *node) advertised() []int {
	dv := make([]int, len(n.routes))
	for d, r := range n.routes {
		dv[d] = r.Dist
		if n.draining && graph.ProcessID(d) != n.id {
			dv[d] = n.nw.g.N()
		}
	}
	return dv
}

// driveTransfer puts the offer for an occupied emission buffer on the
// wire, or its cancel when routing has moved away from the offered
// target, and sets the deadline for the retransmission. A fresh
// occupancy (offerSeq == 0) is issued a sequence first.
func (n *node) driveTransfer(d graph.ProcessID) {
	ds := &n.dests[d]
	if !ds.hasE || d == n.id {
		return
	}
	if ds.offerSeq == 0 {
		ds.offerSeq = n.nextSeq
		n.nextSeq++
		ds.offerTarget = n.routes[d].Parent
	}
	ds.due = n.nw.clk.Nanos() + offerRetransmitTicks*int64(n.nw.opts.Tick)
	if w := n.owner.Load(); w != nil {
		w.push(deadline{due: ds.due, n: n, dest: d, seq: ds.offerSeq})
	}
	if ds.offerTarget == n.routes[d].Parent {
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
// arrival to its delivery, and a self-send all the way through. R2 and R6
// visit only the dirty destinations and R1 only those with queued sends;
// R1 runs again whenever R2 freed a buffer it may fill.
func (n *node) localMoves() {
	n.internalMoves()
	for n.acceptPending() && n.internalMoves() {
	}
}

// internalMoves settles every dirty destination and reports whether a
// bufR was freed. A destination marked again while it settles (a parked
// offer accepted into the freed buffer) is settled again in the same
// call.
func (n *node) internalMoves() (freed bool) {
	for w := range n.dirty {
		for n.dirty[w] != 0 {
			b := bits.TrailingZeros64(n.dirty[w])
			n.dirty[w] &^= 1 << b
			if n.settle(graph.ProcessID(w<<6 | b)) {
				freed = true
			}
		}
	}
	return freed
}

// settle applies R2 to destination d — and R6 when d is this node — and
// puts an emission buffer that was never offered on the wire. It reports
// whether bufR was freed.
func (n *node) settle(d graph.ProcessID) bool {
	ds := &n.dests[d]
	if d == n.id && ds.hasE {
		n.consume()
	}
	if !ds.hasR || ds.hasE {
		if ds.hasE && ds.offerSeq == 0 {
			// Occupied but not offered: the start state or an epoch
			// restart left it so.
			n.driveTransfer(d)
		}
		return false
	}
	// R2: internal move. Hop-level exactly-once is carried by the
	// handshake sequences in this port; the color field is kept populated
	// for observability only.
	m := ds.bufR
	m.Color = n.rng.Intn(n.nw.g.MaxDegree() + 1)
	ds.bufE = m
	ds.hasE = true
	ds.bufR = Message{}
	ds.hasR = false
	ds.offerSeq = 0 // fresh occupancy, fresh handshake
	n.tg.bufR.Add(-1)
	n.tg.bufE.Add(1)
	if d == n.id {
		n.consume()
	} else {
		n.driveTransfer(d)
	}
	if ds.hasParked {
		// bufR just freed: accept the parked offer now. Re-running
		// handleOffer keeps every watermark check in one place (a cancel
		// may have raised killed since the offer parked).
		o, from, parkedAt := ds.parked, ds.parkedFrom, ds.parkedAtNS
		ds.parked, ds.hasParked = transport.Offer{}, false
		n.tg.parked.Add(-1)
		n.handleOffer(from, o)
		if ds.hasR && ds.bufR.UID == o.Msg.UID {
			// The parked offer was accepted (not refused by a raised
			// watermark): the slot wait is park time the message spent at
			// this congested hop.
			wait := n.nw.clk.Nanos() - parkedAt
			n.nw.tel.compPark.Observe(wait)
			if hs := n.nw.opts.HoldStamp; hs != nil {
				if p, ok := hs(ds.bufR.Payload, wait); ok {
					ds.bufR.Payload = p
				}
			}
		}
	}
	return true
}

// consume is R6: the destination hands its emission buffer up. The wait
// since the message landed in this node's bufR is the "deliver"
// attribution component; it rides the Delivery struct (the destination
// never rewrites the payload tag).
func (n *node) consume() {
	self := &n.dests[n.id]
	var wait int64
	if self.rAtNS != 0 {
		wait = n.nw.clk.Nanos() - self.rAtNS
		self.rAtNS = 0
	}
	n.nw.deliver(Delivery{Msg: self.bufE, At: n.id, DeliverWaitNS: wait})
	self.bufE = Message{}
	self.hasE = false
	n.tg.bufE.Add(-1)
}

// acceptPending is R1: accept pending higher-layer messages wherever the
// destination's bufR is free, and report whether any was accepted. The
// lock-free occupancy check keeps an idle R1 at one atomic load per pass;
// a busy one visits only the destinations with queued sends.
func (n *node) acceptPending() (accepted bool) {
	if n.tg.pending.Load() == 0 {
		return false
	}
	hs := n.nw.opts.HoldStamp
	now := n.nw.clk.Nanos()
	n.mu.Lock()
	for w := range n.pending {
		for word := n.pending[w]; word != 0; word &= word - 1 {
			d := graph.ProcessID(w<<6 | bits.TrailingZeros64(word))
			pq := &n.pendingByDest[d]
			if pq.head >= len(pq.q) {
				n.pending.remove(d)
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
			n.dirty.add(d)
			accepted = true
			if d == n.id {
				ds.rAtNS = now // self-send: the source is the final hop
			}
			pq.q[pq.head] = pendEntry{} // release the payload reference
			pq.head++
			if pq.head == len(pq.q) {
				pq.q = pq.q[:0] // drained: reuse the backing array
				pq.head = 0
				n.pending.remove(d)
			}
			n.tg.pending.Add(-1)
		}
	}
	n.mu.Unlock()
	return accepted
}

// markAll marks every destination dirty and pending, so the next pass
// looks at each once: what a node starts or resumes from after an epoch
// is not known to the sets. Caller holds the barrier (or the node has
// not started).
func (n *node) markAll() {
	n.dirty = fullDestSet(len(n.dests))
	n.mu.Lock()
	n.pending = fullDestSet(len(n.pendingByDest))
	n.mu.Unlock()
}
