package msgpass

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	"ssmfp/internal/transport"
)

// This file is the elastic half of the port: a running Network can move
// between topology epochs — nodes join, nodes leave, links appear and
// disappear — without restarting and without touching the hot paths.
//
// The protocol side needs no new mechanism: snap-stabilization is exactly
// the property that the protocol behaves to spec from an arbitrary
// configuration, so "the topology changed under a running network" is just
// another arbitrary configuration to stabilize from. What this file adds
// is the engineering around that fact: a stop-the-world barrier that
// applies the new epoch atomically per process (every worker parks, the
// per-node state is re-shaped for the new graph, the wire gains and loses
// links, fresh workers take the nodes over), plus drain semantics that let a
// node leave without losing a message.
//
// Message safety across an epoch:
//
//   - Buffer contents (bufR/bufE) and pending higher-layer sends are never
//     touched: whatever a node held before the epoch it still holds after.
//   - Routing state is reset pessimistically (dist = n, the DV infinity)
//     and re-converges by gossip, exactly like recovery from corrupted
//     initial state.
//   - An outstanding offer whose target is no longer a neighbor restarts
//     its handshake (offerSeq = 0) and re-offers to the new parent —
//     unless the target runs in the same instance and its watermark shows
//     it already stored the offer, in which case the sender erases. When
//     the target is in another process, a forced cut can duplicate a
//     message (the old target may have accepted moments before the cut
//     took the accept down with it); the operator plane's graceful
//     two-phase cut — disable the edge for routing in one epoch, remove
//     it only after the edge quiesces — avoids the race entirely, which
//     experiment E-X7's churn scenario verifies end to end.
//   - A parked offer whose sender is no longer a neighbor is evicted: the
//     sender still owns the message (no accept was sent) and re-offers on
//     its own side of the cut.
//   - Acceptance watermarks for a newly added neighbor are cleared: a
//     re-admitted slot is a new incarnation whose sequence numbers restart.
type Epoch struct {
	// Seq is the epoch number; a Network applies strictly increasing
	// sequences and rejects the rest with ErrStaleEpoch.
	Seq uint64
	// Graph is the new topology, frozen (FreezeIsolated for graphs with
	// detached slots). Slots are grow-only: Graph.N() must not shrink —
	// a node that left keeps its slot, isolated, ready for re-admission.
	Graph *graph.Graph
	// Draining lists processors that are leaving: they refuse new Send
	// injections (ErrDraining), advertise infinite distance for every
	// destination but themselves (in-flight deliveries to them complete),
	// and hand their buffered messages off to live neighbors. Neighbors
	// additionally stop routing through them the instant the epoch lands,
	// without waiting for the gossip.
	Draining []graph.ProcessID
	// Disabled lists edges that remain on the wire but must not carry new
	// routes — phase one of the graceful two-phase link cut. Outstanding
	// handshakes on a disabled edge complete normally; once the edge
	// quiesces, the next epoch removes it from Graph for real.
	Disabled [][2]graph.ProcessID
}

// ErrDraining is returned by Send when the source processor is draining:
// it is handing off its buffered messages and accepts no new work.
var ErrDraining = errors.New("msgpass: processor is draining")

// ErrStaleEpoch is returned by ApplyEpoch for an epoch sequence at or
// below the one already applied — the operator's push arrived late or
// twice; the network's state is already at least as new.
var ErrStaleEpoch = errors.New("msgpass: stale epoch")

// ErrNotLocal is returned by Send when the source processor is not a
// running member of this Network instance (never was, or left the
// cluster in an earlier epoch).
var ErrNotLocal = errors.New("msgpass: source processor not local to this deployment")

// ErrNotMember is returned by Send when the destination is outside the
// current topology or is a detached slot — the message could never be
// delivered, however long routing stabilizes.
var ErrNotMember = errors.New("msgpass: destination is not a cluster member")

// netView is the atomically-swapped read surface for goroutines outside
// the barrier (Send, QueueDepths, status snapshots). Workers are
// parked across every swap, so they read the Network's fields directly;
// everyone else loads the view pointer — one atomic load, no locks, no
// allocations on the send hot path.
type netView struct {
	epoch      uint64
	g          *graph.Graph
	nodes      []*node
	local      []graph.ProcessID
	draining   []bool
	namespaced bool
}

// pauseReq is one stop-the-world request: every worker finds it in its
// own pause slot, signals arrival, and parks until release closes.
type pauseReq struct {
	arrived sync.WaitGroup
	release chan struct{}
}

// CurrentEpoch returns the sequence number of the last applied epoch
// (zero for a network still on its construction topology).
func (nw *Network) CurrentEpoch() uint64 { return nw.view.Load().epoch }

// Graph returns the current topology. The pointer is immutable; a later
// epoch replaces it rather than mutating it.
func (nw *Network) Graph() *graph.Graph { return nw.view.Load().g }

// Members returns the processors that are cluster members under the
// current topology: every slot with at least one incident link (plus the
// degenerate single-processor deployment).
func (nw *Network) Members() []graph.ProcessID {
	return membersOf(nw.view.Load().g)
}

func membersOf(g *graph.Graph) []graph.ProcessID {
	if g.N() == 1 {
		return []graph.ProcessID{0}
	}
	ms := make([]graph.ProcessID, 0, g.N())
	for p := 0; p < g.N(); p++ {
		if g.Degree(graph.ProcessID(p)) > 0 {
			ms = append(ms, graph.ProcessID(p))
		}
	}
	return ms
}

// Draining reports whether p is currently draining.
func (nw *Network) Draining(p graph.ProcessID) bool {
	v := nw.view.Load()
	return int(p) < len(v.draining) && v.draining[p]
}

// Quiesced reports whether local processor p holds no work: no pending
// higher-layer sends, no occupied buffers, no parked offers, and an empty
// inbox. It reads atomic gauges and, under the node's lock, the inbox
// length, so it is safe from any goroutine at any time. A processor that
// is not local (or has detached) is vacuously quiesced. Note that
// quiescence of p alone does not mean nothing is in flight toward p — use
// InFlightFor for the cluster-side half of the drain check.
func (nw *Network) Quiesced(p graph.ProcessID) bool {
	v := nw.view.Load()
	if int(p) >= len(v.nodes) || v.nodes[p] == nil {
		return true
	}
	n := v.nodes[p]
	n.mu.Lock()
	inbox := len(n.inbox)
	n.mu.Unlock()
	return n.tg.pending.Load() == 0 &&
		n.tg.bufR.Load() == 0 &&
		n.tg.bufE.Load() == 0 &&
		n.tg.parked.Load() == 0 &&
		inbox == 0
}

// InFlightFor counts, across this instance's local processors, everything
// still addressed to destination d: pending sends, occupied buffers, and
// parked offers. It runs under the pause barrier (the workers park for
// the inspection), so the count is a consistent snapshot — the
// drain orchestrator polls it to zero before detaching d.
func (nw *Network) InFlightFor(d graph.ProcessID) int {
	total := 0
	nw.inspect(func() {
		for _, p := range nw.running {
			n := nw.nodes[p]
			if n == nil || int(d) >= len(n.dests) {
				continue
			}
			ds := &n.dests[d]
			if ds.hasR {
				total++
			}
			if ds.hasE {
				total++
			}
			if ds.hasParked {
				total++
			}
			n.mu.Lock()
			if int(d) < len(n.pendingByDest) {
				pq := &n.pendingByDest[d]
				total += len(pq.q) - pq.head
			}
			n.mu.Unlock()
		}
	})
	return total
}

// inspect parks every worker, runs fn (which may read worker-owned node
// state), and releases.
func (nw *Network) inspect(fn func()) {
	nw.epochMu.Lock()
	defer nw.epochMu.Unlock()
	if nw.stopped.Load() {
		fn() // goroutines are gone; direct reads are already safe
		return
	}
	req := nw.pauseAll()
	fn()
	if req != nil {
		close(req.release)
	}
}

// pauseAll posts one pause request in every worker's pause slot, wakes
// the worker, and waits until all have parked. Caller holds epochMu and
// must close the returned release channel. Returns nil when no worker
// runs (network not started, or all nodes detached). Stop also takes
// epochMu before it sets the workers' quit flags, so every worker is
// alive to arrive.
func (nw *Network) pauseAll() *pauseReq {
	if len(nw.workers) == 0 {
		return nil
	}
	req := &pauseReq{release: make(chan struct{})}
	req.arrived.Add(len(nw.workers))
	for _, w := range nw.workers {
		w.pause.Store(req)
		w.wakeUp()
	}
	req.arrived.Wait()
	return req
}

// ApplyEpoch moves the network to epoch e: the wire gains the new links,
// every worker parks at the barrier, per-node state is re-shaped for the
// new graph (buffers and pending work preserved, routing reset
// pessimistically, handshakes retargeted, drain flags set), and a fresh
// set of workers takes over the new running set — newly local processors
// included, detached ones left out — as the old workers exit. Epochs are
// serialized; concurrent Send/Deliveries/QueueDepths callers keep working
// against the previous view until the atomic swap.
//
// Whole-graph instances (Options.Procs nil) adopt every member of the new
// graph as local; node-scoped instances stay pinned to their configured
// processor set and simply follow its membership.
func (nw *Network) ApplyEpoch(e Epoch) error {
	if e.Graph == nil || !e.Graph.Frozen() {
		return errors.New("msgpass: ApplyEpoch needs a frozen graph")
	}
	nw.epochMu.Lock()
	defer nw.epochMu.Unlock()
	if nw.stopped.Load() {
		return ErrStopped
	}
	v := nw.view.Load()
	if e.Seq <= v.epoch {
		return fmt.Errorf("%w: have %d, got %d", ErrStaleEpoch, v.epoch, e.Seq)
	}
	oldG, newG := nw.g, e.Graph
	if newG.N() < oldG.N() {
		return fmt.Errorf("msgpass: epoch %d shrinks the slot space %d -> %d (slots are grow-only)", e.Seq, oldG.N(), newG.N())
	}
	draining := make([]bool, newG.N())
	for _, p := range e.Draining {
		if int(p) >= newG.N() {
			return fmt.Errorf("msgpass: epoch %d drains unknown processor %d", e.Seq, p)
		}
		draining[p] = true
	}
	disabled := make(map[[2]graph.ProcessID]bool, len(e.Disabled))
	for _, ed := range e.Disabled {
		disabled[edgeKeyOf(ed[0], ed[1])] = true
	}
	added, removed := edgeDiff(oldG, newG)
	var el transport.Elastic
	if len(added)+len(removed) > 0 {
		var ok bool
		if el, ok = nw.tr.(transport.Elastic); !ok {
			return fmt.Errorf("msgpass: epoch %d changes edges but transport %T is not elastic", e.Seq, nw.tr)
		}
	}
	// Grow the wire first: additive and idempotent, and it can fail (a TCP
	// transport without the new peer's address), in which case nothing has
	// been disturbed yet.
	for _, ed := range added {
		if err := el.EnsureLink(ed[0], ed[1]); err != nil {
			return fmt.Errorf("msgpass: epoch %d: %w", e.Seq, err)
		}
		if err := el.EnsureLink(ed[1], ed[0]); err != nil {
			return fmt.Errorf("msgpass: epoch %d: %w", e.Seq, err)
		}
	}

	req := nw.pauseAll()

	// --- stop-the-world section ---
	member := make([]bool, newG.N())
	for _, p := range membersOf(newG) {
		member[p] = true
	}
	nw.settleCutOffers(newG, member)
	nodes := make([]*node, newG.N())
	copy(nodes, nw.nodes)

	want := nw.procsWant
	if want == nil {
		want = newG.Processors()
	}
	running := make([]graph.ProcessID, 0, len(want))
	for _, p := range want {
		if !member[p] {
			if n := nodes[p]; n != nil {
				// Detach: no worker serves it after release. Buffers of
				// a gracefully drained node are empty by now; a forced
				// removal abandons whatever is left (the operator asked
				// for it).
				if n.draining {
					nw.tel.drainsCompleted.Inc()
				}
				nodes[p] = nil
			}
			continue
		}
		n := nodes[p]
		if n == nil {
			// Joining (or re-admitted) processor: a fresh node with a
			// deterministic private stream derived from (Seed, id).
			n = newNode(nw, p, rand.New(rand.NewSource(nw.opts.Seed^(int64(p)+1)*0x9E3779B9)), newG)
			nodes[p] = n
		} else {
			n.applyEpoch(newG, draining, disabled)
		}
		wasDraining := n.draining
		n.draining = draining[p]
		if n.draining && !wasDraining {
			nw.tel.drainsStarted.Inc()
		}
		running = append(running, p)
	}

	nw.g = newG
	nw.nodes = nodes
	nw.running = running
	nw.view.Store(&netView{
		epoch:      e.Seq,
		g:          newG,
		nodes:      nodes,
		local:      running,
		draining:   draining,
		namespaced: len(running) != newG.N(),
	})
	nw.tel.epoch.Set(int64(e.Seq))
	nw.tel.members.Set(int64(len(membersOf(newG))))
	if nw.started {
		for _, w := range nw.workers {
			w.quit.Store(true) // exits on release
		}
		nw.workers = nw.newWorkers(running)
	}
	// --- end stop-the-world section ---

	if req != nil {
		close(req.release)
	}
	if nw.started {
		nw.startWorkers()
	}
	if len(added) > 0 {
		// A joining processor always brings an edge, so this covers it.
		for _, p := range running {
			nw.registerNodeWire(nodes[p])
		}
	}
	// Tear removed links down last. Frames the dead links already queued
	// at a receiver are dropped by its handle, which admits only current
	// neighbors (other processes sharing the transport drop their frames
	// until their own epoch lands — congestion losses, recovered by
	// retransmission).
	for _, ed := range removed {
		el.DropLink(ed[0], ed[1])
		el.DropLink(ed[1], ed[0])
	}
	return nil
}

// settleCutOffers resolves the handshakes in flight on edges the epoch
// removes, where the target runs in this instance and stays a member:
// its acceptance watermark says whether it stored the offer, so a stored
// one is erased at the sender (its accept, still queued, would be dropped
// at handle as coming from a non-neighbor) instead of being offered
// again elsewhere — no duplicate. Offers the target never stored restart
// in applyEpoch. Caller holds the barrier.
func (nw *Network) settleCutOffers(newG *graph.Graph, member []bool) {
	for _, p := range nw.running {
		n := nw.nodes[p]
		for d := range n.dests {
			ds := &n.dests[d]
			q := ds.offerTarget
			if ds.offerSeq == 0 || newG.HasEdge(p, q) || !member[q] {
				continue
			}
			if t := nw.nodes[q]; t != nil && t.dests[d].accepted[p] >= ds.offerSeq {
				n.erase(graph.ProcessID(d))
			}
		}
	}
}

// edgeKeyOf canonicalizes an undirected edge.
func edgeKeyOf(u, v graph.ProcessID) [2]graph.ProcessID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.ProcessID{u, v}
}

// edgeDiff returns newG's edges missing from oldG and vice versa.
func edgeDiff(oldG, newG *graph.Graph) (added, removed [][2]graph.ProcessID) {
	oldE := make(map[[2]graph.ProcessID]bool, oldG.M())
	for _, e := range oldG.Edges() {
		oldE[e] = true
	}
	newE := make(map[[2]graph.ProcessID]bool, newG.M())
	for _, e := range newG.Edges() {
		newE[e] = true
		if !oldE[e] {
			added = append(added, e)
		}
	}
	for _, e := range oldG.Edges() {
		if !newE[e] {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// applyEpoch re-shapes one surviving node for the new graph. Its worker
// is parked at the barrier; only buffer contents and pending
// sends survive untouched — routing restarts pessimistically and
// handshakes whose counterpart is gone restart too.
func (n *node) applyEpoch(newG *graph.Graph, draining []bool, disabled map[[2]graph.ProcessID]bool) {
	oldNbr := make(map[graph.ProcessID]bool, len(n.nbrs))
	for _, q := range n.nbrs {
		oldNbr[q] = true
	}
	n.nbrs = newG.Neighbors(n.id)
	newN := newG.N()

	// Routing: pessimistic restart, exactly like recovery from corrupted
	// initial state — the DV heartbeat re-converges in O(D) rounds.
	n.nbrDV = make([][]int, len(n.nbrs))
	n.nbrDisabled = make([]bool, len(n.nbrs))
	n.nbrDraining = make([]bool, len(n.nbrs))
	for i, q := range n.nbrs {
		n.nbrDisabled[i] = disabled[edgeKeyOf(n.id, q)]
		n.nbrDraining[i] = draining[q]
	}
	n.routes = make([]routing.Route, newN)
	for d := range n.routes {
		n.routes[d] = routing.Start(n.id, graph.ProcessID(d), n.nbrs, newN)
	}
	n.dvDirty = true
	n.gossip = nil // gossiped within a Tick, heartbeat restarts at heartbeatMinTicks

	// Grow the per-destination state. Slots never shrink, so surviving
	// indices keep their buffers and watermarks.
	if newN > len(n.dests) {
		dests := make([]destState, newN)
		copy(dests, n.dests)
		for d := len(n.dests); d < newN; d++ {
			dests[d].accepted = make(map[graph.ProcessID]uint64)
			dests[d].killed = make(map[graph.ProcessID]uint64)
		}
		n.dests = dests
		n.mu.Lock()
		pbd := make([]pendQueue, newN)
		copy(pbd, n.pendingByDest)
		n.pendingByDest = pbd
		n.mu.Unlock()
	}

	for d := range n.dests {
		ds := &n.dests[d]
		// An outstanding offer to a vanished neighbor restarts; see the
		// file comment for the forced-cut duplication caveat.
		if ds.offerSeq != 0 && !newG.HasEdge(n.id, ds.offerTarget) {
			ds.offerSeq = 0
		}
		// A parked offer from a vanished neighbor is evicted — the sender
		// still owns the message.
		if ds.hasParked && !newG.HasEdge(n.id, ds.parkedFrom) {
			ds.parked = transport.Offer{}
			ds.hasParked = false
			n.tg.parked.Add(-1)
			n.nw.tel.parkEvictions.Inc()
		}
		// A newly added neighbor is a new incarnation: its sequence
		// numbers restart, so stale watermarks must not refuse them.
		for _, q := range n.nbrs {
			if !oldNbr[q] {
				delete(ds.accepted, q)
				delete(ds.killed, q)
			}
		}
	}

	// Buffers, handshakes and pending sends changed under the sets that
	// track them: R1 and R2 look at every destination once more.
	n.markAll()

	// Rebuild the outgoing link cache against the (already ensured) wire;
	// it is also the neighbor set handle admits frames from.
	out := make(map[graph.ProcessID]transport.Link, len(n.nbrs))
	for _, q := range n.nbrs {
		out[q] = n.nw.tr.Link(n.id, q)
	}
	n.outp.Store(&out)
	if n.inbox == nil {
		// A processor that had no neighbor (a one-node deployment) gets
		// its inbox with its first link.
		inbox := n.nw.inboxOf(n.id, n.nbrs)
		n.mu.Lock()
		n.inbox = inbox
		n.mu.Unlock()
	}
}
