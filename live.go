package ssmfp

import (
	"net/http"
	"time"

	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// LiveNetwork runs the protocol in the message-passing model: one
// goroutine per processor, Go channels as asynchronous links, distance-
// vector routing gossip, and an offer/accept/cancel handshake realizing
// the hop transfer with exactly-once semantics — the engineering answer to
// the paper's closing open problem. Links may drop frames; retransmission
// recovers them.
type LiveNetwork struct {
	nw    *msgpass.Network
	tr    transport.Transport // the network's wire, closed after the network stops
	bound int                 // invalid deliveries allowed per destination: 0, or 2n from a corrupt start
}

// LiveOptions tunes a LiveNetwork.
type LiveOptions struct {
	// Seed drives loss and corruption randomness.
	Seed int64
	// LossRate drops each frame with this probability (0..1).
	LossRate float64
	// DupRate delivers each frame twice with this probability (0..1).
	DupRate float64
	// Latency and Jitter delay each frame by base + uniform extra; jitter
	// makes consecutive frames overtake each other (genuine reordering).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBps caps each directed link at this many encoded frame
	// bytes per second (0 = unlimited), modelling a real line rate.
	BandwidthBps int
	// CorruptStart randomizes the initial routing state and plants garbage
	// messages in buffers.
	CorruptStart bool
	// Tick is the base unit of the nodes' gossip and retransmission
	// deadlines (default 200µs; see msgpass.Options.Tick).
	Tick time.Duration
}

// NewLiveNetwork builds and starts a message-passing deployment on t.
// Call Close when done.
func NewLiveNetwork(t *Topology, opts LiveOptions) *LiveNetwork {
	tr := transport.Impair(transport.NewChan(t, transport.DefaultDepth), transport.ChaosOptions{
		Seed:         opts.Seed,
		LossRate:     opts.LossRate,
		DupRate:      opts.DupRate,
		Latency:      opts.Latency,
		Jitter:       opts.Jitter,
		BandwidthBps: opts.BandwidthBps,
	})
	nw := msgpass.New(t, msgpass.Options{
		Seed:        opts.Seed,
		CorruptInit: opts.CorruptStart,
		Tick:        opts.Tick,
		Transport:   tr,
	})
	nw.Start()
	l := &LiveNetwork{nw: nw, tr: tr}
	if opts.CorruptStart {
		l.bound = 2 * t.N()
	}
	return l
}

// ErrClosed is returned by Send on a LiveNetwork that has been closed.
var ErrClosed = msgpass.ErrStopped

// Send injects a message and returns a tracking ID. After Close it
// returns ErrClosed instead of injecting (load generators race shutdown;
// a closed network must refuse work, not panic).
func (l *LiveNetwork) Send(src, dst ProcessID, payload string) (uint64, error) {
	return l.nw.Send(src, payload, dst)
}

// WaitDelivered blocks until at least k messages (valid or not) have been
// delivered, or the timeout elapses. On a closed network it returns
// promptly: true if the threshold was already met, false otherwise.
func (l *LiveNetwork) WaitDelivered(k int, timeout time.Duration) bool {
	return l.nw.WaitDelivered(k, timeout)
}

// Deliveries returns a snapshot of deliveries so far.
func (l *LiveNetwork) Deliveries() []Delivery {
	var out []Delivery
	l.nw.EachDelivery(func(d *msgpass.Delivery) {
		out = append(out, Delivery{
			Payload: d.Msg.Payload, From: d.Msg.Src, To: d.At, Valid: d.Msg.Valid,
		})
	})
	return out
}

// DeliveredExactlyOnce reports whether every UID in ids was delivered
// exactly once so far, valid and at its destination, with no destination
// over the invalid deliveries a clean (none) or corrupt (2n) start
// allows. It folds the delivery log through a spec.Ledger in one pass,
// without copying it, so callers may poll it.
func (l *LiveNetwork) DeliveredExactlyOnce(ids ...uint64) bool {
	ledger := spec.New(l.bound)
	asked := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		asked[id] = true
	}
	l.nw.EachDelivery(func(d *msgpass.Delivery) {
		k := spec.Key{UID: d.Msg.UID}
		if _, sent := ledger.Index(k); d.Msg.Valid && asked[k.UID] && !sent {
			ledger.Sent(k, d.Msg.Dest) // a message carries its destination from Send
		}
		if !d.Msg.Valid || asked[k.UID] {
			ledger.Delivered(k, d.At, d.Msg.Valid)
		}
	})
	v := ledger.Verdict()
	return v.OK() && v.Delivered == len(asked)
}

// LiveStatus is a point-in-time introspection snapshot of a running
// LiveNetwork: delivery progress, wire-level frame counters, and per-node
// queue occupancy.
type LiveStatus struct {
	Deliveries     int         `json:"deliveries"`
	DVSent         int         `json:"dvSent"`
	OffersSent     int         `json:"offersSent"`
	AcceptsSent    int         `json:"acceptsSent"`
	CancelsSent    int         `json:"cancelsSent"`
	CancelAcksSent int         `json:"cancelAcksSent"`
	FramesLost     int         `json:"framesLost"` // loss injector + congestion drops
	Queues         []LiveQueue `json:"queues"`
}

// LiveQueue is one node's queue occupancy: unprocessed incoming frames,
// higher-layer sends not yet accepted, occupied buffers, offers parked
// while bufR is busy, and frames sitting in the node's outbound wire
// queues. All counts are exact at the snapshot instant (event-driven,
// not tick-sampled). PendingByDest breaks Pending down by destination —
// only destinations with queued messages appear, so a congested route
// is visible at a glance.
type LiveQueue struct {
	Proc          ProcessID         `json:"proc"`
	Inbox         int               `json:"inbox"`
	Pending       int               `json:"pending"`
	PendingByDest map[ProcessID]int `json:"pendingByDest,omitempty"`
	BufR          int               `json:"bufR"`
	BufE          int               `json:"bufE"`
	Parked        int               `json:"parked"`
	WireOut       int               `json:"wireOut"`
}

// Status snapshots the network's live counters; safe to call from any
// goroutine while the network runs.
func (l *LiveNetwork) Status() LiveStatus {
	st := l.nw.Stats()
	out := LiveStatus{
		Deliveries:     l.nw.Delivered(),
		DVSent:         st.DVSent,
		OffersSent:     st.OffersSent,
		AcceptsSent:    st.AcceptsSent,
		CancelsSent:    st.CancelsSent,
		CancelAcksSent: st.CancelAcksSent,
		FramesLost:     int(st.Wire.DroppedImpair + st.Wire.DroppedFull),
	}
	for _, q := range l.nw.QueueDepths() {
		out.Queues = append(out.Queues, LiveQueue{
			Proc: q.Proc, Inbox: q.Inbox, Pending: q.Pending,
			PendingByDest: q.PendingByDest,
			BufR:          q.BufR, BufE: q.BufE, Parked: q.Parked, WireOut: q.WireOut,
		})
	}
	return out
}

// MetricsHandler returns the network's Prometheus text endpoint — mount
// it at /metrics (obs.HandlerWith does this for the debug mux). The
// handler stays valid after Close; it serves the final counter values.
func (l *LiveNetwork) MetricsHandler() http.Handler {
	return telemetry.Handler(l.nw.Telemetry())
}

// Close stops every processor goroutine and waits for them. Close is
// idempotent: further calls are no-ops, and a closed network keeps
// serving Deliveries, Status, and DeliveredExactlyOnce snapshots.
func (l *LiveNetwork) Close() {
	l.nw.Stop()
	l.tr.Close()
}
