// Package transport abstracts the directed links of the message-passing
// port (S13, internal/msgpass) behind a small interface, so the same
// protocol code runs over in-process Go channels, real TCP sockets, or a
// chaos-impaired wrapper of either — the wire half of carrying SSMFP into
// "a real network" (the paper's closing open problem).
//
// A Transport hands out one Link per directed edge (u→v); the protocol
// layer sends typed Frames on the link's send end. The receive side is
// per processor, not per edge: every link into v returns v's one inbox
// from Recv, and Frame.From names the sender, so a processor reads a
// single stream of incoming frames. Every backend and wrapper calls the
// OnArrival hook right after each frame becomes readable there, so a
// receiver sleeping on one signal for several inboxes misses no frame.
// Every backend is best-effort by contract: Send may drop a frame (full
// queue, impairment, a TCP connection mid reconnect) and never blocks the
// caller — the SSMFP hop handshake's retransmission is what recovers
// losses, exactly as it recovers the simulated losses of the state model.
// Backends:
//
//   - Chan (chanport.go): buffered Go channels, one inbox per receiving
//     processor. Whole-graph scope: every link's both ends live in this
//     process.
//   - TCP (tcp.go): length-prefixed binary frames (codec.go) over real
//     sockets, one listener per node and lazily-dialed outbound
//     connections with exponential backoff + jitter. Node scope: the
//     transport serves one processor; each SSMFP node can be its own OS
//     process (cmd/ssmfp-node).
//   - Chaos (chaos.go): a deterministic-under-seed impairment wrapper
//     composable over either backend — latency/jitter, loss, duplication,
//     genuine reordering, bandwidth caps, and scheduled partition/heal
//     windows.
//
// The package sits below msgpass and may import only internal/graph. A
// transport reports through its Stats counters (dials, redials, frames,
// drops), which the live node exports on its telemetry plane (/metrics);
// it publishes no events.
package transport

import (
	"ssmfp/internal/graph"
)

// Message is the wire image of one higher-layer message. It mirrors the
// simulator's bookkeeping (UID and validity) so the same exactly-once
// oracles apply across process boundaries.
type Message struct {
	Payload string
	Color   int
	UID     uint64
	Src     graph.ProcessID
	Dest    graph.ProcessID
	Valid   bool
}

// Offer proposes the transfer of the sender's bufE occupancy for Dest;
// Seq identifies the occupancy (monotone per sender).
type Offer struct {
	Dest graph.ProcessID
	Seq  uint64
	Msg  Message
}

// Ack is the shape shared by the three control frames of the hop
// handshake (accept, cancel, cancelAck): a destination stream and the
// sequence number being acknowledged, withdrawn, or killed.
type Ack struct {
	Dest graph.ProcessID
	Seq  uint64
}

// Frame is the unit a Link carries: one typed SSMFP protocol frame.
// Kind selects the payload field; the others hold their zero values. The
// payload fields are values, not pointers: a frame crosses goroutines and
// processes by copy, so the send→wire→deliver path never heap-allocates
// per frame (BenchmarkSendHotPathParallel and BenchmarkDeliveryHotPath
// hold that to 0 allocs/op).
type Frame struct {
	Kind  FrameKind
	From  graph.ProcessID
	DV    []int // KindDV: distance vector (dist per destination)
	Offer Offer // KindOffer
	Ack   Ack   // KindAccept / KindCancel / KindCancelAck
}

// FrameKind discriminates the payload field a Frame carries.
type FrameKind uint8

// The frame kinds of wire-format version 1 (codec.go). Values are part of
// the wire format; do not renumber.
const (
	KindInvalid FrameKind = iota
	KindDV
	KindOffer
	KindAccept
	KindCancel
	KindCancelAck
)

// String names the kind for stats and telemetry labels.
func (k FrameKind) String() string {
	switch k {
	case KindDV:
		return "dv"
	case KindOffer:
		return "offer"
	case KindAccept:
		return "accept"
	case KindCancel:
		return "cancel"
	case KindCancelAck:
		return "cancelAck"
	}
	return "invalid"
}

// Link is one directed edge u→v. The sender side uses Send, the receiver
// side ranges over Recv; with a node-scoped backend (TCP) only the local
// end is operative — Send on a receive-only end (or vice versa) is a
// programming error and panics. Transport.Close releases every link.
type Link interface {
	// Send puts f on the wire, best-effort: it never blocks, and reports
	// false when the frame was dropped (full queue, active impairment,
	// link down). Callers rely on retransmission, not on the return value,
	// which exists for stats and tests.
	Send(f Frame) bool
	// Recv is the receiving processor's inbox: every link into the same
	// processor returns the same channel, carrying the frames of all its
	// incoming links, each naming its sender in Frame.From. The channel
	// is never closed while the transport is open; receivers multiplex it
	// with their own stop signal.
	Recv() <-chan Frame
	// Stats snapshots this link's counters.
	Stats() LinkStats
}

// LinkStats counts one directed link's wire activity.
type LinkStats struct {
	// Sent counts frames handed to the wire (after any impairment).
	Sent uint64
	// Recvd counts frames that arrived on Recv.
	Recvd uint64
	// DroppedFull counts frames dropped because a queue was full
	// (congestion) or the connection was down.
	DroppedFull uint64
	// DroppedImpair counts frames dropped by injected impairment (chaos
	// loss or an active partition window).
	DroppedImpair uint64
	// Duplicated counts extra copies injected by impairment.
	Duplicated uint64
	// BytesSent / BytesRecvd count frame bytes through this link: socket
	// bytes on the TCP backend, encoded-equivalent bytes (EncodedSize) on
	// the in-memory backend — so per-link byte rates mean the same thing
	// whichever wire a deployment runs on.
	BytesSent  uint64
	BytesRecvd uint64
	// Queued is the point-in-time occupancy of the link's outbound queue
	// (0 for a backend without one, such as Chan; the receiver's inbox is
	// the receiver's to count).
	Queued int
}

// Stats aggregates wire activity over a whole transport.
type Stats struct {
	FramesSent    uint64 `json:"framesSent"`
	FramesRecvd   uint64 `json:"framesRecvd"`
	DroppedFull   uint64 `json:"droppedFull"`
	DroppedImpair uint64 `json:"droppedImpair"`
	Duplicated    uint64 `json:"duplicated"`
	// BytesSent / BytesRecvd count frame bytes: socket bytes on the TCP
	// backend, encoded-equivalent bytes on the in-memory backend.
	BytesSent  uint64 `json:"bytesSent"`
	BytesRecvd uint64 `json:"bytesRecvd"`
	// Dials counts outbound connection attempts, Redials the subset that
	// were reconnections after a working connection failed (TCP only).
	Dials   uint64 `json:"dials"`
	Redials uint64 `json:"redials"`
}

// Elastic is the optional interface of transports that support runtime
// topology change — the wire half of an elastic cluster. A backend that
// implements it can gain and lose directed links while traffic flows;
// msgpass.Network.ApplyEpoch requires it whenever an epoch transition
// adds or removes edges. All three backends (Chan, TCP, Chaos) implement
// it; Chaos forwards to its inner transport.
type Elastic interface {
	// EnsureLink makes the directed link from→to available. Idempotent:
	// an existing link is left untouched. For node-scoped backends (TCP)
	// only edges incident to the local processor are meaningful; the far
	// peer's dial address must already be known (TCP.AddPeer).
	EnsureLink(from, to graph.ProcessID) error
	// DropLink tears the directed link from→to down. Idempotent. Frames
	// in flight are lost, and frames already in to's inbox stay there for
	// the receiver to discard (the handshake's retransmission machinery —
	// or the epoch protocol's graceful two-phase cut — is what keeps
	// message transfer safe); Sends on a stale handle drop and count as
	// congestion losses.
	DropLink(from, to graph.ProcessID)
}

// Transport hands out the directed links of a deployment.
type Transport interface {
	// Link returns the directed link from→to. Implementations cache
	// links: calling Link twice with the same edge returns the same Link.
	// Unknown edges panic — the topology is fixed at construction.
	Link(from, to graph.ProcessID) Link
	// Stats snapshots the transport-wide counters (for a wrapper, merged
	// with the wrapped backend's).
	Stats() Stats
	// Close shuts the transport down: goroutines stop, sockets close,
	// frames held back by impairment are dropped. Frames in flight are
	// lost.
	Close() error
	// OnArrival makes fn p's arrival hook, called right after each frame
	// becomes readable in p's inbox, on the goroutine that put it there;
	// fn must be quick and must not block. A later call replaces it; a
	// node-scoped backend ignores processors it does not serve.
	OnArrival(p graph.ProcessID, fn func())
}
