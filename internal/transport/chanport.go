package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ssmfp/internal/graph"
)

// Chan is the in-process backend: one buffered Go channel per receiving
// processor, shared by every link into it. It is whole-graph scoped —
// both ends of every link live in this process — and lossless except for
// congestion: a Send into a full inbox drops the frame (retransmission
// recovers it). Chan is elastic: links can be added and removed at
// runtime (EnsureLink / DropLink), which is how an in-process deployment
// rides an epoch transition.
type Chan struct {
	depth  int
	closed atomic.Bool

	mu    sync.RWMutex
	links map[[2]graph.ProcessID]*chanLink
	inbox map[graph.ProcessID]*chanInbox
}

// chanInbox is one receiving processor's queue and its arrival hook.
type chanInbox struct {
	ch      chan Frame
	arrival atomic.Pointer[func()]
}

// DefaultDepth is the per-link buffer when the caller passes a
// non-positive depth.
const DefaultDepth = 64

// NewChan builds the channel transport for every directed edge of g.
// Each processor's inbox buffers depth frames per incoming edge of g
// (≤0 selects DefaultDepth), so a busier processor gets more room.
func NewChan(g *graph.Graph, depth int) *Chan {
	if depth <= 0 {
		depth = DefaultDepth
	}
	c := &Chan{
		depth: depth,
		links: make(map[[2]graph.ProcessID]*chanLink, 2*g.M()),
		inbox: make(map[graph.ProcessID]*chanInbox, g.N()),
	}
	for _, p := range g.Processors() {
		if deg := g.Degree(p); deg > 0 {
			c.inbox[p] = &chanInbox{ch: make(chan Frame, depth*deg)}
		}
	}
	for _, e := range g.Edges() {
		c.addLinkLocked(e[0], e[1])
		c.addLinkLocked(e[1], e[0])
	}
	return c
}

// addLinkLocked creates the link from→to over to's inbox. Caller holds
// mu, or is still in NewChan.
func (c *Chan) addLinkLocked(from, to graph.ProcessID) {
	c.links[[2]graph.ProcessID{from, to}] = &chanLink{tr: c, in: c.inboxLocked(to)}
}

// inboxLocked returns p's inbox, creating it (one link's depth) for a
// processor no link reached before. Caller holds mu, or is in NewChan.
func (c *Chan) inboxLocked(p graph.ProcessID) *chanInbox {
	in, ok := c.inbox[p]
	if !ok {
		in = &chanInbox{ch: make(chan Frame, c.depth)}
		c.inbox[p] = in
	}
	return in
}

// OnArrival sets p's hook, fired by every Send into p's inbox.
func (c *Chan) OnArrival(p graph.ProcessID, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inboxLocked(p).arrival.Store(&fn)
}

// Link returns the directed link from→to; it panics on a non-edge, as
// the original msgpass wiring did. Edges added after construction must
// have been announced with EnsureLink first.
func (c *Chan) Link(from, to graph.ProcessID) Link {
	c.mu.RLock()
	l, ok := c.links[[2]graph.ProcessID{from, to}]
	c.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("transport: no link %d→%d", from, to))
	}
	return l
}

// EnsureLink creates the directed link from→to if it does not exist.
func (c *Chan) EnsureLink(from, to graph.ProcessID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.links[[2]graph.ProcessID{from, to}]; !ok {
		c.addLinkLocked(from, to)
	}
	return nil
}

// DropLink removes the directed link from→to. The receiver's inbox
// stays: other links still feed it, and frames the dropped link already
// delivered are the receiver's to discard. Sends on a stale handle drop
// and count as congestion losses.
func (c *Chan) DropLink(from, to graph.ProcessID) {
	key := [2]graph.ProcessID{from, to}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.links[key]; ok {
		l.dead.Store(true)
		delete(c.links, key)
	}
}

// Stats sums the per-link counters.
func (c *Chan) Stats() Stats {
	var s Stats
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, l := range c.links {
		ls := l.Stats()
		s.FramesSent += ls.Sent
		s.FramesRecvd += ls.Recvd
		s.DroppedFull += ls.DroppedFull
		s.BytesSent += ls.BytesSent
		s.BytesRecvd += ls.BytesRecvd
	}
	return s
}

// Close marks the transport closed; subsequent Sends drop. Channels are
// left open so receivers can drain in-flight frames.
func (c *Chan) Close() error {
	c.closed.Store(true)
	return nil
}

// chanLink is one directed edge of the Chan backend; in is the receiving
// processor's inbox, shared with its other incoming links.
type chanLink struct {
	tr      *Chan
	in      *chanInbox
	dead    atomic.Bool // set by DropLink; Sends drop
	sent    atomic.Uint64
	bytes   atomic.Uint64
	dropped atomic.Uint64
}

func (l *chanLink) Send(f Frame) bool {
	if l.tr.closed.Load() || l.dead.Load() {
		l.dropped.Add(1)
		return false
	}
	select {
	case l.in.ch <- f:
		l.sent.Add(1)
		// Encoded-equivalent bytes: what this frame would cost on a real
		// wire, so byte-rate telemetry is comparable across backends.
		l.bytes.Add(uint64(EncodedSize(&f)))
		if fn := l.in.arrival.Load(); fn != nil {
			(*fn)()
		}
		return true
	default:
		l.dropped.Add(1)
		return false
	}
}

func (l *chanLink) Recv() <-chan Frame { return l.in.ch }

// Stats reports no Queued: a Chan link has no outbound queue, and the
// inbox it feeds is the receiver's, counted there.
func (l *chanLink) Stats() LinkStats {
	sent := l.sent.Load()
	bytes := l.bytes.Load()
	return LinkStats{
		// In-memory transfer is instantaneous: every frame that entered
		// the inbox has "arrived".
		Sent:        sent,
		Recvd:       sent,
		DroppedFull: l.dropped.Load(),
		BytesSent:   bytes,
		BytesRecvd:  bytes,
	}
}
