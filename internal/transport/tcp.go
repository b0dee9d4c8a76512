package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
)

// TCPOptions configures a node-scoped TCP transport.
type TCPOptions struct {
	// Local is the processor this transport serves.
	Local graph.ProcessID
	// Peers maps each neighbor of Local to its dial address. It also
	// carries Local's own listen address unless Listener is set, and may
	// carry non-neighbor entries, which are ignored. The transport copies
	// the map; later AddPeer calls extend the copy, not the caller's map.
	Peers map[graph.ProcessID]string
	// Listener, when non-nil, is a pre-bound listener to use instead of
	// binding Peers[Local] — loopback clusters bind every listener on
	// port 0 first so every peer address is known before any node starts.
	Listener net.Listener
	// Depth is the per-link outbound queue (≤0 = DefaultDepth); the
	// inbox buffers Depth frames per neighbor of Local. A full queue or
	// inbox drops frames, like a congested Chan link.
	Depth int
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 20ms
	// and 1s); each failed dial doubles the wait up to the max, plus up
	// to 50% seeded jitter, and a successful dial resets it.
	BackoffMin, BackoffMax time.Duration
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// Seed drives the backoff jitter.
	Seed int64
	// Dial, when non-nil, replaces net.DialTimeout for outbound
	// connections — how a secure wrapper substitutes a TLS client
	// handshake without re-implementing the writer's reconnect logic.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Inbound, when non-nil, is consulted for every decoded inbound frame
	// before it enters the inbox, with the transport and the connection it
	// arrived on (reader goroutines may run it before NewTCP returns). A nil
	// return admits the frame; ErrRejectFrame drops the frame but keeps
	// the connection (a recoverable policy rejection); any other error
	// drops the frame AND ends the connection (the stream can no longer
	// be trusted — e.g. a peer whose certificate identity contradicts the
	// frame's self-identified sender).
	Inbound func(t *TCP, conn net.Conn, f *Frame) error
}

// ErrRejectFrame is the sentinel an Inbound gate returns to drop one frame
// without condemning the connection it arrived on.
var ErrRejectFrame = errors.New("transport: frame rejected by inbound gate")

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 20 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	return o
}

// TCP carries frames for one processor over real sockets. A single
// listener accepts inbound connections from any peer; every connection's
// reader writes into Local's one inbox (frames self-identify via
// Frame.From, which the reader checks against the configured neighbors).
// One writer goroutine per neighbor lazily dials the peer's address on
// first use, reconnecting with exponential backoff + jitter when the
// connection drops. Frames queued while the link is down are flushed
// after reconnect; frames overflowing the queue are dropped and recovered
// by the protocol's retransmission, so a process can start, crash, or
// come up late without any coordination. The transport is elastic: AddPeer
// teaches it a new neighbor's address and EnsureLink/DropLink grow and
// shrink the link set at runtime — how a long-lived node rides cluster
// membership changes.
type TCP struct {
	opts TCPOptions
	ln   net.Listener
	rng  *rand.Rand // seeds per-writer jitter streams; guarded by lmu

	// inbox is Local's receive channel, shared by every inbound link.
	inbox chan Frame

	// lmu guards the elastic state: the link maps and the peer address
	// book. Hot paths hold it only for a map read.
	lmu   sync.RWMutex
	out   map[graph.ProcessID]*tcpSendLink
	in    map[graph.ProcessID]*tcpRecvLink
	peers map[graph.ProcessID]string

	bytesSent   atomic.Uint64
	bytesRecvd  atomic.Uint64
	dials       atomic.Uint64
	redials     atomic.Uint64
	recvUnknown atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewTCP builds and starts the transport for opts.Local on g: it binds
// the listener immediately (so peers may dial it at once) and starts one
// writer per neighbor. Dialing is lazy.
func NewTCP(g *graph.Graph, opts TCPOptions) (*TCP, error) {
	opts = opts.withDefaults()
	nbrs := g.Neighbors(opts.Local)
	for _, q := range nbrs {
		if _, ok := opts.Peers[q]; !ok {
			return nil, fmt.Errorf("transport: no peer address for neighbor %d of %d", q, opts.Local)
		}
	}
	ln := opts.Listener
	if ln == nil {
		addr := opts.Peers[opts.Local]
		if addr == "" {
			return nil, fmt.Errorf("transport: node %d has no listen address", opts.Local)
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: node %d listen: %w", opts.Local, err)
		}
	}
	t := &TCP{
		opts:  opts,
		ln:    ln,
		rng:   rand.New(rand.NewSource(opts.Seed ^ int64(opts.Local)<<17)),
		inbox: make(chan Frame, opts.Depth*max(1, len(nbrs))),
		out:   make(map[graph.ProcessID]*tcpSendLink, len(nbrs)),
		in:    make(map[graph.ProcessID]*tcpRecvLink, len(nbrs)),
		peers: make(map[graph.ProcessID]string, len(opts.Peers)),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	for q, addr := range opts.Peers {
		t.peers[q] = addr
	}
	for _, q := range nbrs {
		t.addSendLinkLocked(q)
		t.in[q] = &tcpRecvLink{ch: t.inbox}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// addSendLinkLocked creates the outbound link to q and starts its writer.
// Caller holds lmu (or is still in NewTCP, pre-publication).
func (t *TCP) addSendLinkLocked(q graph.ProcessID) {
	sl := &tcpSendLink{tr: t, peer: q, outq: make(chan Frame, t.opts.Depth), stop: make(chan struct{})}
	t.out[q] = sl
	t.wg.Add(1)
	go t.writer(sl, rand.New(rand.NewSource(t.rng.Int63())))
}

// AddPeer records (or updates) a peer's dial address, so a link to it can
// be ensured later. Safe while traffic flows.
func (t *TCP) AddPeer(q graph.ProcessID, addr string) {
	t.lmu.Lock()
	t.peers[q] = addr
	t.lmu.Unlock()
}

// peerAddr reads q's dial address under the lock.
func (t *TCP) peerAddr(q graph.ProcessID) string {
	t.lmu.RLock()
	defer t.lmu.RUnlock()
	return t.peers[q]
}

// KnownSender reports whether p currently has an inbound link —
// i.e. whether p is a member this node would accept frames from. Inbound
// gates use it to distinguish a stranger with a valid certificate from a
// configured neighbor.
func (t *TCP) KnownSender(p graph.ProcessID) bool {
	t.lmu.RLock()
	_, ok := t.in[p]
	t.lmu.RUnlock()
	return ok
}

// dial opens one outbound connection via the configured Dial hook (or
// plain TCP when unset).
func (t *TCP) dial(addr string) (net.Conn, error) {
	if d := t.opts.Dial; d != nil {
		return d(addr, t.opts.DialTimeout)
	}
	return net.DialTimeout("tcp", addr, t.opts.DialTimeout)
}

// EnsureLink grows the link set at runtime. Only edges incident to the
// local processor are meaningful; the outbound direction requires the
// peer's address to be known (AddPeer).
func (t *TCP) EnsureLink(from, to graph.ProcessID) error {
	t.lmu.Lock()
	defer t.lmu.Unlock()
	switch {
	case from == t.opts.Local:
		if _, ok := t.out[to]; ok {
			return nil
		}
		if _, known := t.peers[to]; !known {
			return fmt.Errorf("transport: tcp node %d has no address for new peer %d", t.opts.Local, to)
		}
		t.addSendLinkLocked(to)
	case to == t.opts.Local:
		if _, ok := t.in[from]; !ok {
			t.in[from] = &tcpRecvLink{ch: t.inbox}
		}
	}
	return nil // non-incident edges are another node's business
}

// DropLink shrinks the link set: the outbound writer stops and its
// connection closes; the inbound side forgets the peer (its frames count
// as unknown-sender noise until it too reconfigures).
func (t *TCP) DropLink(from, to graph.ProcessID) {
	t.lmu.Lock()
	defer t.lmu.Unlock()
	switch {
	case from == t.opts.Local:
		if sl, ok := t.out[to]; ok {
			close(sl.stop)
			delete(t.out, to)
		}
	case to == t.opts.Local:
		delete(t.in, from)
	}
}

// Link returns the operative end of the directed edge: the send end for
// from == Local, the receive end for to == Local. Asking for an edge not
// incident to Local, or a non-neighbor edge, panics.
func (t *TCP) Link(from, to graph.ProcessID) Link {
	t.lmu.RLock()
	defer t.lmu.RUnlock()
	switch {
	case from == t.opts.Local:
		if l, ok := t.out[to]; ok {
			return l
		}
	case to == t.opts.Local:
		if l, ok := t.in[from]; ok {
			return l
		}
	}
	panic(fmt.Sprintf("transport: tcp node %d asked for link %d→%d", t.opts.Local, from, to))
}

// Stats sums this node's wire counters.
func (t *TCP) Stats() Stats {
	s := Stats{
		BytesSent:  t.bytesSent.Load(),
		BytesRecvd: t.bytesRecvd.Load(),
		Dials:      t.dials.Load(),
		Redials:    t.redials.Load(),
	}
	t.lmu.RLock()
	defer t.lmu.RUnlock()
	for _, l := range t.out {
		ls := l.Stats()
		s.FramesSent += ls.Sent
		s.DroppedFull += ls.DroppedFull
	}
	for _, l := range t.in {
		ls := l.Stats()
		s.FramesRecvd += ls.Recvd
		s.DroppedFull += ls.DroppedFull
	}
	return s
}

// Close stops the listener, every writer, and every open connection.
func (t *TCP) Close() error {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.ln.Close()
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

func (t *TCP) track(c net.Conn) {
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
}

func (t *TCP) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	c.Close()
}

// acceptLoop serves inbound connections; each gets a reader goroutine
// that writes frames from configured neighbors into the inbox.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.track(conn)
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	br := bufio.NewReader(conn)
	for {
		f, n, err := ReadFrame(br)
		t.bytesRecvd.Add(uint64(n))
		if err != nil {
			// Socket errors end the connection (the peer redials); decode
			// errors mean a corrupt or misbehaving stream — also fatal for
			// the connection, since framing can no longer be trusted.
			return
		}
		if gate := t.opts.Inbound; gate != nil {
			if gerr := gate(t, conn, &f); gerr != nil {
				if errors.Is(gerr, ErrRejectFrame) {
					continue
				}
				return
			}
		}
		t.lmu.RLock()
		rl, ok := t.in[f.From]
		t.lmu.RUnlock()
		if !ok {
			t.recvUnknown.Add(1)
			continue
		}
		rl.bytes.Add(uint64(n))
		select {
		case rl.ch <- f:
			rl.recvd.Add(1)
		default:
			rl.dropped.Add(1)
		}
	}
}

// writer owns the outbound connection to one peer: it dials lazily on
// the first queued frame, writes length-prefixed frames with batched
// flushes, and on any error closes the connection and re-dials with
// exponential backoff + jitter while frames keep queueing (or dropping,
// once the queue fills). It exits when the transport stops or the link is
// dropped by an epoch transition.
func (t *TCP) writer(sl *tcpSendLink, rng *rand.Rand) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	everConnected := false
	disconnect := func() {
		if conn != nil {
			t.untrack(conn)
			conn, bw = nil, nil
		}
	}
	defer disconnect()

	backoff := t.opts.BackoffMin
	for {
		var f Frame
		select {
		case f = <-sl.outq:
		case <-sl.stop:
			return
		case <-t.stop:
			return
		}
		for conn == nil {
			t.dials.Add(1)
			if everConnected {
				t.redials.Add(1)
			}
			c, err := t.dial(t.peerAddr(sl.peer))
			if err == nil {
				// 32 KiB of write buffer lets the drain loop coalesce a
				// whole burst of small control frames (acks and offers are
				// tens of bytes) into one syscall before the flush.
				conn, bw = c, bufio.NewWriterSize(c, 32<<10)
				t.track(c)
				everConnected = true
				backoff = t.opts.BackoffMin
				break
			}
			wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
			if backoff *= 2; backoff > t.opts.BackoffMax {
				backoff = t.opts.BackoffMax
			}
			select {
			case <-time.After(wait):
			case <-sl.stop:
				return
			case <-t.stop:
				return
			}
		}
		n, err := WriteFrame(bw, &f)
		t.bytesSent.Add(uint64(n))
		sl.bytes.Add(uint64(n))
		if err == nil {
			sl.sent.Add(1)
			// Batch: drain whatever else is queued before flushing.
			for more := true; more && err == nil; {
				select {
				case f = <-sl.outq:
					n, err = WriteFrame(bw, &f)
					t.bytesSent.Add(uint64(n))
					sl.bytes.Add(uint64(n))
					if err == nil {
						sl.sent.Add(1)
					}
				default:
					more = false
				}
			}
			if err == nil {
				err = bw.Flush()
			}
		}
		if err != nil {
			sl.dropped.Add(1)
			disconnect()
		}
	}
}

// tcpSendLink is the send end of Local→peer.
type tcpSendLink struct {
	tr      *TCP
	peer    graph.ProcessID
	outq    chan Frame
	stop    chan struct{} // closed by DropLink; ends the writer
	sent    atomic.Uint64
	bytes   atomic.Uint64
	dropped atomic.Uint64
}

func (l *tcpSendLink) Send(f Frame) bool {
	select {
	case <-l.stop:
		l.dropped.Add(1)
		return false
	default:
	}
	select {
	case l.outq <- f:
		return true
	default:
		l.dropped.Add(1)
		return false
	}
}

func (l *tcpSendLink) Recv() <-chan Frame {
	panic(fmt.Sprintf("transport: Recv on the send end of a tcp link (node %d → %d)", l.tr.opts.Local, l.peer))
}

func (l *tcpSendLink) Stats() LinkStats {
	return LinkStats{
		Sent:        l.sent.Load(),
		DroppedFull: l.dropped.Load(),
		BytesSent:   l.bytes.Load(),
		Queued:      len(l.outq),
	}
}

// tcpRecvLink is the receive end of peer→Local: its own counters over
// the shared inbox.
type tcpRecvLink struct {
	ch      chan Frame
	recvd   atomic.Uint64
	bytes   atomic.Uint64
	dropped atomic.Uint64
}

func (l *tcpRecvLink) Send(Frame) bool {
	panic("transport: Send on the receive end of a tcp link")
}

func (l *tcpRecvLink) Recv() <-chan Frame { return l.ch }

func (l *tcpRecvLink) Stats() LinkStats {
	return LinkStats{
		Recvd:       l.recvd.Load(),
		DroppedFull: l.dropped.Load(),
		BytesRecvd:  l.bytes.Load(),
	}
}
