package transport

import (
	"math/rand"
	"sync"
	"time"

	"ssmfp/internal/graph"
)

// PartitionWindow schedules a network partition: for the half-open
// interval [Start, Start+Duration) after the chaos transport is built,
// every frame on the listed undirected edges is dropped in both
// directions. Windows may overlap; an edge is cut while any window
// covering it is active. Healing is implicit at the window's end.
type PartitionWindow struct {
	Start    time.Duration
	Duration time.Duration
	Edges    [][2]graph.ProcessID
}

// covers reports whether w cuts the directed edge from→to.
func (w *PartitionWindow) covers(from, to graph.ProcessID) bool {
	for _, e := range w.Edges {
		if (e[0] == from && e[1] == to) || (e[0] == to && e[1] == from) {
			return true
		}
	}
	return false
}

// ChaosOptions tunes the impairment wrapper. All impairment decisions
// (loss, duplication, jitter draws, reorder bursts) come from per-link
// generators derived from Seed, so two runs with the same seed make the
// same decisions in the same per-link order — deterministic under seed,
// up to goroutine scheduling of the unimpaired parts.
type ChaosOptions struct {
	Seed int64
	// Latency delays every frame by this base one-way time.
	Latency time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) per frame. Unequal
	// delays on consecutive frames are what genuinely reorders a link.
	Jitter time.Duration
	// LossRate drops each frame with this probability (0..1).
	LossRate float64
	// DupRate injects a second copy of a frame with this probability.
	DupRate float64
	// ReorderRate holds a frame back an extra ReorderSpan with this
	// probability, letting later frames overtake it even when Jitter is 0.
	ReorderRate float64
	// ReorderSpan is the extra holdback for reordered frames; defaults to
	// 4×(Latency+Jitter), or 2ms when both are zero.
	ReorderSpan time.Duration
	// BandwidthBps caps each directed link at this many encoded frame
	// bytes per second (0 = unlimited): frames queue behind each other's
	// serialization time, like a real line rate.
	BandwidthBps int
	// Partitions schedules cut/heal windows.
	Partitions []PartitionWindow
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.ReorderSpan <= 0 {
		o.ReorderSpan = 4 * (o.Latency + o.Jitter)
		if o.ReorderSpan <= 0 {
			o.ReorderSpan = 2 * time.Millisecond
		}
	}
	return o
}

// Chaos composes impairment over any inner transport. All impairment is
// applied on the send side of a link: a frame is dropped, duplicated,
// and/or delayed before it reaches the inner backend, so Recv is the
// inner channel untouched and the wrapper composes transparently over
// both whole-graph (Chan) and node-scoped (TCP) backends.
type Chaos struct {
	inner Transport
	opts  ChaosOptions
	start time.Time
	done  chan struct{}

	mu     sync.Mutex
	links  map[[2]graph.ProcessID]*chaosLink
	closed bool
}

// Impair wraps inner in a Chaos carrying opts, or returns inner itself
// when opts asks for no impairment at all. Closing the result closes
// inner either way.
func Impair(inner Transport, opts ChaosOptions) Transport {
	if opts.LossRate > 0 || opts.DupRate > 0 || opts.Latency > 0 || opts.Jitter > 0 ||
		opts.ReorderRate > 0 || opts.BandwidthBps > 0 || len(opts.Partitions) > 0 {
		return NewChaos(inner, opts)
	}
	return inner
}

// NewChaos wraps inner with impairment.
func NewChaos(inner Transport, opts ChaosOptions) *Chaos {
	return &Chaos{
		inner: inner,
		opts:  opts.withDefaults(),
		start: time.Now(),
		done:  make(chan struct{}),
		links: make(map[[2]graph.ProcessID]*chaosLink),
	}
}

// Link returns the impaired view of the inner directed link from→to.
func (c *Chaos) Link(from, to graph.ProcessID) Link {
	key := [2]graph.ProcessID{from, to}
	c.mu.Lock()
	if l, ok := c.links[key]; ok {
		c.mu.Unlock()
		return l
	}
	c.mu.Unlock()
	// Resolve the inner link outside the lock: Link may panic on a
	// non-edge, and inner implementations may take their own locks.
	inner := c.inner.Link(from, to)
	var windows []PartitionWindow
	for _, w := range c.opts.Partitions {
		if w.covers(from, to) {
			windows = append(windows, w)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.links[key]; ok {
		return l
	}
	l := &chaosLink{
		tr:      c,
		inner:   inner,
		windows: windows,
		rng:     rand.New(rand.NewSource(c.opts.Seed ^ (int64(from)*2654435761 + int64(to) + 1))),
		wake:    make(chan struct{}, 1),
	}
	c.links[key] = l
	return l
}

// EnsureLink forwards to the inner transport when it is elastic. The
// impaired view is created lazily on the next Link call, as usual.
func (c *Chaos) EnsureLink(from, to graph.ProcessID) error {
	if el, ok := c.inner.(Elastic); ok {
		return el.EnsureLink(from, to)
	}
	return nil
}

// DropLink forgets the cached impaired view (its dispatcher drains what
// it already holds into a dead inner link) and forwards to the inner
// transport when it is elastic.
func (c *Chaos) DropLink(from, to graph.ProcessID) {
	key := [2]graph.ProcessID{from, to}
	c.mu.Lock()
	delete(c.links, key)
	c.mu.Unlock()
	if el, ok := c.inner.(Elastic); ok {
		el.DropLink(from, to)
	}
}

// OnArrival forwards to the inner transport, whose inboxes frames enter.
func (c *Chaos) OnArrival(p graph.ProcessID, fn func()) { c.inner.OnArrival(p, fn) }

// Stats merges the inner backend's counters with the impairment counters.
func (c *Chaos) Stats() Stats {
	s := c.inner.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.links {
		// The counters belong to the link's lock domain, not the
		// transport's (Send holds only l.mu).
		l.mu.Lock()
		s.DroppedImpair += l.dropImpair
		s.Duplicated += l.duplicated
		l.mu.Unlock()
	}
	return s
}

// Close stops the link dispatchers and closes the inner transport.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	return c.inner.Close()
}

// chaosLink impairs the send side of one directed link. Delayed frames go
// through a per-link dispatcher that releases them in due-time order
// (FIFO among equal dues): reordering happens exactly when the delay
// model says it does (unequal jitter or a reorder holdback), never from
// the race of one-goroutine-per-frame timer callbacks — under a bandwidth
// cap the cumulative serialization delays are non-decreasing, so the line
// stays strictly FIFO the way a real line does.
type chaosLink struct {
	tr      *Chaos
	inner   Link
	windows []PartitionWindow

	mu         sync.Mutex
	rng        *rand.Rand
	nextFree   time.Duration // bandwidth cap: when the line is free again
	dropImpair uint64
	duplicated uint64

	heap    []timedFrame // min-heap on (due, seq)
	seq     uint64       // enqueue order, the tie-break for equal dues
	wake    chan struct{}
	started bool // dispatcher goroutine running
}

// timedFrame is one frame scheduled for release on the chaos clock.
type timedFrame struct {
	due time.Duration
	seq uint64
	f   Frame
}

func (l *chaosLink) Recv() <-chan Frame { return l.inner.Recv() }

func (l *chaosLink) Stats() LinkStats {
	s := l.inner.Stats()
	l.mu.Lock()
	s.DroppedImpair += l.dropImpair
	s.Duplicated += l.duplicated
	l.mu.Unlock()
	return s
}

// Send applies partition, loss, duplication, latency/jitter/reorder and
// the bandwidth cap, then forwards surviving (possibly delayed) copies to
// the inner link.
func (l *chaosLink) Send(f Frame) bool {
	o := &l.tr.opts
	elapsed := time.Since(l.tr.start)

	l.mu.Lock()
	for i := range l.windows {
		w := &l.windows[i]
		if elapsed >= w.Start && elapsed < w.Start+w.Duration {
			l.dropImpair++
			l.mu.Unlock()
			return false
		}
	}
	if o.LossRate > 0 && l.rng.Float64() < o.LossRate {
		l.dropImpair++
		l.mu.Unlock()
		return false
	}
	copies := 1
	if o.DupRate > 0 && l.rng.Float64() < o.DupRate {
		copies = 2
		l.duplicated++
	}
	var delayBuf [2]time.Duration // copies ≤ 2: no per-send allocation
	delays := delayBuf[:copies]
	for i := range delays {
		d := o.Latency
		if o.Jitter > 0 {
			d += time.Duration(l.rng.Int63n(int64(o.Jitter)))
		}
		if o.ReorderRate > 0 && l.rng.Float64() < o.ReorderRate {
			d += o.ReorderSpan
		}
		if o.BandwidthBps > 0 {
			tx := time.Duration(int64(EncodedSize(&f)) * int64(time.Second) / int64(o.BandwidthBps))
			if l.nextFree < elapsed {
				l.nextFree = elapsed
			}
			l.nextFree += tx
			d += l.nextFree - elapsed
		}
		delays[i] = d
	}
	// Release immediately only when nothing is queued ahead; otherwise the
	// frame joins the line behind its predecessors.
	inline := 0
	startWorker := false
	for _, d := range delays {
		if d <= 0 && len(l.heap) == 0 {
			inline++
			continue
		}
		l.seq++
		l.push(timedFrame{due: elapsed + d, seq: l.seq, f: f})
		if !l.started {
			l.started, startWorker = true, true
		}
	}
	l.mu.Unlock()

	if startWorker {
		go l.dispatch()
	} else if inline < len(delays) {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	for ; inline > 0; inline-- {
		l.inner.Send(f)
	}
	return true
}

// push adds tf to the due-ordered min-heap; caller holds l.mu.
func (l *chaosLink) push(tf timedFrame) {
	l.heap = append(l.heap, tf)
	i := len(l.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !l.heapLess(i, p) {
			break
		}
		l.heap[i], l.heap[p] = l.heap[p], l.heap[i]
		i = p
	}
}

// popTop removes the earliest-due frame; caller holds l.mu.
func (l *chaosLink) popTop() {
	last := len(l.heap) - 1
	l.heap[0] = l.heap[last]
	l.heap[last] = timedFrame{} // release the payload reference
	l.heap = l.heap[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && l.heapLess(c+1, c) {
			c++
		}
		if !l.heapLess(c, i) {
			break
		}
		l.heap[i], l.heap[c] = l.heap[c], l.heap[i]
		i = c
	}
}

func (l *chaosLink) heapLess(i, j int) bool {
	if l.heap[i].due != l.heap[j].due {
		return l.heap[i].due < l.heap[j].due
	}
	return l.heap[i].seq < l.heap[j].seq
}

// dispatch is the link's release goroutine: it sleeps until the earliest
// due instant and forwards frames to the inner link in due order. It
// lives until the transport closes; undelivered frames at close are
// dropped.
func (l *chaosLink) dispatch() {
	for {
		l.mu.Lock()
		for len(l.heap) > 0 && l.heap[0].due <= time.Since(l.tr.start) {
			top := l.heap[0]
			l.popTop()
			l.mu.Unlock()
			l.inner.Send(top.f)
			l.mu.Lock()
		}
		wait := time.Duration(-1) // nothing queued: sleep until a Send wakes us
		if len(l.heap) > 0 {
			// The top may have fallen due since the loop above checked;
			// an overdue frame must not read as an empty heap.
			wait = max(0, l.heap[0].due-time.Since(l.tr.start))
		}
		l.mu.Unlock()
		if wait < 0 {
			select {
			case <-l.wake:
			case <-l.tr.done:
				return
			}
			continue
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-l.wake:
			t.Stop()
		case <-l.tr.done:
			t.Stop()
			return
		}
	}
}
