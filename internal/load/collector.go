package load

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/msgpass"
)

// maxViolationDetails caps the per-violation detail strings kept in a
// report; beyond it only counters grow.
const maxViolationDetails = 8

// expectRec is the collector's per-plan-entry state.
type expectRec struct {
	src, dst graph.ProcessID
	sent     bool
	seen     int
}

// Collector folds the delivery stream of one load step into latency and
// exactly-once accounting. It is pre-seeded with the full injection plan,
// marks entries as the driver sends them, and continuously cross-checks
// every tagged delivery: unknown sequence numbers, deliveries at the
// wrong destination, duplicates and deliveries of never-sent entries are
// all violations the moment they happen, not at the end of the run.
type Collector struct {
	mu        sync.Mutex
	expect    []expectRec
	delivered atomic.Int64
	warm      atomic.Int64
	dupes     int
	misrouted int
	unsent    int
	details   []string
	hist      metrics.LatencyHist

	// Latency attribution: every first delivery's end-to-end latency is
	// split into hold (node-stamped queued + park wait carried in the v3
	// tag's hold slot), deliver (destination-side bufR→R6 wait, carried on
	// the Delivery struct because the destination never rewrites the
	// payload), and wire (the residual: transfer + handshake time, clamped
	// at zero against clock skew between the stamping nodes).
	holdHist    metrics.LatencyHist
	deliverHist metrics.LatencyHist
	wireHist    metrics.LatencyHist

	// progress is the drain wake-up: observe pulses it (non-blocking,
	// capacity 1) whenever a counter the driver may be waiting on moves,
	// so Run's drain and warmUp block on deliveries instead of polling.
	progress chan struct{}

	// onComplete, when non-nil, is called once per first delivery with the
	// source of the completed message — the closed-loop driver's token
	// refill. Called outside the collector lock, from the destination's
	// node goroutine.
	onComplete func(src graph.ProcessID)
}

// newCollector seeds a collector with the plan's (src, dst) pairs.
func newCollector(plan []planEntry) *Collector {
	c := &Collector{
		expect:   make([]expectRec, len(plan)),
		progress: make(chan struct{}, 1),
	}
	for i, e := range plan {
		c.expect[i] = expectRec{src: e.Src, dst: e.Dst}
	}
	return c
}

// markSent records that plan entry seq is about to be injected. It must
// run before the Send so a fast delivery can never race the bookkeeping.
func (c *Collector) markSent(seq int) {
	c.mu.Lock()
	c.expect[seq].sent = true
	c.mu.Unlock()
}

// unmarkSent rolls markSent back after a failed Send.
func (c *Collector) unmarkSent(seq int) {
	c.mu.Lock()
	c.expect[seq].sent = false
	c.mu.Unlock()
}

// signal pulses the progress channel; capacity 1 and a non-blocking send
// make it a level trigger, never a queue.
func (c *Collector) signal() {
	select {
	case c.progress <- struct{}{}:
	default:
	}
}

// waitUntil blocks until cond holds or the deadline passes, waking on
// each progress pulse. The pulse is buffered, so a delivery landing
// between the cond check and the receive is never lost; the short timer
// cap only bounds deadline resolution, it is not the wake mechanism.
func (c *Collector) waitUntil(cond func() bool, deadline time.Time) bool {
	for {
		if cond() {
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			return cond()
		}
		if d > 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-c.progress:
		case <-t.C:
		}
		t.Stop()
	}
}

// observe folds one delivery. Invalid messages (planted junk from
// corrupted starts) and untagged payloads are not load traffic and are
// ignored; a plan entry whose tag did not survive is caught by finish as
// never delivered.
func (c *Collector) observe(d msgpass.Delivery) {
	if !d.Msg.Valid {
		return
	}
	if strings.HasPrefix(d.Msg.Payload, warmupPrefix) {
		c.warm.Add(1)
		c.signal()
		return
	}
	seq, src, dst, sched, ok := ParseTag(d.Msg.Payload)
	if !ok {
		return
	}
	var complete func(graph.ProcessID)
	c.mu.Lock()
	switch {
	case seq < 0 || seq >= len(c.expect):
		c.misrouted++
		c.detail("delivery of unknown seq %d at %d", seq, d.At)
	case !c.expect[seq].sent:
		c.unsent++
		c.detail("delivery of never-sent seq %d at %d", seq, d.At)
	default:
		rec := &c.expect[seq]
		if d.At != rec.dst || dst != rec.dst || src != rec.src {
			c.misrouted++
			c.detail("seq %d delivered at %d, want %d", seq, d.At, rec.dst)
		}
		rec.seen++
		if rec.seen > 1 {
			c.dupes++
			c.detail("seq %d delivered %d times", seq, rec.seen)
		} else {
			e2e := d.Time.UnixNano() - sched
			c.hist.Add(e2e)
			hold, _ := ParseTagHold(d.Msg.Payload)
			deliver := d.DeliverWaitNS
			wire := e2e - hold - deliver
			if wire < 0 {
				wire = 0
			}
			c.holdHist.Add(hold)
			c.deliverHist.Add(deliver)
			c.wireHist.Add(wire)
			c.delivered.Add(1)
			complete = c.onComplete
		}
	}
	c.mu.Unlock()
	c.signal()
	if complete != nil {
		complete(src)
	}
}

func (c *Collector) detail(format string, args ...any) {
	if len(c.details) < maxViolationDetails {
		c.details = append(c.details, fmt.Sprintf(format, args...))
	}
}

// Delivered returns the number of distinct plan entries delivered so far;
// safe without the lock (the progress ticker reads it concurrently).
func (c *Collector) Delivered() int { return int(c.delivered.Load()) }

// finish closes the books after the drain window: it counts entries that
// were sent but never delivered and returns the step's verdict. sent is
// the driver's count of successful Sends.
func (c *Collector) finish(sent int) (exactlyOnce bool, violations []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	missing := 0
	for seq := range c.expect {
		if c.expect[seq].sent && c.expect[seq].seen == 0 {
			missing++
			c.detail("seq %d sent but never delivered", seq)
		}
	}
	total := c.dupes + c.misrouted + c.unsent + missing
	if total > len(c.details) {
		c.details = append(c.details, fmt.Sprintf("... and %d more violations", total-len(c.details)))
	}
	return total == 0 && c.Delivered() == sent, c.details
}

// Hist returns the latency histogram; call only after the run is drained
// and the hook detached (the returned pointer is not further synchronized).
func (c *Collector) Hist() *metrics.LatencyHist { return &c.hist }

// AttributionHists returns the hold/deliver/wire component histograms;
// same synchronization contract as Hist.
func (c *Collector) AttributionHists() (hold, deliver, wire *metrics.LatencyHist) {
	return &c.holdHist, &c.deliverHist, &c.wireHist
}

// Hook is the stable OnDeliver callback wired once into a network's
// options; the collector behind it swaps per load step. A detached hook
// costs one atomic load per delivery.
type Hook struct {
	c atomic.Pointer[Collector]
}

// OnDeliver routes one delivery to the attached collector, if any. Wire
// this method into msgpass.Options.OnDeliver.
func (h *Hook) OnDeliver(d msgpass.Delivery) {
	if c := h.c.Load(); c != nil {
		c.observe(d)
	}
}

// Attach directs subsequent deliveries to c.
func (h *Hook) Attach(c *Collector) { h.c.Store(c) }

// Detach stops observing; in-flight observe calls may still complete.
func (h *Hook) Detach() { h.c.Store(nil) }
