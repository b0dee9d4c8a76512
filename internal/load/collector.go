package load

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
)

// Collector folds the delivery stream of one load step into latency
// accounting and a clean-start spec.Ledger over the step's injection
// plan (every load network starts clean). It is pre-seeded with the full
// plan, marks entries as Run sends them, and feeds every delivery
// to the ledger, which judges unknown and never-sent sequence numbers,
// deliveries at the wrong destination, duplicates and invalid deliveries
// as they happen.
type Collector struct {
	mu        sync.Mutex
	plan      []PlanEntry
	ledger    *spec.Ledger
	delivered atomic.Int64
	warm      atomic.Int64
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

// newCollector seeds a collector with the plan.
func newCollector(plan []PlanEntry) *Collector {
	return &Collector{
		plan:     plan,
		ledger:   spec.NewSeq(len(plan)),
		progress: make(chan struct{}, 1),
	}
}

// markSent records that plan entry seq is about to be injected. It must
// run before the Send so a fast delivery can never race the bookkeeping.
func (c *Collector) markSent(seq int) {
	c.mu.Lock()
	c.ledger.SentSeq(seq, c.plan[seq].Dst)
	c.mu.Unlock()
}

// unmarkSent rolls markSent back after a failed Send.
func (c *Collector) unmarkSent(seq int) {
	c.mu.Lock()
	c.ledger.UnsentSeq(seq)
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

// observe folds one delivery. Untagged valid payloads are not load
// traffic and are ignored; a plan entry whose tag did not survive is
// judged never delivered. A tag that disagrees with the plan's source or
// destination for its sequence number names no planned message.
func (c *Collector) observe(d msgpass.Delivery) {
	if !d.Msg.Valid {
		c.mu.Lock()
		c.ledger.DeliveredSeq(-1, d.At, false)
		c.mu.Unlock()
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
	var n int
	if seq >= 0 && seq < len(c.plan) && (c.plan[seq].Src != src || c.plan[seq].Dst != dst) {
		n = c.ledger.Delivered(spec.Key{UID: uint64(seq)}, d.At, true)
	} else {
		n = c.ledger.DeliveredSeq(seq, d.At, true)
	}
	if n == 1 {
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
	c.mu.Unlock()
	c.signal()
	if complete != nil {
		complete(src)
	}
}

// Delivered returns the number of distinct plan entries delivered so far;
// safe without the lock (the progress ticker reads it concurrently).
func (c *Collector) Delivered() int { return int(c.delivered.Load()) }

// finish closes the books after the drain window and returns the step's
// verdict: the ledger's, and every one of sent (Run's count of
// successful Sends) delivered.
func (c *Collector) finish(sent int) (exactlyOnce bool, violations []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.ledger.Verdict()
	return v.OK() && c.Delivered() == sent, v.Lines
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
