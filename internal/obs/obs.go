// Package obs is the structured observability layer of the reproduction:
// a typed event bus that the engine, the protocol rules, the fault
// injector, the transports and the telemetry emitter publish to, plus
// the consumers that turn the stream into artifacts — a versioned JSONL
// sink/loader (jsonl.go), a per-message lifecycle tracker feeding
// metrics summaries (lifecycle.go), and an opt-in HTTP introspection
// endpoint (http.go).
//
// The bus is zero-cost when unsubscribed: publishers guard event
// construction behind Bus.Active (a single atomic pointer load), so a run
// with no sink attached pays no allocations and no formatting. This is the
// contract every consumer relies on and every perf experiment (E-EP) is
// measured under.
//
// The package sits below the protocol layers: it may import only
// internal/graph and internal/metrics, so that statemodel, core, routing,
// faults, trace, sim and transport can all publish to it without import
// cycles.
package obs

import (
	"sync"
	"sync/atomic"

	"ssmfp/internal/graph"
)

// Kind identifies a typed event class. The set is closed and versioned
// with the JSONL schema: loaders reject kinds they do not know.
type Kind string

// The event kinds of schema version 1.
const (
	// KindStep marks the completion of one engine step; Count carries the
	// number of activations the daemon selected.
	KindStep Kind = "step"
	// KindFire marks one rule activation (Rule is the instance name, e.g.
	// "R3@1"); emitted once per selection, after the action's own events.
	KindFire Kind = "fire"
	// KindGenerate marks R1 accepting a message from the higher layer into
	// bufR_p(d); Msg carries the new reception-buffer value.
	KindGenerate Kind = "generate"
	// KindInternal marks R2's internal move bufR→bufE; Msg carries the new
	// emission-buffer value (fresh hop and color), bufR empties.
	KindInternal Kind = "internal"
	// KindForward marks R3 copying bufE_s(d) into bufR_p(d); From is the
	// served neighbor s, Msg the copied value.
	KindForward Kind = "forward"
	// KindErase marks R4/R5 emptying a buffer; Buf selects which one and
	// Msg records the erased value.
	KindErase Kind = "erase"
	// KindDeliver marks R6 handing bufE_d(d) to the higher layer.
	KindDeliver Kind = "deliver"
	// KindRound marks the completion of a round (BDPV accounting); Round
	// is the new completed-round count.
	KindRound Kind = "round"
	// KindFault marks a transient fault injected at Proc; Detail names the
	// fault class.
	KindFault Kind = "fault"
	// KindRoute marks the routing algorithm re-pointing nextHop_p(d); To
	// is the new parent.
	KindRoute Kind = "route"
	// KindStabilized marks the first observation that every routing table
	// is canonical (the R_A instant of Propositions 5-7).
	KindStabilized Kind = "stabilized"
	// KindWire marks a transport-layer link event (dial, redial, accept,
	// partition cut/heal); Detail names it. Wire events exist only in the
	// wall-clock domain (Step and Round are -1): they come from the real
	// transports under internal/transport, never from an engine run, so
	// no replayable trace contains them.
	KindWire Kind = "wire"
	// KindCellStart marks a campaign worker picking up one experiment
	// cell; Detail carries the cell key ("p5/line-5#0"), Count the cell's
	// canonical grid index. Like wire events, campaign events live in the
	// wall-clock domain (Step and Round are -1) and never appear in a
	// replayable engine trace.
	KindCellStart Kind = "cell-start"
	// KindCellDone marks a cell's completion; Detail carries the cell
	// key, Count the number of cells completed so far, and Rule reuses
	// its string slot for the verdict ("ok" or "fail").
	KindCellDone Kind = "cell-done"
	// KindLoadTick is the load generator's periodic progress beat: Count
	// carries the tagged deliveries so far and Detail a compact
	// "step=<i> sent=<s> delivered=<d>" summary. Load events live in the
	// wall-clock domain (Step and Round are -1) and never appear in a
	// replayable engine trace.
	KindLoadTick Kind = "load-tick"
	// KindLoadDone marks the completion of one load step (a single run is
	// one step; a sweep emits one per rate step). Count carries the step
	// index, Detail the step summary, and Rule reuses its string slot for
	// the exactly-once verdict ("ok" or "fail").
	KindLoadDone Kind = "load-done"
	// KindTelemetry carries one telemetry-plane snapshot: Detail is a
	// complete ssmfp-telemetry/v1 JSONL line and Count the number of
	// samples in it. Telemetry events live in the wall-clock domain (Step
	// and Round are -1) and never appear in a replayable engine trace.
	KindTelemetry Kind = "telemetry"
)

// Valid reports whether k is a kind of the current schema.
func (k Kind) Valid() bool {
	switch k {
	case KindStep, KindFire, KindGenerate, KindInternal, KindForward,
		KindErase, KindDeliver, KindRound, KindFault, KindRoute, KindStabilized,
		KindWire, KindCellStart, KindCellDone, KindLoadTick, KindLoadDone,
		KindTelemetry:
		return true
	}
	return false
}

// Buffer selectors for KindErase events.
const (
	BufReception = "R"
	BufEmission  = "E"
)

// MsgRecord is the observability image of a protocol message: the triple
// (payload, last hop, color) the rules compare, plus the simulation-side
// UID and validity bit the lifecycle tracker keys on. Records are values —
// an event carries the buffer's content at emission time, never a live
// pointer into protocol state.
type MsgRecord struct {
	Payload string          `json:"payload"`
	LastHop graph.ProcessID `json:"lasthop"`
	Color   int             `json:"color"`
	UID     uint64          `json:"uid"`
	Valid   bool            `json:"valid"`
}

// Event is one typed observation. Which fields are meaningful depends on
// Kind (see the kind constants); Seq is stamped by the bus and totally
// orders the stream, Step/Round locate the event in the execution (Step is
// -1 for wall-clock domains such as the transports, where steps do not
// exist).
type Event struct {
	Seq    uint64          `json:"seq"`
	Kind   Kind            `json:"kind"`
	Step   int             `json:"step"`
	Round  int             `json:"round"`
	Proc   graph.ProcessID `json:"proc"`
	Dest   graph.ProcessID `json:"dest"`
	From   graph.ProcessID `json:"from"`
	To     graph.ProcessID `json:"to"`
	Rule   string          `json:"rule,omitempty"`
	Buf    string          `json:"buf,omitempty"`
	Msg    *MsgRecord      `json:"msg,omitempty"`
	Count  int             `json:"count,omitempty"`
	Detail string          `json:"detail,omitempty"`
}

// Bus fans typed events out to its subscribers. Publish assigns each event
// a monotone sequence number and invokes every subscriber synchronously,
// in subscription order. Active is a single atomic load, making the
// no-subscriber case free; Subscribe is copy-on-write, so publishing is
// safe from concurrent goroutines (transport links, the load driver) as
// long as each subscriber tolerates concurrent calls itself. A nil *Bus
// is a valid inactive bus: Active reports false and Publish is a no-op.
type Bus struct {
	seq    atomic.Uint64
	mu     sync.Mutex
	nextID uint64
	subs   atomic.Pointer[[]subEntry]
}

// subEntry pairs a subscriber with the identity its unsubscribe closure
// removes (function values are not comparable, so removal keys on an id).
type subEntry struct {
	id uint64
	fn func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Active reports whether any subscriber is attached. Publishers use it to
// skip event construction entirely on the zero-subscriber fast path.
func (b *Bus) Active() bool {
	if b == nil {
		return false
	}
	return b.subs.Load() != nil
}

// Subscribe attaches fn; it will be called for every subsequent Publish.
// The returned closure detaches it again (idempotent). Subscription is
// copy-on-write: a Publish or PublishBatch that loaded the subscriber
// list before an unsubscribe may still invoke fn for events already in
// flight — subscribers must tolerate a trailing call after unsubscribing,
// exactly as they must tolerate concurrent calls.
func (b *Bus) Subscribe(fn func(Event)) (unsubscribe func()) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	var cur []subEntry
	if p := b.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]subEntry, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = subEntry{id: id, fn: fn}
	b.subs.Store(&next)
	b.mu.Unlock()
	return func() { b.unsubscribe(id) }
}

// unsubscribe removes the entry with the given id; the empty list stores
// as nil so Active returns to the zero-cost fast path.
func (b *Bus) unsubscribe(id uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.subs.Load()
	if p == nil {
		return
	}
	cur := *p
	next := make([]subEntry, 0, len(cur))
	for _, e := range cur {
		if e.id != id {
			next = append(next, e)
		}
	}
	if len(next) == len(cur) {
		return
	}
	if len(next) == 0 {
		b.subs.Store(nil)
		return
	}
	b.subs.Store(&next)
}

// Publish stamps ev with the next sequence number and delivers it to every
// subscriber. With no subscribers it is a no-op (and does not consume a
// sequence number, so recorded streams are gapless).
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	p := b.subs.Load()
	if p == nil {
		return
	}
	ev.Seq = b.seq.Add(1)
	for _, e := range *p {
		e.fn(ev)
	}
}

// PublishBatch stamps and delivers a burst of events with one sequence
// reservation: the batch occupies a contiguous, gapless seq range in
// publication order, and concurrent batches interleave without tearing a
// batch's internal order. Publishers that emit several events at once
// (the telemetry emitter's snapshot events) use it to amortize the
// per-event atomic to one per burst. evs is modified in place (Seq is
// stamped); events are handed to subscribers by value, so the caller may
// reuse the backing slice as soon as PublishBatch returns.
func (b *Bus) PublishBatch(evs []Event) {
	if b == nil || len(evs) == 0 {
		return
	}
	p := b.subs.Load()
	if p == nil {
		return
	}
	base := b.seq.Add(uint64(len(evs))) - uint64(len(evs))
	for i := range evs {
		evs[i].Seq = base + uint64(i) + 1
		for _, e := range *p {
			e.fn(evs[i])
		}
	}
}
