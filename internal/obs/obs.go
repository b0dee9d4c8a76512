// Package obs is the schema of the state-model engine's execution trace
// and the consumers that turn it into artifacts: the typed Event and its
// closed set of kinds (obs.go), a versioned JSONL sink/loader (jsonl.go)
// and an opt-in HTTP introspection endpoint (http.go). The stream has one
// publisher, statemodel.Engine (Subscribe/Publish): every event is a move,
// a step, a round, a fault or a stabilization marker of one execution,
// located by Step and Round (§2.1), so a recorded stream holds that
// execution and nothing else.
// Live components (transports, the load generator, the campaign runner)
// report through their own channels — the telemetry registry behind
// /metrics, progress writers, result callbacks — never through this
// stream.
//
// The package sits below the protocol layers: it may import only
// internal/graph, so that statemodel, core, routing, faults, trace and
// sim can all build events without import cycles.
package obs

import "ssmfp/internal/graph"

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
)

// Valid reports whether k is a kind of the current schema.
func (k Kind) Valid() bool {
	switch k {
	case KindStep, KindFire, KindGenerate, KindInternal, KindForward,
		KindErase, KindDeliver, KindRound, KindFault, KindRoute, KindStabilized:
		return true
	}
	return false
}

// Buffer selectors for KindErase events.
const (
	BufReception = "R"
	BufEmission  = "E"
)

// MsgRecord is a protocol message as the event stream carries it: the
// triple (payload, last hop, color) the rules compare, plus the
// simulation-side bookkeeping no guard or action reads — the UID and
// validity bit the checker keys on, and the source, destination and
// generation step, which the JSONL form omits. core.Message has this
// record as its underlying type and is immutable, so an event shares its
// buffer's message instead of copying it and still shows the buffer's
// content at emission time.
type MsgRecord struct {
	Payload string          `json:"payload"`
	LastHop graph.ProcessID `json:"lasthop"`
	Color   int             `json:"color"`
	UID     uint64          `json:"uid"`
	Src     graph.ProcessID `json:"-"`
	Dest    graph.ProcessID `json:"-"`
	Valid   bool            `json:"valid"`
	GenStep int             `json:"-"`
}

// Event is one typed observation. Which fields are meaningful depends on
// Kind (see the kind constants); Seq is stamped by the engine and totally
// orders the stream, Step/Round locate the event in the execution.
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
