// Package core implements SSMFP, the snap-stabilizing message forwarding
// protocol of the paper (§3.2, Algorithm 1). Every processor p keeps, per
// destination d, a reception buffer bufR_p(d) and an emission buffer
// bufE_p(d); messages are triples (m, q, c) of useful information, last hop
// and color; six guarded rules R1–R6 generate, advance, duplicate-erase and
// deliver messages so that — provided the self-stabilizing silent routing
// algorithm A (internal/routing) runs simultaneously with priority — every
// generated message is delivered to its destination once and only once,
// regardless of the initial configuration (Specification SP).
package core

import (
	"fmt"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// Message is the protocol's message triple (m, q, c): Payload is the useful
// information m, LastHop the identity q ∈ N_p ∪ {p} of the last processor
// the message crossed, Color the flag c ∈ {0..Δ} that prevents merges and
// losses. The destination is implicit in the buffer index holding the
// message.
//
// The remaining fields are simulation-side bookkeeping that no guard or
// action ever reads: UID is the true identity of the message (the paper's
// proof-level notion that two messages with equal useful information are
// still distinct messages), Src/Dest/Valid/GenStep feed the specification
// checkers. The fields are those of obs.MsgRecord, the message as the
// event stream carries it, so Record is a conversion, not a copy.
type Message obs.MsgRecord

// SameMC reports whether two messages agree on payload and color — the
// paper's "(m, q', c)" comparisons in R2 and R5 that ignore the last hop.
// Either operand may be nil (an empty buffer), which never matches.
func (m *Message) SameMC(o *Message) bool {
	if m == nil || o == nil {
		return false
	}
	return m.Payload == o.Payload && m.Color == o.Color
}

// Equals reports whether two messages agree on the full protocol triple
// (payload, last hop, color) — the exact "(m, p, c)" comparison of R4.
// Either operand may be nil, which never matches.
func (m *Message) Equals(o *Message) bool {
	if m == nil || o == nil {
		return false
	}
	return m.Payload == o.Payload && m.LastHop == o.LastHop && m.Color == o.Color
}

// WithHop returns a copy of m carrying a new last hop (the forwarding copy
// of R3). Messages are treated as immutable values; rules always construct
// fresh copies.
func (m *Message) WithHop(q graph.ProcessID) *Message {
	c := *m
	c.LastHop = q
	return &c
}

// WithHopColor returns a copy of m with a new last hop and color (the
// internal move of R2).
func (m *Message) WithHopColor(q graph.ProcessID, color int) *Message {
	c := *m
	c.LastHop = q
	c.Color = color
	return &c
}

// Record is the message as an obs.Event carries it: the same storage,
// since messages are immutable. A nil message records as nil (an empty
// buffer).
func (m *Message) Record() *obs.MsgRecord { return (*obs.MsgRecord)(m) }

// String renders the protocol-visible triple plus validity, e.g.
// "(hello,q=2,c=1,valid)".
func (m *Message) String() string {
	if m == nil {
		return "∅"
	}
	v := "invalid"
	if m.Valid {
		v = "valid"
	}
	return fmt.Sprintf("(%s,q=%d,c=%d,%s)", m.Payload, m.LastHop, m.Color, v)
}
