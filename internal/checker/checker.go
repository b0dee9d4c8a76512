// Package checker provides the specification oracles of the reproduction:
// it observes an execution through the engine's event stream and verifies
// Specification SP of the paper — every valid (generated) message is
// delivered to its destination once and only once — plus the supporting
// invariants the proofs rely on (no valid message is ever lost from all
// buffers before delivery, invalid deliveries per destination stay within
// the 2n bound of Proposition 4, messages are only delivered at their
// destination). The same fold keeps every generated message's lifecycle
// (generation, hops, delivery) and summarizes it into the Report of
// Propositions 5-7 (lifecycle.go).
//
// The oracles watch simulation-side UIDs, which no protocol guard or action
// reads, so they detect losses and duplications even when distinct messages
// collide on the protocol-visible triple (m, q, c).
package checker

import (
	"fmt"
	"slices"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/spec"
	sm "ssmfp/internal/statemodel"
)

// Delivery records one R6 consumption.
type Delivery struct {
	Msg   *core.Message
	At    graph.ProcessID
	Step  int
	Round int
}

// Tracker folds the generation (R1), hop (R3) and delivery (R6) events of
// one execution into per-message timelines, and feeds generations and
// deliveries to a spec.Ledger bounded by Proposition 4's 2n invalid
// deliveries per destination, which answers the specification
// questions. Create with New and register with Attach before running
// the engine. Only messages seen generated get a timeline: initial
// garbage and fault-injected messages have no lifecycle start.
type Tracker struct {
	order      []*Timeline // the timelines in generation order, indexed as the ledger's keys
	deliveries []Delivery
	ledger     *spec.Ledger
}

// New returns a Tracker for executions on g.
func New(g *graph.Graph) *Tracker {
	return &Tracker{ledger: spec.New(2 * g.N())}
}

// timeline returns uid's lifecycle, or nil if it was never generated.
func (t *Tracker) timeline(uid uint64) *Timeline {
	if i, ok := t.ledger.Index(spec.Key{UID: uid}); ok {
		return t.order[i]
	}
	return nil
}

// RecordInitial does nothing: the ledger's invalid-delivery bound needs
// no census of the initial configuration. Its only caller is perfbench's
// engine workload; it goes at the next change to the benchmark.
func (t *Tracker) RecordInitial([]sm.State) {}

// Attach subscribes the tracker to the engine's event stream.
func (t *Tracker) Attach(e *sm.Engine) { e.Subscribe(t.observe) }

func (t *Tracker) observe(ev sm.Event) {
	switch ev.Kind {
	case obs.KindGenerate:
		if t.ledger.Sent(spec.Key{UID: ev.Msg.UID}, ev.Dest) == len(t.order) {
			t.order = append(t.order, &Timeline{
				UID: ev.Msg.UID, Src: ev.Proc, Dest: ev.Dest, Payload: ev.Msg.Payload,
				GenStep: ev.Step, GenRound: ev.Round,
			})
		}
	case obs.KindForward:
		if tl := t.timeline(ev.Msg.UID); tl != nil {
			tl.Hops = append(tl.Hops, Hop{From: ev.From, To: ev.Proc, Step: ev.Step, Round: ev.Round})
		}
	case obs.KindDeliver:
		msg := (*core.Message)(ev.Msg)
		t.deliveries = append(t.deliveries, Delivery{Msg: msg, At: ev.Proc, Step: ev.Step, Round: ev.Round})
		t.ledger.Delivered(spec.Key{UID: msg.UID}, ev.Proc, msg.Valid)
		if tl := t.timeline(msg.UID); tl != nil {
			tl.Deliveries++
			if !tl.Delivered {
				tl.Delivered, tl.DeliverStep, tl.DeliverRound = true, ev.Step, ev.Round
			}
		}
	}
}

// GeneratedCount returns how many messages R1 accepted.
func (t *Tracker) GeneratedCount() int { return len(t.order) }

// Deliveries returns all recorded deliveries in order.
func (t *Tracker) Deliveries() []Delivery { return t.deliveries }

// DeliveredValid returns how many distinct valid messages were delivered.
func (t *Tracker) DeliveredValid() int { return t.ledger.Verdict().Delivered }

// InvalidDeliveredPerDest returns, per destination, how many invalid
// deliveries occurred (counting repeats: the Proposition 4 bound is on
// deliveries, not distinct messages).
func (t *Tracker) InvalidDeliveredPerDest() map[graph.ProcessID]int {
	return t.ledger.Verdict().Invalid
}

// InvalidDeliveredTotal returns the total number of invalid deliveries.
func (t *Tracker) InvalidDeliveredTotal() int {
	n := 0
	for _, c := range t.ledger.Verdict().Invalid {
		n += c
	}
	return n
}

// MarkCompromised excludes messages from the specification accounting:
// an injected transient fault destroyed or corrupted them in place, so
// the exactly-once obligation no longer applies (snap-stabilization
// guarantees messages generated *after* the last fault; see
// internal/faults). Idempotent.
func (t *Tracker) MarkCompromised(uids ...uint64) {
	for _, uid := range uids {
		t.ledger.Void(spec.Key{UID: uid})
	}
}

// Compromised reports how many tracked messages a fault invalidated.
func (t *Tracker) Compromised() int { return t.ledger.Verdict().Voided }

// AllValidDelivered reports whether every generated, non-compromised
// message has been delivered (at least once; duplications are reported
// separately).
func (t *Tracker) AllValidDelivered() bool { return len(t.ledger.Verdict().Lost) == 0 }

// UndeliveredValid lists the UIDs of generated messages not yet delivered,
// sorted for stable output.
func (t *Tracker) UndeliveredValid() []uint64 {
	var out []uint64
	for _, s := range t.ledger.Verdict().Lost {
		out = append(out, s.UID)
	}
	slices.Sort(out)
	return out
}

// CheckNoLoss verifies the real-time no-loss invariant against the current
// configuration: every generated, not-yet-delivered valid message must
// occupy at least one buffer. It returns an error naming the first lost
// message, or nil.
func (t *Tracker) CheckNoLoss(cfg []sm.State) error {
	present := make(map[uint64]bool)
	for _, s := range cfg {
		n := s.(*core.Node).FW
		for d := range n.Dests.Len() {
			ds := n.Dests.At(d)
			for _, m := range []*core.Message{ds.BufR, ds.BufE} {
				if m != nil {
					present[m.UID] = true
				}
			}
		}
	}
	for _, s := range t.ledger.Verdict().Lost {
		if tl := t.timeline(s.UID); !present[s.UID] {
			return fmt.Errorf("checker: valid message %d (%s, %d→%d) lost: undelivered and absent from all buffers",
				tl.UID, tl.Payload, tl.Src, tl.Dest)
		}
	}
	return nil
}

// Violations returns the specification violations observed so far, in
// stream order — duplicate generations, deliveries away from the
// destination, duplicate or unknown valid deliveries; past the ledger's
// cap, one line counts the rest — then every destination over
// Proposition 4's 2n invalid deliveries, ascending.
// Messages not yet delivered are not violations here; UndeliveredValid
// lists them.
func (t *Tracker) Violations() []string { return t.ledger.Breaches() }

// LatencySteps returns, for every delivered valid message, the number of
// steps between generation and (first) delivery.
func (t *Tracker) LatencySteps() map[uint64]int {
	out := make(map[uint64]int)
	for _, tl := range t.order {
		if tl.Delivered {
			out[tl.UID] = tl.DeliverStep - tl.GenStep
		}
	}
	return out
}

// LatencyRounds returns generation-to-delivery latencies in rounds.
func (t *Tracker) LatencyRounds() map[uint64]int {
	out := make(map[uint64]int)
	for _, tl := range t.order {
		if tl.Delivered {
			out[tl.UID] = tl.DeliverRound - tl.GenRound
		}
	}
	return out
}

// GenerationRoundsBySource returns, per source processor, the rounds at
// which its generations (R1 executions) occurred, in execution order — the
// raw data behind the per-processor delay and waiting-time measurements of
// Proposition 6.
func (t *Tracker) GenerationRoundsBySource() map[graph.ProcessID][]int {
	out := make(map[graph.ProcessID][]int)
	for _, tl := range t.order {
		out[tl.Src] = append(out[tl.Src], tl.GenRound)
	}
	return out
}

// GenerationRounds returns the rounds at which each generation occurred, in
// generation order — the raw data behind the delay/waiting-time
// measurements of Proposition 6.
func (t *Tracker) GenerationRounds() []int {
	out := make([]int, len(t.order))
	for i, tl := range t.order {
		out[i] = tl.GenRound
	}
	return out
}
