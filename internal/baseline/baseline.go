// Package baseline implements the classical (non-stabilizing)
// destination-based forwarding controller that §3.1 of the paper starts
// from: one buffer b_p(d) per processor and destination, moves restricted
// to the destination-based buffer graph of Merlin–Schweitzer (Figure 1),
// message identity checked by payload only (no color flag). With correct
// routing tables this controller is deadlock-free and delivers every
// message; with corrupted initial tables it exhibits exactly the failures
// the paper's protocol is designed to rule out:
//
//   - livelock: a message circulates forever in a routing loop (when no
//     routing repair runs),
//   - loss: the erase rule matches a *different* message with the same
//     payload at the next hop and deletes the original,
//   - duplication: the routing table changes between the copy and the
//     erase, leaving two live copies of one message.
//
// Experiment E-X1 runs this package against SSMFP from identical corrupted
// configurations; experiment E-X2 uses it as the fault-free cost baseline.
package baseline

import (
	"fmt"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// NodeState is the forwarding state of one processor: the single buffer per
// destination plus the same higher-layer interface SSMFP uses (request bit,
// pending FIFO, UID counter).
type NodeState struct {
	Request bool
	Pending []core.Outbound
	Buf     []*core.Message // one buffer per destination; nil = empty
	NextSeq uint64
}

// Clone deep-copies the forwarding state (messages are immutable).
func (s *NodeState) Clone() *NodeState {
	return &NodeState{
		Request: s.Request,
		Pending: append([]core.Outbound(nil), s.Pending...),
		Buf:     append([]*core.Message(nil), s.Buf...),
		NextSeq: s.NextSeq,
	}
}

// Enqueue mirrors core.NodeState.Enqueue.
func (s *NodeState) Enqueue(payload string, dest graph.ProcessID) {
	s.Pending = append(s.Pending, core.Outbound{Payload: payload, Dest: dest})
	if !s.Request {
		s.Request = true
	}
}

// nextDestination mirrors the paper's macro.
func (s *NodeState) nextDestination() (graph.ProcessID, bool) {
	if len(s.Pending) == 0 {
		return 0, false
	}
	return s.Pending[0].Dest, true
}

// Node is the composed per-processor state: routing table plus baseline
// forwarding state.
type Node struct {
	RT *routing.NodeState
	FW *NodeState
}

// Clone implements statemodel.State.
func (n *Node) Clone() sm.State { return &Node{RT: n.RT.Clone(), FW: n.FW.Clone()} }

// RoutingOf adapts Node for routing.NewProgram.
func RoutingOf(s sm.State) *routing.NodeState { return s.(*Node).RT }

func fw(s sm.State) *NodeState { return s.(*Node).FW }

// CleanNode returns the fault-free initial state for p.
func CleanNode(g *graph.Graph, p graph.ProcessID) *Node {
	return &Node{RT: routing.CorrectState(g, p), FW: &NodeState{Buf: make([]*core.Message, g.N())}}
}

// CleanConfig returns the fault-free initial configuration.
func CleanConfig(g *graph.Graph) []sm.State {
	cfg := make([]sm.State, g.N())
	for p := 0; p < g.N(); p++ {
		cfg[p] = CleanNode(g, graph.ProcessID(p))
	}
	return cfg
}

// PriorityForwarding keeps the same priority split as SSMFP when the
// baseline is composed with the routing algorithm.
const PriorityForwarding = routing.Priority + 1

// NaiveProgram returns the naive shared-memory port of the classical
// controller — "SSMFP without colors": per destination d a generation rule
// G, a copy rule F1 (receiver pulls the message of the lowest-ID neighbor
// routed to it), an erase rule F2 (sender erases once the next hop holds a
// same-payload message last-hopped from it), and a consumption rule C at
// the destination. The payload-only match of F2 is the flaw the color flag
// fixes: it loses messages on payload collisions and duplicates them when
// the copy disappears (consumed or rerouted) before the erase.
func NaiveProgram(g *graph.Graph) sm.Program {
	var rules []sm.Rule
	for dd := 0; dd < g.N(); dd++ {
		rules = append(rules, destRules(graph.ProcessID(dd))...)
	}
	return sm.NewProgram(rules...)
}

// NaiveFullProgram composes the routing algorithm with the naive controller
// (used to show duplication/loss under repair; without A the corrupted
// tables never change and the failure mode is livelock instead).
func NaiveFullProgram(g *graph.Graph) sm.Program {
	return sm.Compose(routing.NewProgram(g, RoutingOf), NaiveProgram(g))
}

// puller returns the lowest-ID neighbor of p holding a message for d that
// is routed to p, if any.
func puller(v *sm.View, d graph.ProcessID) (graph.ProcessID, bool) {
	for _, q := range v.Neighbors() {
		nq := v.Read(q).(*Node)
		if nq.FW.Buf[d] != nil && nq.RT.NextHop(d) == v.ID() {
			return q, true
		}
	}
	return 0, false
}

func destRules(d graph.ProcessID) []sm.Rule {
	name := func(base string) string { return fmt.Sprintf("%s@%d", base, d) }
	return []sm.Rule{
		// (G) Generation into the empty buffer.
		{
			Name:     name("G"),
			Priority: PriorityForwarding,
			Guard: func(v *sm.View) bool {
				self := fw(v.Self())
				if !self.Request || self.Buf[d] != nil {
					return false
				}
				nd, ok := self.nextDestination()
				return ok && nd == d
			},
			Action: func(v *sm.View) {
				self := fw(v.Self())
				out := self.Pending[0]
				self.Pending = self.Pending[1:]
				msg := &core.Message{
					Payload: out.Payload,
					LastHop: v.ID(),
					UID:     (uint64(v.ID())+1)<<32 | self.NextSeq,
					Src:     v.ID(),
					Dest:    d,
					Valid:   true,
					GenStep: v.Step(),
				}
				self.NextSeq++
				self.Buf[d] = msg
				self.Request = len(self.Pending) > 0
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindGenerate, Dest: d, Msg: msg.Record()})
				}
			},
		},
		// (F1) Copy: receiver pulls from the first neighbor routed to it.
		{
			Name:     name("F1"),
			Priority: PriorityForwarding,
			Guard: func(v *sm.View) bool {
				if fw(v.Self()).Buf[d] != nil {
					return false
				}
				_, ok := puller(v, d)
				return ok
			},
			Action: func(v *sm.View) {
				q, _ := puller(v, d)
				fw(v.Self()).Buf[d] = v.Read(q).(*Node).FW.Buf[d].WithHop(q)
			},
		},
		// (F2) Erase: the sender deletes its copy as soon as the next hop
		// holds a message with the same payload last-hopped from it — the
		// payload-only match (no color) is the controller's flaw.
		{
			Name:     name("F2"),
			Priority: PriorityForwarding,
			Guard: func(v *sm.View) bool {
				p := v.ID()
				if p == d {
					return false
				}
				self := fw(v.Self())
				if self.Buf[d] == nil {
					return false
				}
				hop := v.Self().(*Node).RT.NextHop(d)
				m := v.Read(hop).(*Node).FW.Buf[d]
				return m != nil && m.Payload == self.Buf[d].Payload && m.LastHop == p
			},
			Action: func(v *sm.View) { fw(v.Self()).Buf[d] = nil },
		},
		// (C) Consumption at the destination.
		{
			Name:     name("C"),
			Priority: PriorityForwarding,
			Guard: func(v *sm.View) bool {
				return v.ID() == d && fw(v.Self()).Buf[d] != nil
			},
			Action: func(v *sm.View) {
				self := fw(v.Self())
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindDeliver, Dest: d, Msg: self.Buf[d].Record()})
				}
				self.Buf[d] = nil
			},
		},
	}
}

// Quiescent reports whether no buffer holds a message and nothing is
// pending.
func Quiescent(cfg []sm.State) bool {
	for _, s := range cfg {
		n := fw(s)
		if len(n.Pending) > 0 {
			return false
		}
		for _, m := range n.Buf {
			if m != nil {
				return false
			}
		}
	}
	return true
}
