package core

import (
	"fmt"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// The footprint bits of a destination's forwarding fields, after
// routing.RouteField; Request, Pending and NextSeq are sm.Unsliced.
const (
	BufRField = routing.RouteField << (iota + 1)
	BufEField
	QueueField
)

// RuleName renders the canonical name of an SSMFP rule instance, e.g.
// RuleName("R3", 1) == "R3@1". The per-destination instances of Algorithm 1
// are mutually independent and run simultaneously; naming them apart lets
// scripted replays and move counters address individual instances.
func RuleName(base string, d graph.ProcessID) string { return fmt.Sprintf("%s@%d", base, d) }

// NewProgram returns the SSMFP program for every destination of g: the six
// rules of Algorithm 1 instantiated per destination, all at priority
// PriorityForwarding so that the routing algorithm A (priority
// routing.Priority) preempts them wherever both are enabled. The rules for
// d live in destination d's engine slot, routing.SlotOf(d), beside A@d.
// Compose with routing.NewProgram(g, RoutingOf) to obtain the full system
// of the paper. The choice_p(d) macro uses the paper's FIFO queue
// (PolicyQueue).
func NewProgram(g *graph.Graph) sm.Program {
	return NewProgramWithPolicy(g, PolicyQueue)
}

// NewProgramWithPolicy is NewProgram with an explicit choice_p(d) policy —
// the ablation hook of experiment E-X5 (the paper's conclusion asks
// whether a different selection scheme can improve the worst case; the
// unfair PolicyLowestID also demonstrates why fairness is required).
func NewProgramWithPolicy(g *graph.Graph, policy ChoicePolicy) sm.Program {
	return program(g, policy, false)
}

// program instantiates R1..R6 for every destination of g; literalR5
// selects R5 as Algorithm 1 prints it (LiteralR5Program).
func program(g *graph.Graph, policy ChoicePolicy, literalR5 bool) sm.Program {
	k := len(ruleBases)
	names := sm.InstanceNames(g.N(), ruleBases...)
	rules := make([]sm.Rule, 0, k*g.N())
	for dd := 0; dd < g.N(); dd++ {
		rules = append(rules, destRules(graph.ProcessID(dd), policy, literalR5, names[k*dd:k*(dd+1)])...)
	}
	return sm.NewProgram(rules...)
}

// ruleBases are the base names of Algorithm 1's rules, in rule order.
var ruleBases = []string{"R1", "R2", "R3", "R4", "R5", "R6"}

// destRules instantiates R1..R6 for destination d, named names[0..5].
func destRules(d graph.ProcessID, policy ChoicePolicy, literalR5 bool, names []string) []sm.Rule {
	// ds reads destination d's state at the executing processor; an
	// action writes its updated copy back through setDS.
	ds := func(v *sm.View) *DestState { return v.Self().(*Node).FW.Dest(d) }
	setDS := func(v *sm.View, s DestState) { v.Self().(*Node).FW.SetDest(d, s) }
	slot := routing.SlotOf(d)
	// The fields of d the rules' footprints name; u is Request, Pending, NextSeq.
	const route, bufR, bufE, queue, u = routing.RouteField, BufRField, BufEField, QueueField, sm.Unsliced
	r5Reads := bufR
	if literalR5 { // q = p: R5 also reads p's own bufE and route
		r5Reads |= bufE | route
	}

	return []sm.Rule{
		// (R1) Generation: request_p ∧ nextDestination_p = d ∧
		// bufR_p(d) = ∅ ∧ choice_p(d) = p  →
		// bufR_p(d) := (nextMessage_p, p, 0); request_p := false.
		{
			Name:     names[0],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    u | bufR | queue, ReadsNbrs: bufE | route, Writes: bufR | queue | u,
			Guard: func(v *sm.View) bool {
				self := v.Self().(*Node).FW
				if !self.Request || self.Dest(d).BufR != nil {
					return false
				}
				if nd, ok := self.NextDestination(); !ok || nd != d {
					return false
				}
				var buf [choiceBuf]graph.ProcessID
				c, _, ok := choose(policy, v, d, buf[:0])
				return ok && c == v.ID()
			},
			Action: func(v *sm.View) {
				self := v.Self().(*Node).FW
				var buf [choiceBuf]graph.ProcessID
				_, rest, _ := choose(policy, v, d, buf[:0])
				out := self.Pending[0]
				self.Pending = self.Pending[1:]
				msg := &Message{
					Payload: out.Payload,
					LastHop: v.ID(),
					Color:   0,
					UID:     (uint64(v.ID())+1)<<32 | self.NextSeq, // +1 keeps UID 0 free as the checker's "no message" sentinel
					Src:     v.ID(),
					Dest:    d,
					Valid:   true,
					GenStep: v.Step(),
				}
				self.NextSeq++
				s := *self.Dest(d)
				s.BufR = msg
				s.Queue = append([]graph.ProcessID(nil), rest...) // p has been served
				self.SetDest(d, s)
				// The paper sets request := false and lets the (blocking)
				// higher layer raise it again; we model an eager higher
				// layer that immediately re-requests while messages wait.
				self.Request = len(self.Pending) > 0
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindGenerate, Dest: d, Msg: msg.Record()})
				}
			},
		},
		// (R2) Internal forwarding: bufE_p(d) = ∅ ∧ bufR_p(d) = (m,q,c) ∧
		// (q = p ∨ bufE_q(d) ≠ (m,q',c))  →
		// bufE_p(d) := (m, p, color_p(d)); bufR_p(d) := ∅.
		{
			Name:     names[1],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    bufE | bufR, ReadsNbrs: bufE, Writes: bufE | bufR,
			Guard: func(v *sm.View) bool {
				s := ds(v)
				if s.BufE != nil || s.BufR == nil {
					return false
				}
				q := s.BufR.LastHop
				if q == v.ID() {
					return true
				}
				return !v.Read(q).(*Node).FW.Dest(d).BufE.SameMC(s.BufR)
			},
			Action: func(v *sm.View) {
				s := *ds(v)
				s.BufE = s.BufR.WithHopColor(v.ID(), freshColor(v, d))
				s.BufR = nil
				setDS(v, s)
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindInternal, Dest: d, Msg: s.BufE.Record()})
				}
			},
		},
		// (R3) Forwarding: bufR_p(d) = ∅ ∧ choice_p(d) = s ∧ s ≠ p ∧
		// bufE_s(d) = (m,q,c)  →  bufR_p(d) := (m, s, c).
		{
			Name:     names[2],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    bufR | queue | u, ReadsNbrs: bufE | route, Writes: bufR | queue,
			Guard: func(v *sm.View) bool {
				if ds(v).BufR != nil {
					return false
				}
				var buf [choiceBuf]graph.ProcessID
				c, _, ok := choose(policy, v, d, buf[:0])
				return ok && c != v.ID()
			},
			Action: func(v *sm.View) {
				s := *ds(v)
				var buf [choiceBuf]graph.ProcessID
				src, rest, _ := choose(policy, v, d, buf[:0])
				// Candidacy guarantees bufE_src(d) is occupied; the copy
				// keeps the color and records src as the last hop. (If the
				// stored last hop of bufE_src differs from src the message
				// was present at the initial configuration — footnote 1.)
				s.BufR = v.Read(src).(*Node).FW.Dest(d).BufE.WithHop(src)
				s.Queue = append([]graph.ProcessID(nil), rest...) // src has been served
				setDS(v, s)
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindForward, Dest: d, From: src, Msg: s.BufR.Record()})
				}
			},
		},
		// (R4) Erasing after forwarding: bufE_p(d) = (m,q,c) ∧ p ≠ d ∧
		// bufR_nextHop_p(d)(d) = (m,p,c) ∧
		// ∀r ∈ N_p∖{nextHop_p(d)}: bufR_r(d) ≠ (m,p,c)  →  bufE_p(d) := ∅.
		{
			Name:     names[3],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    bufE | route, ReadsNbrs: bufR, Writes: bufE,
			Guard: func(v *sm.View) bool {
				if v.ID() == d {
					return false
				}
				s := ds(v)
				if s.BufE == nil {
					return false
				}
				hop := v.Self().(*Node).RT.NextHop(d)
				if !matchesForward(v.Read(hop).(*Node).FW.Dest(d).BufR, s.BufE, v.ID()) {
					return false
				}
				for _, r := range v.Neighbors() {
					if r == hop {
						continue
					}
					if matchesForward(v.Read(r).(*Node).FW.Dest(d).BufR, s.BufE, v.ID()) {
						return false
					}
				}
				return true
			},
			Action: func(v *sm.View) {
				s := *ds(v)
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindErase, Dest: d, Buf: obs.BufEmission, Msg: s.BufE.Record()})
				}
				s.BufE = nil
				setDS(v, s)
			},
		},
		// (R5) Erasing after duplication: bufR_p(d) = (m,q,c) ∧ q ≠ p ∧
		// bufE_q(d) = (m,q',c) ∧ nextHop_q(d) ≠ p  →  bufR_p(d) := ∅.
		//
		// The q ≠ p restriction is a reproduction finding: Algorithm 1 as
		// printed does not exclude q = p, but then a freshly generated
		// message (m, p, 0) sitting in bufR_p is erased whenever the
		// processor's own bufE_p happens to hold an invalid message with
		// the same payload and color 0 (nextHop_p(d) ≠ p holds trivially)
		// — a valid message would be lost, contradicting Lemma 4. The
		// paper's own reading of R5 ("R5 is enabled for each *neighbor* q
		// of p", §3.3) restricts q to N_p, which is what we implement; the
		// self-generated case is instead drained by R2 once bufE_p frees.
		// literalR5 drops the restriction (LiteralR5Program).
		{
			Name:     names[4],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    r5Reads, ReadsNbrs: bufE | route, Writes: bufR,
			Guard: func(v *sm.View) bool {
				s := ds(v)
				if s.BufR == nil {
					return false
				}
				origin := v.Self().(*Node)
				if q := s.BufR.LastHop; q != v.ID() {
					origin = v.Read(q).(*Node)
				} else if !literalR5 {
					return false
				}
				return origin.FW.Dest(d).BufE.SameMC(s.BufR) && origin.RT.NextHop(d) != v.ID()
			},
			Action: func(v *sm.View) {
				s := *ds(v)
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindErase, Dest: d, Buf: obs.BufReception, Msg: s.BufR.Record()})
				}
				s.BufR = nil
				setDS(v, s)
			},
		},
		// (R6) Consumption: bufE_p(p) = (m,q,c)  →
		// deliver_p(m); bufE_p(p) := ∅.
		{
			Name:     names[5],
			Priority: PriorityForwarding,
			Slot:     slot,
			Reads:    bufE, Writes: bufE,
			Guard: func(v *sm.View) bool {
				return v.ID() == d && ds(v).BufE != nil
			},
			Action: func(v *sm.View) {
				s := *ds(v)
				if v.Observing() {
					v.Observe(obs.Event{Kind: obs.KindDeliver, Dest: d, Msg: s.BufE.Record()})
				}
				s.BufE = nil
				setDS(v, s)
			},
		},
	}
}

// FullProgram composes the routing algorithm A with SSMFP exactly as the
// paper runs them: simultaneously, with A at higher priority.
func FullProgram(g *graph.Graph) sm.Program {
	return FullProgramWithPolicy(g, PolicyQueue)
}

// FullProgramWithPolicy is FullProgram with an explicit choice policy.
func FullProgramWithPolicy(g *graph.Graph, policy ChoicePolicy) sm.Program {
	return sm.Compose(routingProgram(g), NewProgramWithPolicy(g, policy))
}

// DestRulesForTest exposes the per-destination rule set for white-box
// tests in external packages (rule indices follow the R1..R6 order).
func DestRulesForTest(d graph.ProcessID, policy ChoicePolicy) []sm.Rule {
	return destRules(d, policy, false, sm.InstanceNames(int(d)+1, ruleBases...)[len(ruleBases)*int(d):])
}
