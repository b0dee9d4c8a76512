package core

import (
	"slices"

	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// candidates appends to cands, in deterministic order (sorted neighbors,
// then the processor itself), the processors currently satisfying the
// candidacy predicate of choice_p(d): neighbors q with a message in
// bufE_q(d) routed to p (nextHop_q(d) = p), plus p itself when the higher
// layer requests a generation for destination d.
func candidates(v *sm.View, d graph.ProcessID, cands []graph.ProcessID) []graph.ProcessID {
	p := v.ID()
	for _, q := range v.Neighbors() {
		nq := v.Read(q).(*Node)
		if nq.FW.Dest(d).BufE != nil && nq.RT.NextHop(d) == p {
			cands = append(cands, q)
		}
	}
	self := v.Self().(*Node).FW
	if self.Request {
		if nd, ok := self.NextDestination(); ok && nd == d {
			cands = append(cands, p)
		}
	}
	return cands
}

// normalizeQueue reconciles the persisted FIFO with the current candidate
// set, appending the result to out: stored entries that are still
// candidates keep their order (no candidate is ever passed by a later
// arrival), stale or duplicate or ill-typed entries are dropped, and new
// candidates are appended in deterministic order. The result has length
// ≤ Δ+1 since candidates ⊆ N_p ∪ {p}, small enough for linear membership
// tests. Both guards and actions recompute this same function, so guards
// stay side-effect free while fairness state persists across steps.
func normalizeQueue(stored, cands, out []graph.ProcessID) []graph.ProcessID {
	start := len(out)
	for _, q := range stored {
		if slices.Contains(cands, q) && !slices.Contains(out[start:], q) {
			out = append(out, q)
		}
	}
	for _, q := range cands {
		if !slices.Contains(out[start:], q) {
			out = append(out, q)
		}
	}
	return out
}

// ChoicePolicy selects among the implementations of the choice_p(d)
// macro. The paper prescribes the FIFO queue (PolicyQueue) and its
// conclusion asks whether a different selection scheme could improve the
// worst case — experiment E-X5 ablates the alternatives.
type ChoicePolicy int

// The available policies.
const (
	// PolicyQueue is the paper's scheme: a persisted FIFO of candidates
	// (length ≤ Δ+1); no candidate is ever passed once enqueued. Fair.
	PolicyQueue ChoicePolicy = iota
	// PolicyLowestID always serves the smallest-ID candidate. Simple and
	// cheap but unfair: under sustained load from a low-ID neighbor,
	// higher-ID candidates starve — the livelock the paper's fairness
	// requirement exists to prevent.
	PolicyLowestID
	// PolicyRotating serves candidates in cyclic ID order starting after
	// the last served one (round robin). Fair, with the same Δ+1 passing
	// bound as the queue but no stored order among waiting candidates.
	PolicyRotating
)

func (p ChoicePolicy) String() string {
	switch p {
	case PolicyQueue:
		return "fifo-queue"
	case PolicyLowestID:
		return "lowest-id"
	case PolicyRotating:
		return "rotating"
	default:
		return "unknown-policy"
	}
}

// choiceBuf sizes the stack scratch rules give choose: the candidates
// and the normalized queue, each at most Δ+1 long, fit without a heap
// allocation up to Δ = 7 (append spills beyond that). freshColor's
// colour set uses it too.
const choiceBuf = 16

// choose evaluates choice_p(d) under the policy. It returns the chosen
// processor, the queue contents to persist after serving it, and whether
// any candidate exists. For PolicyQueue the persisted value is the
// normalized queue minus its head; for PolicyRotating it is the served
// candidate (the rotation point); PolicyLowestID persists nothing. buf is
// scratch space the result may alias: rules pass a stack array so that
// choosing allocates nothing, and an action copies the queue it persists.
func choose(policy ChoicePolicy, v *sm.View, d graph.ProcessID, buf []graph.ProcessID) (graph.ProcessID, []graph.ProcessID, bool) {
	cands := candidates(v, d, buf[:0])
	if len(cands) == 0 {
		return 0, nil, false
	}
	stored := v.Self().(*Node).FW.Dest(d).Queue
	switch policy {
	case PolicyLowestID:
		best := cands[0]
		for _, c := range cands {
			if c < best {
				best = c
			}
		}
		return best, nil, true
	case PolicyRotating:
		last := graph.ProcessID(-1)
		if len(stored) > 0 {
			last = stored[0]
		}
		// Smallest candidate strictly greater than last, wrapping around.
		best := graph.ProcessID(-1)
		for _, c := range cands {
			if c > last && (best < 0 || c < best) {
				best = c
			}
		}
		if best < 0 { // wrap
			best = cands[0]
			for _, c := range cands {
				if c < best {
					best = c
				}
			}
		}
		return best, append(cands[len(cands):], best), true
	default: // PolicyQueue
		q := normalizeQueue(stored, cands, cands[len(cands):])
		return q[0], q[1:], true
	}
}

// freshColor implements color_p(d): the smallest c ∈ {0..Δ} such that no
// reception buffer bufR_q(d) of a neighbor q holds a message colored c.
// Since p has at most Δ neighbors and Δ+1 colors exist, a free color always
// exists.
func freshColor(v *sm.View, d graph.ProcessID) int {
	delta := v.Graph().MaxDegree()
	var small [choiceBuf]bool
	used := small[:]
	if delta+1 > len(small) {
		used = make([]bool, delta+1)
	}
	for _, q := range v.Neighbors() {
		if m := v.Read(q).(*Node).FW.Dest(d).BufR; m != nil && m.Color >= 0 && m.Color <= delta {
			used[m.Color] = true
		}
	}
	for c := 0; c <= delta; c++ {
		if !used[c] {
			return c
		}
	}
	panic("core: no free color — more than Δ neighbors?")
}

// matchesForward reports whether bufR holds exactly the forwarded copy
// (m, p, c) of the message in bufE at processor p — the comparison R4 makes
// against the next hop's (and every other neighbor's) reception buffer.
func matchesForward(bufR, bufE *Message, p graph.ProcessID) bool {
	if bufR == nil || bufE == nil {
		return false
	}
	return bufR.Payload == bufE.Payload && bufR.LastHop == p && bufR.Color == bufE.Color
}
