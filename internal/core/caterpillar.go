package core

import (
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// CaterpillarType classifies a buffer occurrence of a message per
// Definition 3 of the paper. The proofs track a message's progress as its
// caterpillar cycles 1 → 2 → 3 → (1 on the next hop); Figure 4 illustrates
// the three shapes.
type CaterpillarType int

// Caterpillar kinds; None means the buffer occurrence heads no caterpillar
// (e.g. a reception-buffer copy whose origin's emission buffer still holds
// the message — the tail of someone else's caterpillar).
const (
	None CaterpillarType = iota
	Type1
	Type2
	Type3
)

func (t CaterpillarType) String() string {
	switch t {
	case Type1:
		return "type-1"
	case Type2:
		return "type-2"
	case Type3:
		return "type-3"
	default:
		return "none"
	}
}

// routingProgram adapts routing.NewProgram to the composed Node state.
func routingProgram(g *graph.Graph) sm.Program {
	return routing.NewProgram(g, RoutingOf)
}

// ClassifyR classifies the message in bufR_p(d) of the configuration cfg.
// A reception occurrence (m, q, c) heads a caterpillar of type 1 iff the
// origin q's emission buffer no longer carries (m, ·, c) or the message was
// generated here (q = p).
func ClassifyR(g *graph.Graph, cfg []sm.State, p, d graph.ProcessID) CaterpillarType {
	m := fw(cfg[p]).Dest(d).BufR
	if m == nil {
		return None
	}
	if m.LastHop == p {
		return Type1
	}
	if !fw(cfg[m.LastHop]).Dest(d).BufE.SameMC(m) {
		return Type1
	}
	return None
}

// ClassifyE classifies the message in bufE_p(d): type 2 when the next hop's
// reception buffer does not hold the forwarded copy (m, p, c) yet, type 3
// when some neighbor's reception buffer does. At the destination itself
// (p = d, where nextHop is not consulted and R6 consumes directly) the
// occurrence is classified type 2 unless a neighbor holds a copy.
func ClassifyE(g *graph.Graph, cfg []sm.State, p, d graph.ProcessID) CaterpillarType {
	m := fw(cfg[p]).Dest(d).BufE
	if m == nil {
		return None
	}
	for _, q := range g.Neighbors(p) {
		if matchesForward(fw(cfg[q]).Dest(d).BufR, m, p) {
			return Type3
		}
	}
	return Type2
}

// CaterpillarCensus counts, over the whole configuration, the buffer
// occurrences of each caterpillar type for destination d. Invariant (used
// by tests and experiment E-F4): every occupied buffer is either the head
// of a caterpillar or the tail of exactly one type-3 caterpillar.
func CaterpillarCensus(g *graph.Graph, cfg []sm.State, d graph.ProcessID) map[CaterpillarType]int {
	out := make(map[CaterpillarType]int)
	for pp := 0; pp < g.N(); pp++ {
		p := graph.ProcessID(pp)
		if t := ClassifyR(g, cfg, p, d); t != None {
			out[t]++
		}
		if t := ClassifyE(g, cfg, p, d); t != None {
			out[t]++
		}
	}
	return out
}

// Occupancy returns how many buffers currently hold a message for
// destination d (0..2n), and how many of those hold valid messages.
func Occupancy(cfg []sm.State, d graph.ProcessID) (total, valid int) {
	for _, s := range cfg {
		ds := fw(s).Dest(d)
		for _, m := range []*Message{ds.BufR, ds.BufE} {
			if m != nil {
				total++
				if m.Valid {
					valid++
				}
			}
		}
	}
	return total, valid
}

// Quiescent reports whether no message for any destination occupies any
// buffer and no generation is pending anywhere — the all-delivered state
// experiments run to.
func Quiescent(cfg []sm.State) bool {
	for _, s := range cfg {
		n := fw(s)
		if len(n.Pending) > 0 {
			return false
		}
		for _, ds := range n.Dests {
			if ds.BufR != nil || ds.BufE != nil {
				return false
			}
		}
	}
	return true
}
