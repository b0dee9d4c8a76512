package core

import (
	"math/rand"
	"slices"

	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// Outbound is a higher-layer send request: a payload waiting to be injected
// for a destination. The paper's nextMessage_p / nextDestination_p macros
// read the head of the pending FIFO.
type Outbound struct {
	Payload string
	Dest    graph.ProcessID
}

// DestState is the per-destination part of a processor's forwarding state:
// the two buffers of the paper's buffer graph plus the fair-selection queue
// behind choice_p(d) (a FIFO over N_p ∪ {p}, length at most Δ+1).
type DestState struct {
	BufR  *Message // reception buffer; nil = empty
	BufE  *Message // emission buffer; nil = empty
	Queue []graph.ProcessID
}

// NodeState is the forwarding state of one processor: the shared request
// bit of the higher-layer interface, the pending FIFO behind the
// nextMessage/nextDestination macros, per-destination buffer pairs, and a
// sequence counter minting simulation UIDs for generated messages.
//
// Dests holds the destinations in a copy-on-write slot table
// (statemodel.SlotTable), so a slot-scoped copy (Node.CloneSlot) shares
// it whole and a move's SetDest copies one chunk of it. Rule actions
// replace a queue rather than write its elements.
type NodeState struct {
	Request bool
	Pending []Outbound
	Dests   sm.SlotTable[DestState]
	NextSeq uint64
}

// Dest returns destination d's state. Write through it only on a state
// fresh from EmptyState or Clone; everywhere else use SetDest.
func (s *NodeState) Dest(d graph.ProcessID) *DestState { return s.Dests.At(int(d)) }

// SetDest writes destination d's state copy-on-write: states sharing the
// table keep the old value.
func (s *NodeState) SetDest(d graph.ProcessID, ds DestState) { s.Dests.Set(int(d), ds) }

// Clone deep-copies the forwarding state. Messages are immutable and may be
// shared between clones.
func (s *NodeState) Clone() *NodeState {
	c := &NodeState{
		Request: s.Request,
		Pending: append([]Outbound(nil), s.Pending...),
		Dests:   s.Dests.Clone(),
		NextSeq: s.NextSeq,
	}
	for d := range c.Dests.Len() {
		ds := c.Dests.At(d)
		ds.Queue = append([]graph.ProcessID(nil), ds.Queue...)
	}
	return c
}

// NextDestination returns the destination of the head pending message and
// whether one exists (the paper's nextDestination_p macro, null when the
// higher layer has nothing waiting).
func (s *NodeState) NextDestination() (graph.ProcessID, bool) {
	if len(s.Pending) == 0 {
		return 0, false
	}
	return s.Pending[0].Dest, true
}

// Enqueue appends a higher-layer send request and raises the request bit if
// it is down — the only transition the paper allows the higher layer
// ("the higher layer can set request_p to true when its value is false and
// when there is a waiting message").
func (s *NodeState) Enqueue(payload string, dest graph.ProcessID) {
	s.Pending = append(s.Pending, Outbound{Payload: payload, Dest: dest})
	if !s.Request {
		s.Request = true
	}
}

// Node is the complete per-processor state of the composed system: the
// routing table maintained by the self-stabilizing algorithm A and the
// SSMFP forwarding state. Both protocols' rules operate on this one state
// type, A at priority routing.Priority and SSMFP at PriorityForwarding.
type Node struct {
	RT *routing.NodeState
	FW *NodeState
}

// Clone implements statemodel.State.
func (n *Node) Clone() sm.State { return &Node{RT: n.RT.Clone(), FW: n.FW.Clone()} }

// nodeCopy lays out a slot-scoped copy's own structs in one allocation.
// It holds no chunk of a slot table (see statemodel.SlotTable).
type nodeCopy struct {
	node Node
	fw   NodeState
	rt   routing.NodeState
}

// CloneSlot implements statemodel.SlotState for the slots of the composed
// program, slot d+1 holding destination d (routing.SlotOf). The copy owns
// its Node, NodeState and routing.NodeState structs and shares both slot
// tables whole: a move writes destination d through SetDest or
// routing.NodeState.SetRoute, which copy only the chunk they write. It
// also shares the pending queue's backing array, which it caps so an
// append reallocates.
func (n *Node) CloneSlot(int) sm.State {
	c := &nodeCopy{fw: *n.FW, rt: *n.RT}
	c.fw.Pending = slices.Clip(c.fw.Pending)
	c.node = Node{RT: &c.rt, FW: &c.fw}
	return &c.node
}

// RoutingOf adapts Node for routing.NewProgram.
func RoutingOf(s sm.State) *routing.NodeState { return s.(*Node).RT }

// fw extracts the forwarding component.
func fw(s sm.State) *NodeState { return s.(*Node).FW }

// PriorityForwarding is the rule priority of SSMFP; strictly lower priority
// (larger number) than the routing algorithm, per the paper's assumption
// that A preempts SSMFP at any processor where both are enabled.
const PriorityForwarding = routing.Priority + 1

// CleanNode returns the "good" initial state for processor p: correct
// routing tables, empty buffers, empty queues, no request. Used by
// fault-free experiments (E-X2) and as the baseline for corruption.
func CleanNode(g *graph.Graph, p graph.ProcessID) *Node {
	return &Node{RT: routing.CorrectState(g, p), FW: EmptyState(g)}
}

// EmptyState returns a forwarding state with all buffers empty.
func EmptyState(g *graph.Graph) *NodeState {
	return &NodeState{Dests: sm.NewSlotTable[DestState](g.N())}
}

// CleanConfig returns the fault-free initial configuration on g.
func CleanConfig(g *graph.Graph) []sm.State {
	cfg := make([]sm.State, g.N())
	for p := 0; p < g.N(); p++ {
		cfg[p] = CleanNode(g, graph.ProcessID(p))
	}
	return cfg
}

// CorruptOptions tunes RandomConfig's adversarial initial configurations.
type CorruptOptions struct {
	// BufferFill is the probability that each buffer holds an invalid
	// message.
	BufferFill float64
	// PayloadAlphabet is the set of payloads invalid messages draw from;
	// a small alphabet forces (m, q, c) collisions with valid traffic.
	// Empty means {"m0", "m1", "m2"}.
	PayloadAlphabet []string
	// CorruptRouting randomizes routing tables when true; otherwise tables
	// start correct.
	CorruptRouting bool
	// CorruptQueues fills choice queues with random well-typed contents.
	CorruptQueues bool
	// PhantomRequests randomly raises request bits with nothing pending.
	PhantomRequests bool
}

// DefaultCorrupt is the standard adversarial configuration used by the
// experiments: everything the paper allows to be arbitrary is randomized.
var DefaultCorrupt = CorruptOptions{
	BufferFill:      0.5,
	CorruptRouting:  true,
	CorruptQueues:   true,
	PhantomRequests: true,
}

// Invalid messages draw UIDs from a range valid traffic never reaches.
const invalidUIDBase = 1<<63 + 1

// RandomConfig returns a well-typed but otherwise arbitrary initial
// configuration: the starting point of every snap-stabilization experiment.
// Message fields stay in their domains (LastHop ∈ N_p ∪ {p}, Color ∈
// {0..Δ}) as §3.2 defines, but contents are adversarial: invalid messages,
// corrupted queues, phantom requests and (optionally) corrupted routing
// tables. Invalid messages receive distinct UIDs with the high bit set so
// checkers can track them individually; they are numbered within the
// configuration, so the same rng state builds the same configuration
// whatever else the process built before.
func RandomConfig(g *graph.Graph, rng *rand.Rand, opts CorruptOptions) []sm.State {
	alphabet := opts.PayloadAlphabet
	if len(alphabet) == 0 {
		alphabet = []string{"m0", "m1", "m2"}
	}
	delta := g.MaxDegree()
	cfg := make([]sm.State, g.N())
	invalid := uint64(0)
	for pp := 0; pp < g.N(); pp++ {
		p := graph.ProcessID(pp)
		var rt *routing.NodeState
		if opts.CorruptRouting {
			rt = routing.RandomState(g, p, rng)
		} else {
			rt = routing.CorrectState(g, p)
		}
		fwState := EmptyState(g)
		hops := append(append([]graph.ProcessID(nil), g.Neighbors(p)...), p)
		for d := 0; d < g.N(); d++ {
			ds := fwState.Dests.At(d)
			mk := func() *Message {
				invalid++
				return &Message{
					Payload: alphabet[rng.Intn(len(alphabet))],
					LastHop: hops[rng.Intn(len(hops))],
					Color:   rng.Intn(delta + 1),
					UID:     invalidUIDBase + invalid,
					Src:     p,
					Dest:    graph.ProcessID(d),
					Valid:   false,
				}
			}
			if rng.Float64() < opts.BufferFill {
				ds.BufR = mk()
			}
			if rng.Float64() < opts.BufferFill {
				ds.BufE = mk()
			}
			if opts.CorruptQueues {
				perm := rng.Perm(len(hops))
				k := rng.Intn(len(hops) + 1)
				for _, i := range perm[:k] {
					ds.Queue = append(ds.Queue, hops[i])
				}
			}
		}
		if opts.PhantomRequests && rng.Intn(2) == 0 {
			fwState.Request = true
		}
		cfg[pp] = &Node{RT: rt, FW: fwState}
	}
	return cfg
}
