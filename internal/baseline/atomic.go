package baseline

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/routing"
)

// MoveKind is one of the three atomic moves of the message-switched network
// model (§2.2 of the paper).
type MoveKind int

// The three moves: Generation creates a message in an empty buffer of its
// source, Forward copies a message to an empty buffer of the next hop and
// simultaneously frees the sender's buffer (atomic in this model — exactly
// the operation the shared-memory state model cannot express, which is why
// SSMFP needs its two-buffer color machinery), Consume removes a message at
// its destination and delivers it.
const (
	Generate MoveKind = iota
	Forward
	Consume
)

func (k MoveKind) String() string {
	switch k {
	case Generate:
		return "generate"
	case Forward:
		return "forward"
	case Consume:
		return "consume"
	default:
		return fmt.Sprintf("move(%d)", int(k))
	}
}

// Move is one applicable atomic move.
type Move struct {
	Kind MoveKind
	P    graph.ProcessID // acting processor (source, sender, or destination)
	Dest graph.ProcessID // destination whose buffer component is involved
}

// AtomicNetwork simulates the classical destination-based controller of
// Merlin–Schweitzer directly in the message-switched network model: one
// buffer b_p(d) per processor and destination, the three atomic moves, and
// routing by the supplied tables. With correct tables the buffer graph
// (Figure 1) is acyclic and the controller is deadlock-free; with corrupted
// tables it deadlocks or livelocks — experiment E-X1's reference failure
// modes. It is also the fault-free cost yardstick for E-X2.
type AtomicNetwork struct {
	G      *graph.Graph
	Tables []*routing.NodeState

	buf     [][]*core.Message // [p][d]
	pending [][]core.Outbound
	nextSeq []uint64

	rng         *rand.Rand
	moves       int
	movesByKind map[MoveKind]int
	delivered   []*core.Message
}

// NewAtomic builds an atomic-move network over g routing with tables
// (which may be corrupted; they are used as-is and never repaired unless
// RepairTables is called). The seed drives the uniform random choice among
// applicable moves.
func NewAtomic(g *graph.Graph, tables []*routing.NodeState, seed int64) *AtomicNetwork {
	n := g.N()
	buf := make([][]*core.Message, n)
	for p := range buf {
		buf[p] = make([]*core.Message, n)
	}
	return &AtomicNetwork{
		G:           g,
		Tables:      tables,
		buf:         buf,
		pending:     make([][]core.Outbound, n),
		nextSeq:     make([]uint64, n),
		rng:         rand.New(rand.NewSource(seed)),
		movesByKind: make(map[MoveKind]int),
	}
}

// CorrectTables is a convenience constructor for the canonical tables on g.
func CorrectTables(g *graph.Graph) []*routing.NodeState {
	ts := make([]*routing.NodeState, g.N())
	for p := 0; p < g.N(); p++ {
		ts[p] = routing.CorrectState(g, graph.ProcessID(p))
	}
	return ts
}

// Enqueue registers a higher-layer send request at p.
func (a *AtomicNetwork) Enqueue(p graph.ProcessID, payload string, dest graph.ProcessID) {
	a.pending[p] = append(a.pending[p], core.Outbound{Payload: payload, Dest: dest})
}

// PlaceInvalid puts an invalid message directly into b_p(d) (adversarial
// initial configuration). It panics if the buffer is occupied.
func (a *AtomicNetwork) PlaceInvalid(p, d graph.ProcessID, payload string) *core.Message {
	if a.buf[p][d] != nil {
		panic(fmt.Sprintf("baseline: buffer b_%d(%d) already occupied", p, d))
	}
	m := &core.Message{Payload: payload, LastHop: p, UID: invalidUIDBase + invalidUIDs.Add(1), Src: p, Dest: d, Valid: false}
	a.buf[p][d] = m
	return m
}

// Invalid messages draw UIDs from a range valid traffic never reaches;
// the counter is shared by every concurrent run in the process.
const invalidUIDBase = 1<<62 + 1

var invalidUIDs atomic.Uint64

// Buffer returns the message in b_p(d), or nil.
func (a *AtomicNetwork) Buffer(p, d graph.ProcessID) *core.Message { return a.buf[p][d] }

// LegalMoves enumerates every applicable move in the current state, in
// deterministic order.
func (a *AtomicNetwork) LegalMoves() []Move {
	var out []Move
	n := a.G.N()
	for pp := 0; pp < n; pp++ {
		p := graph.ProcessID(pp)
		if len(a.pending[p]) > 0 {
			d := a.pending[p][0].Dest
			if a.buf[p][d] == nil {
				out = append(out, Move{Kind: Generate, P: p, Dest: d})
			}
		}
		for dd := 0; dd < n; dd++ {
			d := graph.ProcessID(dd)
			if a.buf[p][d] == nil {
				continue
			}
			if p == d {
				out = append(out, Move{Kind: Consume, P: p, Dest: d})
				continue
			}
			hop := a.Tables[p].NextHop(d)
			if a.buf[hop][d] == nil {
				out = append(out, Move{Kind: Forward, P: p, Dest: d})
			}
		}
	}
	return out
}

// Step picks one applicable move uniformly at random and executes it.
// It returns false when no move is applicable (the network is either
// quiescent or deadlocked).
func (a *AtomicNetwork) Step() bool {
	moves := a.LegalMoves()
	if len(moves) == 0 {
		return false
	}
	a.apply(moves[a.rng.Intn(len(moves))])
	return true
}

func (a *AtomicNetwork) apply(m Move) {
	a.moves++
	a.movesByKind[m.Kind]++
	switch m.Kind {
	case Generate:
		out := a.pending[m.P][0]
		a.pending[m.P] = a.pending[m.P][1:]
		msg := &core.Message{
			Payload: out.Payload,
			LastHop: m.P,
			UID:     (uint64(m.P)+1)<<32 | a.nextSeq[m.P],
			Src:     m.P,
			Dest:    out.Dest,
			Valid:   true,
		}
		a.nextSeq[m.P]++
		a.buf[m.P][out.Dest] = msg
	case Forward:
		hop := a.Tables[m.P].NextHop(m.Dest)
		a.buf[hop][m.Dest] = a.buf[m.P][m.Dest].WithHop(m.P)
		a.buf[m.P][m.Dest] = nil
	case Consume:
		a.delivered = append(a.delivered, a.buf[m.P][m.Dest])
		a.buf[m.P][m.Dest] = nil
	}
}

// Run executes up to maxMoves moves, returning the number executed and
// whether the network stopped because no move was applicable.
func (a *AtomicNetwork) Run(maxMoves int) (moves int, stopped bool) {
	for moves < maxMoves {
		if !a.Step() {
			return moves, true
		}
		moves++
	}
	return moves, false
}

// Delivered returns the delivered messages in delivery order.
func (a *AtomicNetwork) Delivered() []*core.Message { return a.delivered }

// Moves returns the total move count; MovesByKind the per-kind breakdown.
func (a *AtomicNetwork) Moves() int                    { return a.moves }
func (a *AtomicNetwork) MovesByKind() map[MoveKind]int { return a.movesByKind }

// Quiescent reports whether all buffers are empty and nothing is pending.
func (a *AtomicNetwork) Quiescent() bool {
	for p := range a.buf {
		if len(a.pending[p]) > 0 {
			return false
		}
		for _, m := range a.buf[p] {
			if m != nil {
				return false
			}
		}
	}
	return true
}

// Deadlocked reports whether messages remain but no move is applicable —
// the failure corrupted routing tables can inflict on the classical
// controller (a cycle in the buffer graph with every buffer occupied).
func (a *AtomicNetwork) Deadlocked() bool {
	return !a.Quiescent() && len(a.LegalMoves()) == 0
}

// RepairTables replaces all routing tables with the canonical correct ones,
// modeling the completion of a self-stabilizing routing algorithm. The
// classical controller has no defense against what happened to messages
// before the repair.
func (a *AtomicNetwork) RepairTables() { a.Tables = CorrectTables(a.G) }
