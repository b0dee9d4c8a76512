// Package faults injects transient faults into a running execution —
// the scenario snap-stabilization is about. A transient fault hits
// between two steps and arbitrarily corrupts state: routing tables,
// buffer contents (overwriting, dropping or cloning messages), fairness
// queues, request bits. Snap-stabilization then guarantees that every
// message generated *after* the fault is delivered exactly once; messages
// that were in flight when the fault hit may have been destroyed or
// duplicated by the fault itself (their buffers are state like any
// other), so the oracle marks them compromised and exempts them —
// exactly the paper's treatment of "invalid" messages, applied to a
// mid-execution fault instead of time zero.
package faults

import (
	"math/rand"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
)

// Kind enumerates fault classes.
type Kind int

// The injectable fault classes.
const (
	// TableScramble randomizes a processor's routing table.
	TableScramble Kind = iota
	// BufferDrop empties an occupied buffer (destroys its message).
	BufferDrop
	// BufferGarbage overwrites a buffer with a fresh invalid message.
	BufferGarbage
	// BufferClone copies an in-flight message into another empty buffer
	// (the fault-made duplicate the oracle must tolerate).
	BufferClone
	// QueueScramble rewrites a fairness queue with random well-typed
	// contents.
	QueueScramble
	// RequestFlip toggles a request bit.
	RequestFlip
	// ColorScramble recolors a buffered message.
	ColorScramble
)

func (k Kind) String() string {
	switch k {
	case TableScramble:
		return "table-scramble"
	case BufferDrop:
		return "buffer-drop"
	case BufferGarbage:
		return "buffer-garbage"
	case BufferClone:
		return "buffer-clone"
	case QueueScramble:
		return "queue-scramble"
	case RequestFlip:
		return "request-flip"
	case ColorScramble:
		return "color-scramble"
	default:
		return "unknown-fault"
	}
}

// AllKinds lists every fault class.
var AllKinds = []Kind{
	TableScramble, BufferDrop, BufferGarbage, BufferClone,
	QueueScramble, RequestFlip, ColorScramble,
}

// Injector strikes a running engine with random transient faults.
type Injector struct {
	g     *graph.Graph
	rng   *rand.Rand
	kinds []Kind
}

// NewInjector builds an injector over g drawing from the given fault
// classes (nil = AllKinds).
func NewInjector(g *graph.Graph, seed int64, kinds []Kind) *Injector {
	if len(kinds) == 0 {
		kinds = AllKinds
	}
	return &Injector{g: g, rng: rand.New(rand.NewSource(seed)), kinds: kinds}
}

var garbageUID uint64 = 1<<61 + 1

// Strike applies count random faults to the engine's current configuration
// (between steps — the engine holds no snapshot then). It returns the UIDs
// of every message the faults destroyed, overwrote, cloned or recolored:
// the messages whose exactly-once obligation the fault voided. Callers
// pass them to checker.Tracker.MarkCompromised.
func (in *Injector) Strike(e *sm.Engine, count int) []uint64 {
	var compromised []uint64
	for i := 0; i < count; i++ {
		p := graph.ProcessID(in.rng.Intn(in.g.N()))
		node := e.StateOf(p).(*core.Node)
		// The in-place corruption below invalidates the engine's round
		// bookkeeping (the pending set describes a configuration that no
		// longer exists) on top of the cache dirtying StateOf already did.
		e.Invalidate(p)
		d := graph.ProcessID(in.rng.Intn(in.g.N()))
		ds := *node.FW.Dest(d)
		buf := &ds.BufR
		if in.rng.Intn(2) == 0 {
			buf = &ds.BufE
		}
		kind := in.kinds[in.rng.Intn(len(in.kinds))]
		e.Publish(obs.Event{
			Kind: obs.KindFault, Step: e.Steps(), Round: e.Rounds(),
			Proc: p, Dest: d, Detail: kind.String(),
		})
		switch kind {
		case TableScramble:
			*node.RT = *routing.RandomState(in.g, p, in.rng)
		case BufferDrop:
			if *buf != nil {
				compromised = append(compromised, (*buf).UID)
				*buf = nil
			}
		case BufferGarbage:
			if *buf != nil {
				compromised = append(compromised, (*buf).UID)
			}
			garbageUID++
			hops := append(append([]graph.ProcessID(nil), in.g.Neighbors(p)...), p)
			*buf = &core.Message{
				Payload: "fault-garbage",
				LastHop: hops[in.rng.Intn(len(hops))],
				Color:   in.rng.Intn(in.g.MaxDegree() + 1),
				UID:     garbageUID,
				Src:     p,
				Dest:    d,
				Valid:   false,
			}
		case BufferClone:
			if *buf != nil {
				// Clone into the sibling buffer if free; the duplicate is
				// protocol-visible state, so the original's exactly-once
				// obligation is voided.
				var sibling **core.Message
				if buf == &ds.BufR {
					sibling = &ds.BufE
				} else {
					sibling = &ds.BufR
				}
				if *sibling == nil {
					clone := **buf
					*sibling = &clone
					compromised = append(compromised, (*buf).UID)
				}
			}
		case QueueScramble:
			hops := append(append([]graph.ProcessID(nil), in.g.Neighbors(p)...), p)
			perm := in.rng.Perm(len(hops))
			k := in.rng.Intn(len(hops) + 1)
			q := make([]graph.ProcessID, 0, k)
			for _, idx := range perm[:k] {
				q = append(q, hops[idx])
			}
			ds.Queue = q
		case RequestFlip:
			node.FW.Request = !node.FW.Request
		case ColorScramble:
			if *buf != nil {
				compromised = append(compromised, (*buf).UID)
				recolored := **buf
				recolored.Color = in.rng.Intn(in.g.MaxDegree() + 1)
				*buf = &recolored
			}
		}
		node.FW.SetDest(d, ds)
	}
	return compromised
}

// InFlightValid returns the UIDs of every valid message currently
// occupying any buffer. A transient fault can interact with any in-flight
// message (e.g. recoloring one message can make it impersonate another's
// forwarded copy), so the sound exemption set for a strike is the whole
// in-flight population at strike time: snap-stabilization promises
// exactly-once for messages generated after the last fault, not for those
// the fault could touch.
func InFlightValid(e *sm.Engine, g *graph.Graph) []uint64 {
	var out []uint64
	seen := make(map[uint64]bool)
	for p := 0; p < g.N(); p++ {
		fw := e.PeekStateOf(graph.ProcessID(p)).(*core.Node).FW
		for _, ds := range fw.Dests {
			for _, m := range []*core.Message{ds.BufR, ds.BufE} {
				if m != nil && m.Valid && !seen[m.UID] {
					seen[m.UID] = true
					out = append(out, m.UID)
				}
			}
		}
	}
	return out
}

// RearmRequests re-raises the request bit of every processor with pending
// higher-layer messages — the legal reaction of the paper's higher layer
// ("set request_p to true when its value is false and a message waits")
// after a fault may have knocked the bit down.
func RearmRequests(e *sm.Engine, g *graph.Graph) {
	for p := 0; p < g.N(); p++ {
		fw := e.StateOf(graph.ProcessID(p)).(*core.Node).FW
		if len(fw.Pending) > 0 && !fw.Request {
			fw.Request = true
		}
	}
}
