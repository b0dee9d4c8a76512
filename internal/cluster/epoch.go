// Package cluster is the operator plane of an elastic SSMFP deployment:
// the machinery that turns a set of running msgpass networks into one
// administrable cluster whose membership changes at runtime.
//
// The protocol layer (internal/msgpass) already knows how to apply a
// membership epoch — a versioned (graph, draining, disabled) snapshot —
// to a running network with zero message loss; snap-stabilization is what
// makes that safe, because "the topology changed underneath a running
// network" is just one more arbitrary configuration to stabilize from.
// This package adds the distribution and orchestration around it:
//
//   - Epoch: the wire form of a membership epoch — JSON-serializable, so
//     it can be POSTed at a node's admin endpoint — plus its compilation
//     into the msgpass form (frozen graph, validated member connectivity).
//   - Agent: the node side. It applies epochs to the local network,
//     answers status/quiesce probes, injects test load, and mounts all of
//     it on the node's debug HTTP mux.
//   - Manager: the operator side. It owns the desired topology (a
//     graph.Topology), stamps strictly increasing epoch sequence numbers,
//     broadcasts each epoch to every attached node, and sequences the
//     multi-step operations — join, graceful link cut, drain-and-detach,
//     rolling restart — that need quiescence polling between epochs.
//   - Client: the pipe between them. An *Agent is itself a Client (the
//     in-process deployment), and HTTPClient speaks the admin endpoints
//     (the multi-process deployment).
package cluster

import (
	"fmt"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
)

// Epoch is the wire form of one membership epoch: everything a node needs
// to reconfigure itself, in a shape that serializes to JSON and says
// nothing about in-process types. Slots is the allocated slot-space size
// (grow-only across a cluster's lifetime); membership is implied by the
// edge set — a slot on no edge is absent (an isolated slot the protocol
// refuses traffic for) — matching the protocol layer's member definition.
//
// Draining lists members that must quiesce: they refuse new injections,
// hand off buffered work, and advertise themselves as a route candidate
// for nothing but their own traffic. Disabled lists edges that remain up
// on the wire but are excluded from routing — phase one of a graceful
// link cut. Addrs carries the peer address book for TCP deployments; a
// node learns a joiner's listen address from the epoch that admits it.
type Epoch struct {
	Seq      uint64                     `json:"seq"`
	Slots    int                        `json:"slots"`
	Edges    [][2]graph.ProcessID       `json:"edges"`
	Draining []graph.ProcessID          `json:"draining,omitempty"`
	Disabled [][2]graph.ProcessID       `json:"disabled,omitempty"`
	Addrs    map[graph.ProcessID]string `json:"addrs,omitempty"`
}

// Topology assembles the mutable topology a slot count and edge set
// describe: slots with no incident edge are absent, every edge endpoint
// must lie inside the slot space, and self-loops and duplicate edges are
// refused. Epoch.Build freezes it; an operator console resuming a
// running cluster keeps it mutable.
func Topology(slots int, edges [][2]graph.ProcessID) (*graph.Topology, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("slots = %d, want > 0", slots)
	}
	onEdge := make([]bool, slots)
	for _, ed := range edges {
		for _, p := range ed {
			if int(p) < 0 || int(p) >= slots {
				return nil, fmt.Errorf("edge (%d,%d) endpoint outside %d slots", ed[0], ed[1], slots)
			}
			onEdge[p] = true
		}
	}
	topo := graph.NewTopology(graph.New(slots))
	if slots > 1 {
		for p, on := range onEdge {
			if !on {
				if err := topo.RemoveNode(graph.ProcessID(p)); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, ed := range edges {
		if err := topo.AddEdge(ed[0], ed[1]); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// Build compiles the wire epoch into the protocol layer's form, running
// the same validation an operator-side Topology would: edge endpoints in
// range, no self-loops or duplicate edges, and the member set (slots with
// at least one incident edge) mutually connected. The result carries a
// frozen graph ready for Network.ApplyEpoch.
func (e Epoch) Build() (msgpass.Epoch, error) {
	topo, err := Topology(e.Slots, e.Edges)
	if err != nil {
		return msgpass.Epoch{}, fmt.Errorf("cluster: epoch %d: %w", e.Seq, err)
	}
	for _, d := range e.Draining {
		if !topo.HasNode(d) {
			return msgpass.Epoch{}, fmt.Errorf("cluster: epoch %d: draining %d is not a member", e.Seq, d)
		}
	}
	for _, ed := range e.Disabled {
		if !topo.HasEdge(ed[0], ed[1]) {
			return msgpass.Epoch{}, fmt.Errorf("cluster: epoch %d: disabled edge (%d,%d) not in the edge set", e.Seq, ed[0], ed[1])
		}
	}
	g, err := topo.Build()
	if err != nil {
		return msgpass.Epoch{}, fmt.Errorf("cluster: epoch %d: %w", e.Seq, err)
	}
	return msgpass.Epoch{Seq: e.Seq, Graph: g, Draining: e.Draining, Disabled: e.Disabled}, nil
}
