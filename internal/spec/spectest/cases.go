// Package spectest holds the one table of judge cases that the ledger's
// test and every judge feeding a ledger replay, so the judges cannot
// drift apart at the edges.
package spectest

import (
	"ssmfp/internal/graph"
	"ssmfp/internal/spec"
)

// N is the network size the cases assume; 2N bounds a corrupted start.
const N = 4

// Case is one judged run and the lines a ledger renders for it. Keys are
// UIDs 0, 1, 2 in first-send order, so they double as plan sequence
// numbers; an invalid delivery carries UID 100.
type Case struct {
	Name      string
	Bound     int
	Sent      []spec.Sent
	Delivered []spec.Delivered
	Void      []spec.Key
	Want      []string
}

// Cases is the table.
var Cases = []Case{
	{Name: "clean", Sent: sent(), Delivered: delivered(0, 1, 2)},
	{Name: "missing", Sent: sent(), Delivered: delivered(0, 1), Want: []string{"uid 2 (for node 3) never delivered"}},
	{Name: "duplicate", Sent: sent(), Delivered: delivered(0, 1, 2, 1), Want: []string{"uid 1 delivered 2 times (duplication)"}},
	{Name: "misroute", Sent: sent(), Delivered: append(delivered(0, 2), at(1, 0, true)), Want: []string{"uid 1 delivered at node 0, addressed to 2"}},
	{Name: "unknown", Sent: sent(), Delivered: append(delivered(0, 1, 2), at(9, 1, true)), Want: []string{"node 1 delivered unknown uid 9"}},
	{Name: "sent twice", Sent: append(sent(), sent()[0]), Delivered: delivered(0, 1, 2), Want: []string{"uid 0 sent twice"}},
	{Name: "invalid", Sent: sent(), Delivered: invalid(1), Want: []string{"destination 1 received 1 invalid deliveries, bound is 0"}},
	{Name: "invalid within 2n", Bound: 2 * N, Sent: sent(), Delivered: invalid(2 * N)},
	{Name: "invalid over 2n", Bound: 2 * N, Sent: sent(), Delivered: invalid(2*N + 1), Want: []string{"destination 1 received 9 invalid deliveries, bound is 8"}},
	{Name: "voided", Sent: sent(), Delivered: delivered(0, 0), Void: []spec.Key{{UID: 0}, {UID: 1}}, Want: []string{"uid 2 (for node 3) never delivered"}},
}

// sent sends UID i to node i+1, for i = 0, 1, 2.
func sent() []spec.Sent {
	return []spec.Sent{{Key: spec.Key{UID: 0}, Dst: 1}, {Key: spec.Key{UID: 1}, Dst: 2}, {Key: spec.Key{UID: 2}, Dst: 3}}
}

// delivered delivers each of uids, valid, at the destination sent gave it.
func delivered(uids ...uint64) (out []spec.Delivered) {
	for _, uid := range uids {
		out = append(out, at(uid, graph.ProcessID(uid)+1, true))
	}
	return out
}

// invalid is a clean run followed by n invalid deliveries at node 1.
func invalid(n int) []spec.Delivered {
	out := delivered(0, 1, 2)
	for range n {
		out = append(out, at(100, 1, false))
	}
	return out
}

func at(uid uint64, node graph.ProcessID, valid bool) spec.Delivered {
	return spec.Delivered{Key: spec.Key{UID: uid}, At: node, Valid: valid}
}
