package spec_test

import (
	"fmt"
	"slices"
	"testing"

	"ssmfp/internal/spec"
	"ssmfp/internal/spec/spectest"
)

// TestLedgerCases runs the shared judge table through a bare ledger: the
// reference every feeder's test compares against.
func TestLedgerCases(t *testing.T) {
	for _, c := range spectest.Cases {
		t.Run(c.Name, func(t *testing.T) {
			l := spec.New(c.Bound)
			for _, s := range c.Sent {
				l.Sent(s.Key, s.Dst)
			}
			for _, d := range c.Delivered {
				l.Delivered(d.Key, d.At, d.Valid)
			}
			for _, k := range c.Void {
				l.Void(k)
			}
			v := l.Verdict()
			if !slices.Equal(v.Lines, c.Want) || v.OK() != (len(c.Want) == 0) {
				t.Fatalf("OK=%v lines %q, want %q", v.OK(), v.Lines, c.Want)
			}
			if len(c.Void) == 0 && c.Bound == 0 {
				if f := spec.Fold(c.Sent, c.Delivered); !slices.Equal(f.Lines, c.Want) {
					t.Fatalf("Fold lines %q, want %q", f.Lines, c.Want)
				}
			}
		})
	}
}

// TestVerdictCapsMissing: a run that lost everything lists the first ten
// losses and counts the rest in one line.
func TestVerdictCapsMissing(t *testing.T) {
	var sent []spec.Sent
	for uid := uint64(0); uid < 25; uid++ {
		sent = append(sent, spec.Sent{Key: spec.Key{Payload: "lost", UID: uid}, Dst: 1})
	}
	got := spec.Fold(sent, nil).Lines
	if len(got) != 11 {
		t.Fatalf("%d violation lines, want 11", len(got))
	}
	if got[0] != "message lost#0 (for node 1) never delivered" {
		t.Fatalf("first line %q", got[0])
	}
	if want := fmt.Sprintf("... and %d more undelivered messages", 25-10); got[10] != want {
		t.Fatalf("last line %q, want %q", got[10], want)
	}
}

// TestPayloadKeysAreDistinct: a restarted node reuses UIDs, so two
// injection streams with the same UIDs are distinct messages when their
// payloads differ.
func TestPayloadKeysAreDistinct(t *testing.T) {
	a, b := spec.Key{Payload: "a", UID: 1}, spec.Key{Payload: "b", UID: 1}
	v := spec.Fold([]spec.Sent{{Key: a, Dst: 2}, {Key: b, Dst: 3}},
		[]spec.Delivered{{Key: a, At: 2, Valid: true}, {Key: b, At: 3, Valid: true}})
	if !v.OK() || v.Delivered != 2 {
		t.Fatalf("verdict %q, delivered %d", v.Lines, v.Delivered)
	}
}

// TestSeqLedger drives the dense path: sequence numbers index the plan,
// a rolled-back send is neither lost nor unknown, a keyed delivery names
// no planned message, and keys print as "seq N".
func TestSeqLedger(t *testing.T) {
	l := spec.NewSeq(3)
	l.SentSeq(0, 1)
	l.SentSeq(1, 2)
	l.UnsentSeq(1)
	if n := l.DeliveredSeq(0, 1, true); n != 1 {
		t.Fatalf("first delivery returned %d, want 1", n)
	}
	if n := l.DeliveredSeq(0, 1, true); n != 2 {
		t.Fatalf("second delivery returned %d, want 2", n)
	}
	l.DeliveredSeq(7, 2, true)
	l.Delivered(spec.Key{UID: 2}, 2, true)
	want := []string{"seq 0 delivered 2 times (duplication)", "node 2 delivered unknown seq 7", "node 2 delivered unknown seq 2"}
	if got := l.Verdict().Lines; !slices.Equal(got, want) {
		t.Fatalf("lines %q, want %q", got, want)
	}
}

// TestSeqLedgerFirstDeliveries: a first delivery through DeliveredSeq
// counts once when it is clean, and is a breach at the wrong node, of a
// rolled-back send, or (over bound 0) when invalid.
func TestSeqLedgerFirstDeliveries(t *testing.T) {
	l := spec.NewSeq(4)
	for seq := range 4 {
		l.SentSeq(seq, 1)
	}
	l.UnsentSeq(3)
	if n := l.DeliveredSeq(0, 1, true); n != 1 {
		t.Fatalf("clean first delivery returned %d, want 1", n)
	}
	if n := l.DeliveredSeq(1, 2, true); n != 1 {
		t.Fatalf("misrouted first delivery returned %d, want 1", n)
	}
	if n := l.DeliveredSeq(2, 1, false); n != 0 {
		t.Fatalf("invalid delivery returned %d, want 0", n)
	}
	if n := l.DeliveredSeq(3, 1, true); n != 0 {
		t.Fatalf("delivery of a rolled-back send returned %d, want 0", n)
	}
	v := l.Verdict()
	want := []string{
		"seq 1 delivered at node 2, addressed to 1",
		"node 1 delivered unknown seq 3",
		"destination 1 received 1 invalid deliveries, bound is 0",
		"seq 2 (for node 1) never delivered",
	}
	if !slices.Equal(v.Lines, want) || v.Delivered != 2 || v.Invalid[1] != 1 {
		t.Fatalf("lines %q delivered %d invalid %v, want %q, 2, 1 at node 1", v.Lines, v.Delivered, v.Invalid, want)
	}
}

// TestLedgerCapsBreaches: a network that duplicates every message keeps
// the ledger's memory flat — the first ten breaches as lines, the rest
// as one count — and a breach of a key already voided is not kept.
func TestLedgerCapsBreaches(t *testing.T) {
	l := spec.New(0)
	k := spec.Key{UID: 1}
	l.Sent(k, 2)
	for range 1000 {
		l.Delivered(k, 2, true)
	}
	got := l.Verdict().Lines
	if len(got) != 11 || got[0] != "uid 1 delivered 2 times (duplication)" || got[10] != "... and 989 more breaches" {
		t.Fatalf("%d lines, first %q, last %q", len(got), got[0], got[len(got)-1])
	}
	v := spec.New(0)
	v.Sent(k, 2)
	v.Void(k)
	for range 1000 {
		v.Delivered(k, 2, true)
	}
	if lines := v.Verdict().Lines; len(lines) != 0 {
		t.Fatalf("voided key breached: %q", lines)
	}
}
