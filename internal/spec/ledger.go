// Package spec is the one home of the paper's Specification SP — every
// valid message is delivered to its destination once and only once — and
// of Proposition 4's bound on invalid deliveries per destination. A
// Ledger folds a stream of sends and deliveries into a Verdict; every
// exactly-once judge of the repository (the engine checker, the load
// collector, the multi-process judges, the message-passing experiment
// and the public live API) feeds one and reads its verdict.
package spec

import (
	"fmt"
	"maps"
	"slices"

	"ssmfp/internal/graph"
)

// Key identifies one message across the whole run. UID streams restart
// with a node's incarnation, so a judge whose nodes can come and go keys
// each injection stream by a distinct payload as well; a judge whose
// nodes never restart may leave Payload empty.
type Key struct {
	Payload string `json:"payload,omitempty"`
	UID     uint64 `json:"uid"`
}

// Sent is one message the network accepted, addressed to Dst.
type Sent struct {
	Key
	Dst graph.ProcessID `json:"dst"`
}

// Delivered is one delivery of a message at node At.
type Delivered struct {
	Key
	At    graph.ProcessID `json:"at"`
	Valid bool            `json:"valid"`
}

// rec is one sent (or, on a sequence ledger, planned) message.
type rec struct {
	key  Key
	dst  graph.ProcessID
	sent bool
	n    int // valid deliveries
}

// breach is one send or delivery that broke SP, kept with its key so a
// later Void can withdraw it.
type breach struct {
	key  Key
	line string
}

// maxLines caps the breach lines a ledger keeps and the lost lines a
// verdict renders; past it only a count grows, so a network that
// duplicates every message costs no memory per breach.
const maxLines = 10

// Ledger is the streaming exactly-once judge. Feed it with Sent and
// Delivered (or, on a sequence ledger, SentSeq and DeliveredSeq) in
// stream order, and read Verdict at any point. It is not safe for
// concurrent use.
type Ledger struct {
	bound    int
	noun     string // how a key without payload prints: "uid" or "seq"
	index    map[Key]int
	recs     []rec
	void     map[Key]bool
	breaches []breach
	more     int // breaches past maxLines
	invalid  map[graph.ProcessID]int
}

// New returns a keyed ledger. bound caps the invalid deliveries any one
// destination may see: 0 for a clean start, where no invalid message
// exists, and 2n for a corrupted start (Proposition 4).
func New(bound int) *Ledger {
	return &Ledger{bound: bound, noun: "uid", index: make(map[Key]int), void: make(map[Key]bool), invalid: make(map[graph.ProcessID]int)}
}

// NewSeq returns a clean-start ledger over the dense sequence numbers
// 0..n-1, the plan of a load step: SentSeq and DeliveredSeq index a
// slice, with no map lookup and no allocation on a clean delivery. Its
// keys print as "seq N", a keyed Delivered on it names no planned
// message, and it voids nothing.
func NewSeq(n int) *Ledger {
	l := &Ledger{noun: "seq", recs: make([]rec, n), invalid: make(map[graph.ProcessID]int)}
	for i := range l.recs {
		l.recs[i].key.UID = uint64(i)
	}
	return l
}

// Sent records that the network accepted k, addressed to dst, and
// returns k's index: the order of its first send.
func (l *Ledger) Sent(k Key, dst graph.ProcessID) int {
	i, ok := l.index[k]
	if !ok {
		i = len(l.recs)
		l.index[k] = i
		l.recs = append(l.recs, rec{key: k})
	}
	l.SentSeq(i, dst)
	return i
}

// Index returns the index Sent gave k, if k was sent.
func (l *Ledger) Index(k Key) (int, bool) {
	i, ok := l.index[k]
	return i, ok
}

// SentSeq records that planned message seq was sent to dst.
func (l *Ledger) SentSeq(seq int, dst graph.ProcessID) {
	r := &l.recs[seq]
	if r.sent {
		l.breach(r.key, "%s sent twice", l.name(r.key))
	}
	r.sent, r.dst = true, dst
}

// UnsentSeq rolls SentSeq back after the network refused the message.
func (l *Ledger) UnsentSeq(seq int) { l.recs[seq].sent = false }

// Delivered records a delivery of k at node at. An invalid delivery
// counts only against at's bound. It returns how many valid deliveries k
// has had, this one included — 1 marks the first — or 0 when the
// delivery was invalid or of a key never sent.
func (l *Ledger) Delivered(k Key, at graph.ProcessID, valid bool) int {
	i, ok := l.index[k]
	if !ok {
		i = -1
	}
	return l.deliver(i, k, at, valid)
}

// DeliveredSeq is Delivered for planned message seq; a seq outside the
// plan is unknown.
func (l *Ledger) DeliveredSeq(seq int, at graph.ProcessID, valid bool) int {
	return l.deliver(seq, Key{UID: uint64(seq)}, at, valid)
}

func (l *Ledger) deliver(i int, k Key, at graph.ProcessID, valid bool) int {
	if !valid {
		l.invalid[at]++
		return 0
	}
	if i < 0 || i >= len(l.recs) || !l.recs[i].sent {
		l.breach(k, "node %d delivered unknown %s", at, l.name(k))
		return 0
	}
	r := &l.recs[i]
	r.n++
	if at != r.dst {
		l.breach(r.key, "%s delivered at node %d, addressed to %d", l.name(r.key), at, r.dst)
	}
	if r.n > 1 {
		l.breach(r.key, "%s delivered %d times (duplication)", l.name(r.key), r.n)
	}
	return r.n
}

// breach keeps the first maxLines breaches of keys not voided yet and
// counts the rest. A Void after the cap cannot withdraw what was counted.
func (l *Ledger) breach(k Key, format string, a ...any) {
	switch {
	case l.void[k]:
	case len(l.breaches) < maxLines:
		l.breaches = append(l.breaches, breach{k, fmt.Sprintf(format, a...)})
	default:
		l.more++
	}
}

func (l *Ledger) name(k Key) string {
	if k.Payload == "" {
		return fmt.Sprintf("%s %d", l.noun, k.UID)
	}
	return fmt.Sprintf("message %s#%d", k.Payload, k.UID)
}

// Void lifts the exactly-once obligation from k: a transient fault
// destroyed or corrupted the message in place, and snap-stabilization
// promises only messages generated after the last fault. A voided key is
// never lost and breaches nothing; its invalid deliveries still count.
func (l *Ledger) Void(k Key) { l.void[k] = true }

// Verdict is a ledger's judgement of the stream so far.
type Verdict struct {
	Lines     []string                // Breaches, then the lost messages (past maxLines, a count)
	Lost      []Sent                  // sent, never delivered valid, not voided; in send order
	Invalid   map[graph.ProcessID]int // invalid deliveries per delivering node
	Delivered int                     // sent keys delivered valid at least once
	Voided    int                     // distinct voided keys
}

// OK reports whether the stream kept SP and the invalid-delivery bound.
func (v Verdict) OK() bool { return len(v.Lines) == 0 }

// Breaches renders one line per breach of SP so far, none for a message
// still in flight: sends and deliveries in stream order (past maxLines,
// a count), then destinations over the bound, ascending.
func (l *Ledger) Breaches() []string {
	var out []string
	for _, b := range l.breaches {
		if !l.void[b.key] {
			out = append(out, b.line)
		}
	}
	if l.more > 0 {
		out = append(out, fmt.Sprintf("... and %d more breaches", l.more))
	}
	var over []graph.ProcessID
	for d, n := range l.invalid {
		if n > l.bound {
			over = append(over, d)
		}
	}
	slices.Sort(over)
	for _, d := range over {
		out = append(out, fmt.Sprintf("destination %d received %d invalid deliveries, bound is %d", d, l.invalid[d], l.bound))
	}
	return out
}

// Verdict folds the stream so far.
func (l *Ledger) Verdict() Verdict {
	v := Verdict{Lines: l.Breaches(), Invalid: maps.Clone(l.invalid), Voided: len(l.void)}
	for _, r := range l.recs {
		switch {
		case !r.sent:
		case r.n > 0:
			v.Delivered++
		case !l.void[r.key]:
			v.Lost = append(v.Lost, Sent{r.key, r.dst})
		}
	}
	for i, s := range v.Lost {
		if i == maxLines {
			v.Lines = append(v.Lines, fmt.Sprintf("... and %d more undelivered messages", len(v.Lost)-maxLines))
			break
		}
		v.Lines = append(v.Lines, fmt.Sprintf("%s (for node %d) never delivered", l.name(s.Key), s.Dst))
	}
	return v
}

// Fold judges a finished clean-start run: every send, then every
// delivery, through a fresh ledger with bound 0.
func Fold(sent []Sent, delivered []Delivered) Verdict {
	l := New(0)
	for _, s := range sent {
		l.Sent(s.Key, s.Dst)
	}
	for _, d := range delivered {
		l.Delivered(d.Key, d.At, d.Valid)
	}
	return l.Verdict()
}
