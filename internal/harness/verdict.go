package harness

import (
	"fmt"

	"ssmfp/internal/graph"
)

// Key identifies one message across the whole run. UID streams restart
// with a node's incarnation, so a judge whose nodes can come and go keys
// each injection stream by a distinct payload as well; a judge whose
// nodes never restart may leave Payload empty.
type Key struct {
	Payload string
	UID     uint64
}

func (k Key) String() string {
	if k.Payload == "" {
		return fmt.Sprintf("uid %d", k.UID)
	}
	return fmt.Sprintf("message %s#%d", k.Payload, k.UID)
}

// Sent is one message the network accepted, addressed to Dst.
type Sent struct {
	Key
	Dst graph.ProcessID
}

// Delivered is one delivery record from the ledger of node At.
type Delivered struct {
	Key
	At    graph.ProcessID
	Valid bool
}

// maxMissing caps the per-message lines for undelivered messages; a run
// that lost everything says how many more there were instead.
const maxMissing = 10

// Verdict checks the exactly-once promise over a run's records: every
// sent message is delivered exactly once, valid, at the node it was
// addressed to, and nothing else is delivered at all — a message sent
// twice, an invalid delivery or an unknown one is a violation like a
// duplicate, a misroute or a loss. It returns one line per violation.
func Verdict(sent []Sent, delivered []Delivered) []string {
	var violations []string
	badf := func(format string, a ...any) {
		violations = append(violations, fmt.Sprintf(format, a...))
	}
	dst := make(map[Key]graph.ProcessID, len(sent))
	for _, s := range sent {
		if _, dup := dst[s.Key]; dup {
			badf("%s sent twice", s.Key)
		}
		dst[s.Key] = s.Dst
	}
	seen := make(map[Key]int, len(sent))
	for _, d := range delivered {
		to, known := dst[d.Key]
		switch {
		case !d.Valid:
			badf("node %d delivered invalid %s", d.At, d.Key)
		case !known:
			badf("node %d delivered unknown %s", d.At, d.Key)
		default:
			if to != d.At {
				badf("%s delivered at node %d, addressed to %d", d.Key, d.At, to)
			}
			seen[d.Key]++
		}
	}
	missing := 0
	for _, s := range sent {
		if _, open := dst[s.Key]; !open {
			continue // a key sent twice is judged once
		}
		delete(dst, s.Key)
		switch n := seen[s.Key]; {
		case n == 0:
			if missing++; missing <= maxMissing {
				badf("%s (for node %d) never delivered", s.Key, s.Dst)
			}
		case n > 1:
			badf("%s delivered %d times", s.Key, n)
		}
	}
	if missing > maxMissing {
		badf("... and %d more undelivered messages", missing-maxMissing)
	}
	return violations
}
