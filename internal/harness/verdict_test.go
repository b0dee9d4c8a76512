package harness

import (
	"fmt"
	"strings"
	"testing"
)

func key(payload string, uid uint64) Key { return Key{Payload: payload, UID: uid} }

// TestVerdict drives the exactly-once verdict over synthetic records:
// a clean run passes, and each defect produces exactly its violation.
func TestVerdict(t *testing.T) {
	sent := []Sent{{key("a", 1), 1}, {key("a", 2), 2}, {key("b", 1), 2}}
	clean := []Delivered{{key("a", 1), 1, true}, {key("a", 2), 2, true}, {key("b", 1), 2, true}}
	cases := []struct {
		name      string
		sent      []Sent
		delivered []Delivered
		want      string // substring of the single expected violation; "" = clean
	}{
		{"clean", sent, clean, ""},
		{"duplicate", sent, append(clean[:3:3], Delivered{key("a", 2), 2, true}), "message a#2 delivered 2 times"},
		{"missing", sent, clean[:2], "message b#1 (for node 2) never delivered"},
		{"misroute", sent, []Delivered{clean[0], {key("a", 2), 0, true}, clean[2]}, "message a#2 delivered at node 0, addressed to 2"},
		{"unknown", sent, append(clean[:3:3], Delivered{key("c", 9), 1, true}), "node 1 delivered unknown message c#9"},
		{"invalid", sent, append(clean[:3:3], Delivered{key("z", 4), 1, false}), "node 1 delivered invalid message z#4"},
		{"sent twice", append(sent[:3:3], sent[0]), clean, "message a#1 sent twice"},
		{"uid alone", []Sent{{key("", 5), 3}}, []Delivered{{key("", 5), 3, true}, {key("", 5), 3, true}}, "uid 5 delivered 2 times"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Verdict(c.sent, c.delivered)
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean run judged %v", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], c.want) {
				t.Fatalf("violations %q, want exactly one containing %q", got, c.want)
			}
		})
	}
}

// TestVerdictCapsMissing: a run that lost everything lists the first
// maxMissing losses and counts the rest in one line.
func TestVerdictCapsMissing(t *testing.T) {
	var sent []Sent
	for uid := uint64(0); uid < 25; uid++ {
		sent = append(sent, Sent{key("lost", uid), 1})
	}
	got := Verdict(sent, nil)
	if len(got) != maxMissing+1 {
		t.Fatalf("%d violation lines, want %d", len(got), maxMissing+1)
	}
	if want := fmt.Sprintf("... and %d more undelivered messages", 25-maxMissing); got[maxMissing] != want {
		t.Fatalf("last line %q, want %q", got[maxMissing], want)
	}
}
