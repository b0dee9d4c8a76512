package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmfp/internal/graph"
)

// TestSustainRecordsOnlyAcceptedInjections: a sender that fails every
// third call models a node mid-reconfiguration; Sustain must keep the
// stream alive, record exactly the accepted UIDs under the right
// payloads, and wind down cleanly on stop.
func TestSustainRecordsOnlyAcceptedInjections(t *testing.T) {
	var calls atomic.Int64
	var nextUID atomic.Uint64
	send := func(src, dst graph.ProcessID, count int, payload string) ([]uint64, error) {
		if calls.Add(1)%3 == 0 {
			return nil, fmt.Errorf("mid-epoch")
		}
		uids := make([]uint64, count)
		for i := range uids {
			uids[i] = nextUID.Add(1)
		}
		return uids, nil
	}

	var mu sync.Mutex
	got := make(map[string][]uint64)
	record := func(s SustainedStream, uids []uint64) {
		mu.Lock()
		defer mu.Unlock()
		got[s.Payload] = append(got[s.Payload], uids...)
	}

	stop := Sustain(send, []SustainedStream{
		{Src: 0, Dst: 2, Payload: "a", Period: time.Millisecond},
		{Src: 2, Dst: 0, Payload: "b", Period: time.Millisecond},
	}, record)

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		enough := len(got["a"]) >= 5 && len(got["b"]) >= 5
		mu.Unlock()
		if enough {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("streams never produced 5 accepted injections each")
		}
		time.Sleep(time.Millisecond)
	}
	stop() // must block until the goroutines are gone — no records after this

	mu.Lock()
	defer mu.Unlock()
	recorded := 0
	seen := make(map[uint64]bool)
	for payload, uids := range got {
		if payload != "a" && payload != "b" {
			t.Fatalf("unexpected payload %q", payload)
		}
		for _, uid := range uids {
			if seen[uid] {
				t.Fatalf("uid %d recorded twice", uid)
			}
			seen[uid] = true
		}
		recorded += len(uids)
	}
	if accepted := int(nextUID.Load()); recorded != accepted {
		t.Fatalf("recorded %d injections, sender accepted %d", recorded, accepted)
	}
}
