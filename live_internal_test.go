package ssmfp

import (
	"encoding/json"
	"testing"

	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

// TestLiveStatusCongestedHopState pins the congested-hop view of the
// Status snapshot: the per-destination pending breakdown is exact and the
// parked count is present, and both survive the JSON round trip that
// /debug/ssmfp serves.
func TestLiveStatusCongestedHopState(t *testing.T) {
	// The workers are never started, so nothing leaves the
	// pending rings and the snapshot is deterministic.
	tr := transport.NewChan(Line(3), transport.DefaultDepth)
	live := &LiveNetwork{nw: msgpass.New(Line(3), msgpass.Options{Seed: 1, Transport: tr}), tr: tr}
	defer live.Close()
	for i := 0; i < 3; i++ {
		if _, err := live.Send(0, 2, "far"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.Send(0, 1, "near"); err != nil {
		t.Fatal(err)
	}

	st := live.Status()
	var q0 *LiveQueue
	for i := range st.Queues {
		if st.Queues[i].Proc == 0 {
			q0 = &st.Queues[i]
		}
	}
	if q0 == nil {
		t.Fatal("no queue row for proc 0")
	}
	if q0.Pending != 4 || q0.PendingByDest[2] != 3 || q0.PendingByDest[1] != 1 {
		t.Fatalf("pending breakdown wrong: %+v", q0)
	}
	if q0.Parked != 0 {
		t.Fatalf("parked = %d on an idle node", q0.Parked)
	}

	// The JSON form keeps the breakdown (this is what /debug/ssmfp shows).
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back LiveStatus
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range back.Queues {
		if q.Proc == 0 && q.PendingByDest[2] == 3 && q.PendingByDest[1] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pendingByDest lost in JSON round trip: %s", b)
	}
}
