package load

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec/spectest"
)

// TestDrainWakesPromptlyOnDelivery pins the event-driven drain contract
// of satellite work on the busy-poll removal: waitUntil must return on
// the delivery's progress pulse, not on the next poll interval or the
// 50ms deadline-resolution timer. The delivery lands ~5ms in; returning
// well before the first 50ms timer tick proves the pulse did the waking.
func TestDrainWakesPromptlyOnDelivery(t *testing.T) {
	plan := []planEntry{{Src: 0, Dst: 1}}
	col := newCollector(plan)
	col.markSent(0)

	start := time.Now()
	go func() {
		time.Sleep(5 * time.Millisecond)
		col.observe(msgpass.Delivery{
			Msg: msgpass.Message{Payload: EncodeTag(0, 0, 1, start.UnixNano()), Src: 0, Dest: 1, Valid: true},
			At:  1, Time: time.Now(),
		})
	}()
	deadline := start.Add(10 * time.Second)
	if !col.waitUntil(func() bool { return col.Delivered() >= 1 }, deadline) {
		t.Fatal("waitUntil gave up before the delivery")
	}
	if elapsed := time.Since(start); elapsed >= 45*time.Millisecond {
		t.Fatalf("drain woke after %v — the delivery pulse at ~5ms should have woken it "+
			"before the 50ms fallback timer", elapsed)
	}
}

// TestWaitUntilDeadline pins the timeout half of the contract: a condition
// that never becomes true returns false once the deadline passes.
func TestWaitUntilDeadline(t *testing.T) {
	col := newCollector([]planEntry{{Src: 0, Dst: 1}})
	start := time.Now()
	if col.waitUntil(func() bool { return false }, start.Add(60*time.Millisecond)) {
		t.Fatal("waitUntil reported success for an impossible condition")
	}
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("waitUntil gave up after %v, before the deadline", elapsed)
	}
}

// TestWarmupDeliveryPulsesProgress holds the warmup path to the same
// event-driven discipline as the measured drain.
func TestWarmupDeliveryPulsesProgress(t *testing.T) {
	col := newCollector(nil)
	start := time.Now()
	go func() {
		time.Sleep(5 * time.Millisecond)
		col.observe(msgpass.Delivery{
			Msg: msgpass.Message{Payload: warmupPrefix + "w0", Valid: true},
			At:  0, Time: time.Now(),
		})
	}()
	if !col.waitUntil(func() bool { return col.warm.Load() >= 1 }, start.Add(10*time.Second)) {
		t.Fatal("warmup wait gave up")
	}
	if elapsed := time.Since(start); elapsed >= 45*time.Millisecond {
		t.Fatalf("warmup wait woke after %v, want the ~5ms pulse", elapsed)
	}
}

// TestCollectorJudgesForeignTagAsMissing: a payload that is not a v3 tag
// is not load traffic, so it raises no violation of its own; a plan entry
// whose only delivery carried such a tag is judged never delivered.
func TestCollectorJudgesForeignTagAsMissing(t *testing.T) {
	col := newCollector([]planEntry{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}})
	col.markSent(0)
	col.markSent(1)
	for _, payload := range []string{"unrelated traffic", tagV1Fixture, tagV2Fixture, EncodeTag(0, 0, 1, time.Now().UnixNano())} {
		col.observe(msgpass.Delivery{
			Msg: msgpass.Message{Payload: payload, Src: 0, Dest: 1, Valid: true},
			At:  1, Time: time.Now(),
		})
	}
	ok, violations := col.finish(2)
	if ok || len(violations) != 1 || violations[0] != "seq 1 (for node 1) never delivered" {
		t.Fatalf("verdict ok=%v, violations %q; want exactly seq 1 missing", ok, violations)
	}
}

// TestCollectorCases replays the shared judge table through observe: a
// case's UIDs are its plan's sequence numbers, a send is markSent, a
// valid delivery carries the plan entry's tag and an invalid one junk.
// The collector voids no message and judges a clean start, so the voided
// case and the cases with another invalid-delivery bound are not its to
// run.
func TestCollectorCases(t *testing.T) {
	for _, c := range spectest.Cases {
		t.Run(c.Name, func(t *testing.T) {
			if len(c.Void) > 0 || c.Bound != 0 {
				t.Skip("the collector voids no message and allows no invalid delivery")
			}
			var plan []planEntry
			for _, s := range c.Sent {
				if int(s.UID) == len(plan) {
					plan = append(plan, planEntry{Src: (s.Dst + 1) % spectest.N, Dst: s.Dst})
				}
			}
			col := newCollector(plan)
			for _, s := range c.Sent {
				col.markSent(int(s.UID))
			}
			for _, d := range c.Delivered {
				src, dst := graph.ProcessID(0), d.At
				if int(d.UID) < len(plan) {
					src, dst = plan[d.UID].Src, plan[d.UID].Dst
				}
				payload := EncodeTag(int(d.UID), src, dst, time.Now().UnixNano())
				if !d.Valid {
					payload = "junk"
				}
				col.observe(msgpass.Delivery{Msg: msgpass.Message{Payload: payload, Valid: d.Valid}, At: d.At, Time: time.Now()})
			}
			ok, lines := col.finish(len(plan))
			for i := range lines {
				lines[i] = strings.ReplaceAll(lines[i], "seq ", "uid ") // the collector names plan entries by sequence number
			}
			if !slices.Equal(lines, c.Want) || ok != (len(c.Want) == 0) {
				t.Fatalf("verdict ok=%v lines %q, want %q", ok, lines, c.Want)
			}
		})
	}
}

// BenchmarkCollectorObserve is the delivery hook's per-delivery cost: a
// first valid delivery of a sent plan entry, with its latency split into
// the attribution histograms. make bench-allocs gates it at 0 allocs/op.
// Each batch of plan entries gets a fresh collector, built off the clock.
func BenchmarkCollectorObserve(b *testing.B) {
	const batch = 4096
	plan := make([]planEntry, batch)
	ds := make([]msgpass.Delivery, batch)
	now := time.Now()
	for i := range plan {
		plan[i] = planEntry{Src: 0, Dst: 1}
		ds[i] = msgpass.Delivery{
			Msg: msgpass.Message{Payload: EncodeTag(i, 0, 1, now.UnixNano()), Src: 0, Dest: 1, Valid: true},
			At:  1, Time: now.Add(time.Millisecond), DeliverWaitNS: 1000,
		}
	}
	var col *Collector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			col = newCollector(plan)
			for seq := range plan {
				col.markSent(seq)
			}
			b.StartTimer()
		}
		col.observe(ds[i%batch])
	}
}
