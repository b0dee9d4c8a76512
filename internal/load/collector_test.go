package load

import (
	"testing"
	"time"

	"ssmfp/internal/msgpass"
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
	if ok || len(violations) != 1 || violations[0] != "seq 1 sent but never delivered" {
		t.Fatalf("verdict ok=%v, violations %q; want exactly seq 1 missing", ok, violations)
	}
}
