package statemodel

import (
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
)

// obsProgram increments like incProgram but also observes an event from
// the action when a consumer is attached.
func obsProgram(limit int) Program {
	return NewProgram(Rule{
		Name:  "inc",
		Guard: func(v *View) bool { return v.Self().(*intState).v < limit },
		Action: func(v *View) {
			v.Self().(*intState).v++
			if v.Observing() {
				v.Observe(obs.Event{Kind: obs.KindGenerate, Dest: v.ID()})
			}
		},
	})
}

func TestEngineTypedBusPublishesStampedEvents(t *testing.T) {
	g := graph.Line(2)
	e := NewEngine(g, obsProgram(2), allDaemon{}, intConfig(0, 0))
	var got []obs.Event
	e.Subscribe(func(ev obs.Event) { got = append(got, ev) })
	for e.Step() {
	}
	if e.Steps() != 2 {
		t.Fatalf("steps = %d, want 2", e.Steps())
	}
	// Per step: 2 actions × (1 action event + 1 fire) + 1 step marker,
	// plus round events at boundaries.
	var fires, steps, rounds, gens int
	for _, ev := range got {
		switch ev.Kind {
		case obs.KindFire:
			fires++
			if ev.Rule != "inc" {
				t.Fatalf("fire rule = %q", ev.Rule)
			}
		case obs.KindStep:
			steps++
			if ev.Count != 2 {
				t.Fatalf("step count = %d, want 2", ev.Count)
			}
		case obs.KindRound:
			rounds++
		case obs.KindGenerate:
			gens++
		}
	}
	if fires != 4 || steps != 2 || gens != 4 {
		t.Fatalf("fires=%d steps=%d gens=%d, want 4/2/4", fires, steps, gens)
	}
	if rounds == 0 {
		t.Fatal("no round boundary events published")
	}
	// Action events are stamped with their selection's identity before the
	// matching fire, and the stream is ordered by Seq.
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Kind == obs.KindGenerate && ev.Rule != "inc" {
			t.Fatalf("action event not stamped with rule: %+v", ev)
		}
	}
	// Round count in the stream matches the engine's accounting.
	if last := got[len(got)-1]; e.Rounds() < last.Round {
		t.Fatalf("stream round %d exceeds engine rounds %d", last.Round, e.Rounds())
	}
}

func TestEngineObservingFalseWithoutSubscriber(t *testing.T) {
	g := graph.Line(2)
	observed := false
	prog := NewProgram(Rule{
		Name:  "inc",
		Guard: func(v *View) bool { return v.Self().(*intState).v < 1 },
		Action: func(v *View) {
			v.Self().(*intState).v++
			if v.Observing() {
				observed = true
			}
		},
	})
	e := NewEngine(g, prog, allDaemon{}, intConfig(0, 0))
	// A subscriber that detached again leaves the engine unobserved.
	unsubscribe := e.Subscribe(func(obs.Event) { t.Fatal("detached subscriber called") })
	unsubscribe()
	for e.Step() {
	}
	if observed {
		t.Fatal("Observing() reported true with no subscriber")
	}
}

// TestEnginePublishGaplessUntilSubscribed pins the stream's numbering: a
// publish with nothing subscribed is dropped without consuming a
// sequence number, so the first event a subscriber sees is Seq 1.
func TestEnginePublishGaplessUntilSubscribed(t *testing.T) {
	e := NewEngine(graph.Line(2), obsProgram(1), allDaemon{}, intConfig(0, 0))
	e.Publish(obs.Event{Kind: obs.KindFault})
	var got []obs.Event
	e.Subscribe(func(ev obs.Event) { got = append(got, ev) })
	e.Publish(obs.Event{Kind: obs.KindFault})
	e.Step()
	if len(got) < 2 || got[0].Seq != 1 || got[0].Kind != obs.KindFault {
		t.Fatalf("first events %+v, want the fault at seq 1", got)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestEngineSubscribersRunInOrder pins the fan-out: every subscriber sees
// every event, earlier subscribers first.
func TestEngineSubscribersRunInOrder(t *testing.T) {
	e := NewEngine(graph.Line(2), obsProgram(2), allDaemon{}, intConfig(0, 0))
	var calls []string
	var a, b []uint64
	e.Subscribe(func(ev obs.Event) { calls = append(calls, "a"); a = append(a, ev.Seq) })
	e.Subscribe(func(ev obs.Event) { calls = append(calls, "b"); b = append(b, ev.Seq) })
	for e.Step() {
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("subscribers saw %d and %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || calls[2*i] != "a" || calls[2*i+1] != "b" {
			t.Fatalf("fan-out out of order at event %d: seq %d/%d, calls %v", i, a[i], b[i], calls[2*i:2*i+2])
		}
	}
}

// TestEngineUnsubscribeRestoresGaplessSeq pins the detach closure: it is
// idempotent, it detaches only its own subscriber, and once the last one
// is gone publishes consume no sequence numbers again.
func TestEngineUnsubscribeRestoresGaplessSeq(t *testing.T) {
	e := NewEngine(graph.Line(2), obsProgram(1), allDaemon{}, intConfig(0, 0))
	var first, second int
	detachFirst := e.Subscribe(func(obs.Event) { first++ })
	detachSecond := e.Subscribe(func(obs.Event) { second++ })
	e.Publish(obs.Event{Kind: obs.KindFault})
	detachFirst()
	detachFirst()
	e.Publish(obs.Event{Kind: obs.KindFault})
	if first != 1 || second != 2 {
		t.Fatalf("calls after one detach: first %d, second %d; want 1, 2", first, second)
	}
	detachSecond()
	e.Publish(obs.Event{Kind: obs.KindFault})
	var seq uint64
	e.Subscribe(func(ev obs.Event) { seq = ev.Seq })
	e.Publish(obs.Event{Kind: obs.KindFault})
	if seq != 3 {
		t.Fatalf("seq after an unobserved publish = %d, want 3", seq)
	}
}
