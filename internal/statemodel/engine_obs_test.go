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
	// Round count on the bus matches the engine's accounting.
	if last := got[len(got)-1]; e.Rounds() < last.Round {
		t.Fatalf("bus round %d exceeds engine rounds %d", last.Round, e.Rounds())
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
