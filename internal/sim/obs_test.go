package sim

import (
	"bytes"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/trace"
	"ssmfp/internal/workload"
)

// TestF3TraceRoundTripsThroughJSONL is the golden round-trip of the
// observability layer: record the Figure 3 replay, serialize its event
// stream to JSONL, load it back, fold it over the header's initial
// configuration, and require the re-rendered frames to be byte-identical
// to the live recording.
func TestF3TraceRoundTripsThroughJSONL(t *testing.T) {
	res, hdr, events := ExperimentF3Recorded()
	if !res.OK {
		t.Fatalf("F3 replay failed: %v", res.Failures)
	}
	if len(events) == 0 {
		t.Fatal("recorded run produced no typed events")
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, hdr, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	h, evs, err := obs.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(evs) != len(events) {
		t.Fatalf("loaded %d events, wrote %d", len(evs), len(events))
	}

	g, err := trace.GraphFromHeader(h)
	if err != nil {
		t.Fatalf("GraphFromHeader: %v", err)
	}
	r := trace.NewRenderer(g, trace.NamesFromHeader(h))
	frames, err := trace.ReplayFrames(r, h, evs, graph.ProcessID(h.Dest))
	if err != nil {
		t.Fatalf("ReplayFrames: %v", err)
	}
	if got := trace.RenderFrames(frames); got != res.Trace {
		t.Fatalf("replayed trace differs from live recording:\n--- live ---\n%s\n--- replay ---\n%s", res.Trace, got)
	}
}

// TestScenarioTraceAndLifecycle drives a grid scenario with a JSONL sink
// attached: the sink must produce a loadable stream, and the checker's
// lifecycle report must carry a delivered timeline per message.
func TestScenarioTraceAndLifecycle(t *testing.T) {
	g := graph.Grid(3, 3)
	var buf bytes.Buffer
	res := Run(Scenario{
		Name:      "grid-obs",
		Graph:     g,
		Corrupt:   &core.DefaultCorrupt,
		Daemon:    CentralRandom,
		Seed:      11,
		Workload:  workload.AllToOne(g, 4, 2),
		MaxSteps:  500_000,
		TraceOut:  &buf,
		TraceDest: 4,
	})
	if !res.OK() {
		t.Fatalf("scenario failed: %+v", res)
	}
	if res.TraceErr != nil {
		t.Fatalf("trace sink error: %v", res.TraceErr)
	}

	h, evs, err := obs.Load(&buf)
	if err != nil {
		t.Fatalf("written trace does not load: %v", err)
	}
	if h.Scenario != "grid-obs" || h.N != g.N() || h.Dest != 4 {
		t.Fatalf("header = %+v", h)
	}
	if len(evs) != res.TraceEvents {
		t.Fatalf("loaded %d events, sink reported %d", len(evs), res.TraceEvents)
	}

	rep := res.Lifecycle
	if len(rep.Timelines) != res.Generated || rep.DeliveryRounds.N != res.DeliveredValid {
		t.Fatalf("lifecycle report covers %d timelines, %d deliveries; run generated %d, delivered %d",
			len(rep.Timelines), rep.DeliveryRounds.N, res.Generated, res.DeliveredValid)
	}
	if rep.DelayRounds.N == 0 || rep.WaitingRounds.N == 0 {
		t.Fatalf("delay/waiting summaries empty: %+v", rep)
	}
	for _, tl := range rep.Timelines {
		if !tl.Delivered || tl.Deliveries != 1 {
			t.Fatalf("timeline not delivered exactly once in an OK run: %+v", tl)
		}
		if tl.DeliverRound < tl.GenRound || len(tl.Hops) == 0 && tl.Src != tl.Dest {
			t.Fatalf("timeline inconsistent: %+v", tl)
		}
	}
}

// TestScenarioStatusCallback checks the OnStatus hook fires and ends on
// final numbers.
func TestScenarioStatusCallback(t *testing.T) {
	g := graph.Line(4)
	var last Status
	calls := 0
	res := Run(Scenario{
		Name:        "status",
		Graph:       g,
		Daemon:      Synchronous,
		Workload:    workload.SinglePair(0, 3, 2),
		MaxSteps:    100_000,
		OnStatus:    func(st Status) { last = st; calls++ },
		StatusEvery: 1,
	})
	if !res.OK() {
		t.Fatalf("scenario failed: %+v", res)
	}
	if calls == 0 {
		t.Fatal("OnStatus never called")
	}
	if last.Steps != res.Steps || last.Delivered != res.DeliveredValid {
		t.Fatalf("final status %+v does not match result steps=%d dlv=%d", last, res.Steps, res.DeliveredValid)
	}
	if last.Moves["R6@3"] == 0 {
		t.Fatalf("status move counts missing deliveries: %v", last.Moves)
	}
	if !strings.HasPrefix(last.Name, "status") {
		t.Fatalf("status name = %q", last.Name)
	}
}
