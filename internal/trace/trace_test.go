package trace_test

import (
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/trace"
)

var abNames = map[graph.ProcessID]string{0: "a", 1: "b", 2: "c"}

func TestDestinationRendering(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Dest(2).BufE = &core.Message{Payload: "m", LastHop: 0, Color: 1}
	r := trace.NewRenderer(g, abNames)
	out := r.Destination(cfg, 2)
	for _, want := range []string{"destination c:", "a: R[·", "E[m(q=a,c=1)", "nextHop=b", "c: R[·"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderingFallsBackToNumericIDs(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	r := trace.NewRenderer(g, nil)
	out := r.Destination(cfg, 1)
	if !strings.Contains(out, "destination 1:") || !strings.Contains(out, "0: R[") {
		t.Fatalf("numeric fallback broken:\n%s", out)
	}
}

func TestHigherLayerRendering(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	r := trace.NewRenderer(g, abNames)
	if out := r.HigherLayer(cfg); !strings.Contains(out, "no pending requests") {
		t.Fatalf("clean higher layer: %s", out)
	}
	cfg[1].(*core.Node).FW.Enqueue("x", 0)
	out := r.HigherLayer(cfg)
	if !strings.Contains(out, "b: request=true pending=1") {
		t.Fatalf("higher layer rendering: %s", out)
	}
}

func TestRecorderCapturesFrames(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("hello", 2)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	r := trace.NewRenderer(g, abNames)
	rec := trace.NewRecorder(e, r, 2, 0)
	e.Run(100, nil)

	frames := rec.Frames()
	if len(frames) < 5 {
		t.Fatalf("frames = %d, want several", len(frames))
	}
	if frames[0].Step != -1 || frames[0].Fired != nil {
		t.Fatal("frame 0 must be the initial configuration")
	}
	if len(frames[1].Fired) != 1 || frames[1].Fired[0] != "R1@2@a" {
		t.Fatalf("frame 1 fired = %v, want [R1@2@a]", frames[1].Fired)
	}
	// The final frame must show empty buffers (message delivered).
	last := frames[len(frames)-1].Rendered
	if strings.Contains(last, "hello") {
		t.Fatalf("final frame still shows the message:\n%s", last)
	}
	out := rec.String()
	if !strings.Contains(out, "(0) initial configuration") || !strings.Contains(out, "(1) fired: R1@2@a") {
		t.Fatalf("recording header wrong:\n%s", out[:200])
	}
}

func TestRecorderLimit(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("hello", 2)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	rec := trace.NewRecorder(e, trace.NewRenderer(g, nil), 2, 3)
	e.Run(100, nil)
	if len(rec.Frames()) != 3 {
		t.Fatalf("frames = %d, want limit 3", len(rec.Frames()))
	}
}

func TestRecorderMidRunAttachKeepsEngineNumbering(t *testing.T) {
	// A recorder attached after some steps must number frames by the
	// engine's step counter, not by its own slice indices.
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("hello", 2)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	e.Step()
	e.Step()
	rec := trace.NewRecorder(e, trace.NewRenderer(g, nil), 2, 0)
	if !e.Step() {
		t.Fatal("engine terminal too early")
	}
	frames := rec.Frames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want initial + one step", len(frames))
	}
	if frames[1].Step != 2 {
		t.Fatalf("frame 1 step = %d, want 2", frames[1].Step)
	}
	out := rec.String()
	if !strings.Contains(out, "(3) fired:") {
		t.Fatalf("mid-run frame must print the engine step number (3), got:\n%s", out)
	}
	if strings.Contains(out, "(1) fired:") {
		t.Fatalf("mid-run frame numbered by slice index:\n%s", out)
	}
}

func TestReplayMatchesLiveRecordingByteForByte(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("hello", 2)
	cfg[2].(*core.Node).FW.Enqueue("back", 0)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	h := trace.HeaderFor(g, abNames, cfg, "test", 2)
	var events []obs.Event
	e.Subscribe(func(ev obs.Event) { events = append(events, ev) })
	r := trace.NewRenderer(g, abNames)
	rec := trace.NewRecorder(e, r, 2, 0)
	e.Run(100, nil)

	frames, err := trace.ReplayFrames(r, h, events, 2)
	if err != nil {
		t.Fatalf("ReplayFrames: %v", err)
	}
	live, replayed := rec.String(), trace.RenderFrames(frames)
	if live != replayed {
		t.Fatalf("replay diverged from live recording:\n--- live ---\n%s\n--- replay ---\n%s", live, replayed)
	}
	// The other destination replays from the same stream too.
	rec0frames, err := trace.ReplayFrames(r, h, events, 0)
	if err != nil {
		t.Fatalf("ReplayFrames(dest 0): %v", err)
	}
	if got := trace.RenderFrames(rec0frames); !strings.Contains(got, "back(") {
		t.Fatalf("destination-0 replay never shows the second message:\n%s", got)
	}
}

func TestReplayRejectsFaultEvents(t *testing.T) {
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	h := trace.HeaderFor(g, nil, cfg, "test", 1)
	r := trace.NewRenderer(g, nil)
	_, err := trace.ReplayFrames(r, h, []obs.Event{{Seq: 1, Kind: obs.KindFault, Proc: 1}}, 1)
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("fault-bearing stream must be rejected, got err = %v", err)
	}
}

func TestGraphFromHeaderRejectsBadTopology(t *testing.T) {
	for _, h := range []obs.Header{
		{N: 0},
		{N: 3, Edges: [][2]graph.ProcessID{{0, 0}}},
		{N: 3, Edges: [][2]graph.ProcessID{{0, 1}, {0, 1}}},
		{N: 3, Edges: [][2]graph.ProcessID{{0, 1}}}, // disconnected
	} {
		if _, err := trace.GraphFromHeader(h); err == nil {
			t.Errorf("header %+v accepted", h)
		}
	}
	g, err := trace.GraphFromHeader(obs.Header{N: 3, Edges: [][2]graph.ProcessID{{0, 1}, {1, 2}}})
	if err != nil || g.N() != 3 {
		t.Fatalf("valid header rejected: %v", err)
	}
}

func TestRecorderGroupsSynchronousActivations(t *testing.T) {
	// Two processors generating in the same synchronous step must share one
	// frame with two fired labels.
	g := graph.Line(3)
	cfg := core.CleanConfig(g)
	cfg[0].(*core.Node).FW.Enqueue("x", 1)
	cfg[2].(*core.Node).FW.Enqueue("y", 1)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(1), cfg)
	rec := trace.NewRecorder(e, trace.NewRenderer(g, nil), 1, 0)
	e.Step()
	frames := rec.Frames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2 (initial + one step)", len(frames))
	}
	if len(frames[1].Fired) != 2 {
		t.Fatalf("fired = %v, want both R1 activations in one frame", frames[1].Fired)
	}
}
