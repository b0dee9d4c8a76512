// Package trace renders executions of SSMFP in the style of the paper's
// Figure 3: per destination, the contents of every processor's reception
// and emission buffers, the routing next hops, and the higher-layer state,
// frame by frame. It also records engine executions as sequences of frames
// for golden tests and for the cmd/ssmfp-trace tool.
package trace

import (
	"fmt"
	"strings"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// names optionally maps processor IDs to display names (a, b, c, ... in the
// paper's figures). Missing entries fall back to the numeric ID.
type names map[graph.ProcessID]string

func (n names) of(p graph.ProcessID) string {
	if s, ok := n[p]; ok {
		return s
	}
	return fmt.Sprintf("%d", p)
}

// Renderer renders configurations of the composed SSMFP system.
type Renderer struct {
	g     *graph.Graph
	names names
}

// NewRenderer builds a renderer for g. displayNames may be nil.
func NewRenderer(g *graph.Graph, displayNames map[graph.ProcessID]string) *Renderer {
	return &Renderer{g: g, names: displayNames}
}

// Name returns the display name of a processor (numeric fallback).
func (r *Renderer) Name(p graph.ProcessID) string { return r.names.of(p) }

// msgRec renders the observability image of a message; nil is an empty
// buffer.
func (r *Renderer) msgRec(m *obs.MsgRecord) string {
	if m == nil {
		return "·"
	}
	return fmt.Sprintf("%s(q=%s,c=%d)", m.Payload, r.names.of(m.LastHop), m.Color)
}

// Destination renders destination d's buffer component of the
// configuration: one line per processor with reception buffer, emission
// buffer, and next hop. It converts the configuration to its observability
// image and delegates to DestinationRecords, the rendering JSONL replays
// use too.
func (r *Renderer) Destination(cfg []sm.State, d graph.ProcessID) string {
	n := r.g.N()
	bufR := make([]*obs.MsgRecord, n)
	bufE := make([]*obs.MsgRecord, n)
	hop := make([]graph.ProcessID, n)
	for pp := 0; pp < n; pp++ {
		node := cfg[pp].(*core.Node)
		ds := node.FW.Dest(d)
		bufR[pp], bufE[pp] = ds.BufR.Record(), ds.BufE.Record()
		hop[pp] = node.RT.NextHop(d)
	}
	return r.DestinationRecords(bufR, bufE, hop, d)
}

// HigherLayer renders the request bits and pending queues.
func (r *Renderer) HigherLayer(cfg []sm.State) string {
	var sb strings.Builder
	for pp := 0; pp < r.g.N(); pp++ {
		p := graph.ProcessID(pp)
		fw := cfg[p].(*core.Node).FW
		if !fw.Request && len(fw.Pending) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %s: request=%v pending=%d\n", r.names.of(p), fw.Request, len(fw.Pending))
	}
	if sb.Len() == 0 {
		return "  (no pending requests)\n"
	}
	return sb.String()
}

// Frame is one recorded execution frame: the step index, the rule
// activations that produced it, and the rendered configuration.
type Frame struct {
	Step     int
	Fired    []string // "rule@process" labels of the step's activations
	Rendered string
}

// Recorder captures frames of an execution for one destination: one frame
// per executed step (engine events are published after the step's writes
// commit, so every frame shows the post-step configuration). Attach it
// before running the engine.
type Recorder struct {
	r      *Renderer
	e      *sm.Engine
	dest   graph.ProcessID
	frames []Frame
	limit  int
}

// NewRecorder records destination dest's component; limit bounds the number
// of frames kept (≤ 0 means unlimited). Frame 0 is the initial
// configuration, matching the "(0)" diagram of the paper's Figure 3.
func NewRecorder(e *sm.Engine, renderer *Renderer, dest graph.ProcessID, limit int) *Recorder {
	rec := &Recorder{r: renderer, e: e, dest: dest, limit: limit}
	rec.frames = append(rec.frames, Frame{Step: -1, Rendered: rec.render()})
	e.Subscribe(rec.onEvent)
	return rec
}

func (rec *Recorder) onEvent(ev sm.Event) {
	if ev.Kind != obs.KindFire {
		return
	}
	label := fmt.Sprintf("%s@%s", ev.Rule, rec.r.names.of(ev.Proc))
	last := len(rec.frames) - 1
	if rec.frames[last].Step == ev.Step {
		rec.frames[last].Fired = append(rec.frames[last].Fired, label)
		rec.frames[last].Rendered = rec.render()
		return
	}
	if rec.limit > 0 && len(rec.frames) >= rec.limit {
		return
	}
	rec.frames = append(rec.frames, Frame{Step: ev.Step, Fired: []string{label}, Rendered: rec.render()})
}

func (rec *Recorder) render() string {
	return rec.r.Destination(rec.config(), rec.dest)
}

// config returns the engine's live configuration; render reads it at
// once, before the next step writes it.
func (rec *Recorder) config() []sm.State {
	cfg := make([]sm.State, rec.e.Graph().N())
	for p := 0; p < rec.e.Graph().N(); p++ {
		cfg[p] = rec.e.PeekStateOf(graph.ProcessID(p))
	}
	return cfg
}

// Frames returns the recorded frames (frame 0 is the initial
// configuration).
func (rec *Recorder) Frames() []Frame { return rec.frames }

// String renders the whole recording, Figure-3 style: "(k) fired: ..."
// headers followed by the buffer table.
func (rec *Recorder) String() string { return RenderFrames(rec.frames) }

// RenderFrames renders a frame sequence in the Figure-3 style shared by
// live recordings and JSONL replays. Frame numbers come from the frames'
// Step fields (step s prints as "(s+1)", the initial configuration as
// "(0)"), not from slice positions — a recorder attached mid-run or
// truncated by a frame limit keeps the engine's numbering.
func RenderFrames(frames []Frame) string {
	var sb strings.Builder
	for _, f := range frames {
		if f.Step < 0 {
			fmt.Fprintf(&sb, "(0) initial configuration\n%s\n", f.Rendered)
			continue
		}
		fmt.Fprintf(&sb, "(%d) fired: %s\n%s\n", f.Step+1, strings.Join(f.Fired, ", "), f.Rendered)
	}
	return sb.String()
}
