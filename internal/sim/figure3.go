package sim

import (
	"fmt"
	"strings"

	"ssmfp/internal/buffergraph"
	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/trace"
)

// Figure3Names maps the reconstruction's processor IDs to the paper's
// names.
var Figure3Names = map[graph.ProcessID]string{0: "a", 1: "b", 2: "c", 3: "e"}

// F3Result is the outcome of the Figure 3 replay.
type F3Result struct {
	OK               bool
	Failures         []string
	CycleInitially   bool // buffer-graph cycle involving a and c, as in the figure
	HelloColor       int  // color given to m when it enters bufE_c (paper: 1)
	Deliveries       int  // total deliveries (paper: 3 — m, m', and the invalid)
	ValidDelivered   int
	InvalidDelivered int
	Trace            string
}

// ExperimentF3 reenacts the execution example of the paper's Figure 3 on
// the reconstructed 4-processor network (a, b, c, e with Δ = 3): an
// invalid message with color 0 sits in bufR_b(b); the routing tables start
// with the a↔c cycle for destination b; c emits a message m that receives
// color 1 (0 is occupied by the invalid at the neighbor b) and a second
// message m' sharing the invalid's payload; tables are repaired
// mid-execution; all three messages are delivered, the valid ones exactly
// once.
//
// Deviation from the paper's drawing: our concrete routing algorithm A
// detects a corrupted table entry locally and immediately, and has priority
// over SSMFP — so c's table is repaired before c's first emission (script
// step 1) rather than later, and messages flow c→b directly instead of
// taking the corrupted detour via a. The figure's phenomena — color
// avoidance, no merge of equal payloads, repair mid-flight, exactly-once —
// are all asserted.
func ExperimentF3() F3Result {
	r, _, _ := experimentF3(false)
	return r
}

func f3Cell(Options, int) CellResult {
	r := ExperimentF3()
	return CellResult{
		OK: r.OK,
		Text: fmt.Sprintf("%s\ndeliveries=%d (valid %d, invalid %d), m's color=%d, initial cycle=%v\n",
			r.Trace, r.Deliveries, r.ValidDelivered, r.InvalidDelivered, r.HelloColor, r.CycleInitially),
		Measure: CellMeasure{
			DeliveredValid:   r.ValidDelivered,
			DeliveredInvalid: r.InvalidDelivered,
			Extra:            map[string]float64{"hello_color": float64(r.HelloColor)},
		},
	}
}

// ExperimentF3Recorded runs the Figure 3 replay while recording its typed
// event stream and JSONL trace header. The returned header and events are
// exactly what Scenario.TraceOut would have streamed: feeding them through
// obs.WriteJSONL → obs.Load → trace.ReplayFrames reproduces the rendered
// trace in F3Result.Trace byte for byte (the golden round-trip).
func ExperimentF3Recorded() (F3Result, obs.Header, []obs.Event) {
	return experimentF3(true)
}

func experimentF3(record bool) (F3Result, obs.Header, []obs.Event) {
	g := graph.Figure3Network()
	const a, b, c = 0, 1, 2
	res := F3Result{}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// --- Initial configuration --------------------------------------
	cfg := core.CleanConfig(g)
	node := func(p graph.ProcessID) *core.Node { return cfg[p].(*core.Node) }
	// Routing cycle a↔c for destination b.
	node(a).RT.SetRoute(b, routing.Route{Dist: 2, Parent: c})
	node(c).RT.SetRoute(b, routing.Route{Dist: 2, Parent: a})
	// Invalid message m' (payload "data") with color 0 in bufR_b(b).
	node(b).FW.Dest(b).BufR = &core.Message{
		Payload: "data", LastHop: c, Color: 0, UID: 1 << 50, Src: b, Dest: b, Valid: false,
	}
	// The higher layer at c wants to send m ("hello") and m' ("data").
	node(c).FW.Enqueue("hello", b)
	node(c).FW.Enqueue("data", b)

	// The corrupted tables must show the figure's buffer cycle.
	tables := []*routing.NodeState{node(0).RT, node(1).RT, node(2).RT, node(3).RT}
	bg := buffergraph.SSMFP(g, tables)
	cycle := bg.Restrict(b).FindCycle()
	res.CycleInitially = cycle != nil
	if !res.CycleInitially {
		fail("expected an initial buffer-graph cycle involving a and c")
	}

	// --- Script -------------------------------------------------------
	prog := core.FullProgram(g)
	script := []daemon.ScriptStep{
		{daemon.Act(c, "A@1")},  // (1) A repairs c (priority over SSMFP)
		{daemon.Act(c, "R1@1")}, // (2) c emits m = "hello" with color 0
		{daemon.Act(c, "R2@1")}, // (3) m moves to bufE_c — color 1: 0 is taken by the invalid at b
		{daemon.Act(c, "R1@1")}, // (4) c emits m' = "data", the invalid's payload
		{daemon.Act(b, "R2@1")}, // (5) b drains the invalid into bufE_b
		{daemon.Act(b, "R3@1")}, // (6) b pulls m into bufR_b
		{daemon.Act(b, "R6@1")}, // (7) the invalid "data" is delivered (counts toward the 2n bound)
		{daemon.Act(a, "A@1")},  // (8) A repairs a — the figure's mid-flight repair
		{daemon.Act(c, "R4@1")}, // (9) c erases m after its forwarding
		{daemon.Act(b, "R2@1")}, // (10) m reaches bufE_b
		{daemon.Act(b, "R6@1")}, // (11) m = "hello" delivered
		{daemon.Act(c, "R2@1")}, // (12) m' moves to bufE_c
		{daemon.Act(b, "R3@1")}, // (13) b pulls m'
		{daemon.Act(c, "R4@1")}, // (14) c erases m'
		{daemon.Act(b, "R2@1")}, // (15) m' reaches bufE_b
		{daemon.Act(b, "R6@1")}, // (16) m' = "data" delivered — not merged with the invalid
	}
	d := daemon.NewScripted(prog, script, nil)
	e := sm.NewEngine(g, prog, d, cfg)
	tr := checker.New(g)
	tr.Attach(e)
	rec := trace.NewRecorder(e, trace.NewRenderer(g, Figure3Names), b, 0)
	var hdr obs.Header
	var events []obs.Event
	if record {
		hdr = trace.HeaderFor(g, Figure3Names, cfg, "figure3", b)
		e.Subscribe(func(ev obs.Event) { events = append(events, ev) })
	}

	engNode := func(p graph.ProcessID) *core.Node { return e.PeekStateOf(p).(*core.Node) }
	for i := range script {
		if !e.Step() {
			fail("execution became terminal at script step %d", i+1)
			break
		}
		switch i + 1 {
		case 2:
			m := engNode(c).FW.Dest(b).BufR
			if m == nil || m.Payload != "hello" || m.Color != 0 || m.LastHop != c {
				fail("after (2): bufR_c(b) = %v, want (hello,q=c,c=0)", m)
			}
		case 3:
			m := engNode(c).FW.Dest(b).BufE
			if m == nil {
				fail("after (3): bufE_c(b) empty")
			} else {
				res.HelloColor = m.Color
				if m.Color != 1 {
					fail("after (3): m's color = %d, want 1 (0 occupied by the invalid at b)", m.Color)
				}
			}
		case 4:
			m := engNode(c).FW.Dest(b).BufR
			if m == nil || m.Payload != "data" || m.Color != 0 {
				fail("after (4): bufR_c(b) = %v, want (data,q=c,c=0)", m)
			}
		case 7:
			if got := tr.InvalidDeliveredTotal(); got != 1 {
				fail("after (7): invalid deliveries = %d, want 1", got)
			}
		case 8:
			if !routing.Correct(g, a, engNode(a).RT) {
				fail("after (8): a's table still incorrect")
			}
		case 11:
			if got := tr.DeliveredValid(); got != 1 {
				fail("after (11): valid deliveries = %d, want 1", got)
			}
		}
	}
	if !d.Exhausted() {
		fail("script not exhausted")
	}
	if !e.Terminal() {
		fail("configuration not terminal after the script; enabled: %s", describeEnabled(e, g))
	}
	res.Deliveries = len(tr.Deliveries())
	res.ValidDelivered = tr.DeliveredValid()
	res.InvalidDelivered = tr.InvalidDeliveredTotal()
	if res.Deliveries != 3 || res.ValidDelivered != 2 || res.InvalidDelivered != 1 {
		fail("deliveries = %d (valid %d, invalid %d), want 3 (2, 1)",
			res.Deliveries, res.ValidDelivered, res.InvalidDelivered)
	}
	if v := tr.Violations(); len(v) > 0 {
		fail("specification violations: %v", v)
	}
	if !core.Quiescent(snapshotStates(e, g)) {
		fail("buffers not empty at the end")
	}
	res.Trace = rec.String()
	res.OK = len(res.Failures) == 0
	return res, hdr, events
}

// snapshotStates returns the engine's live configuration: its states are
// valid only until the next Step.
func snapshotStates(e *sm.Engine, g *graph.Graph) []sm.State {
	out := make([]sm.State, g.N())
	for p := 0; p < g.N(); p++ {
		out[p] = e.PeekStateOf(graph.ProcessID(p))
	}
	return out
}

func describeEnabled(e *sm.Engine, g *graph.Graph) string {
	var parts []string
	for p := 0; p < g.N(); p++ {
		if names := e.EnabledRuleNames(graph.ProcessID(p)); len(names) > 0 {
			parts = append(parts, fmt.Sprintf("p%d:%v", p, names))
		}
	}
	return strings.Join(parts, " ")
}
