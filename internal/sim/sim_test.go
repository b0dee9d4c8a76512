package sim

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/workload"
)

func TestRunCleanScenario(t *testing.T) {
	g := graph.Line(5)
	r := Run(Scenario{
		Name:     "clean",
		Graph:    g,
		Daemon:   Synchronous,
		Seed:     1,
		Workload: workload.SinglePair(0, 4, 3),
		MaxSteps: 100_000,
	})
	if !r.OK() {
		t.Fatalf("clean scenario failed: %+v", r)
	}
	if r.Generated != 3 || r.DeliveredValid != 3 || r.InvalidDelivered != 0 {
		t.Fatalf("accounting: %+v", r)
	}
	if r.RoutingRounds != 0 {
		t.Fatalf("routing rounds = %d, want 0 (tables start correct)", r.RoutingRounds)
	}
	if r.MovesByRule["R1"] != 3 || r.MovesByRule["R6"] != 3 {
		t.Fatalf("moves: %v", r.MovesByRule)
	}
	if r.LatencyRounds.N != 3 || r.LatencyRounds.Max <= 0 {
		t.Fatalf("latency summary: %+v", r.LatencyRounds)
	}
	if !strings.Contains(r.String(), "OK") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestRunCorruptScenarioMeasuresRA(t *testing.T) {
	g := graph.Ring(5)
	r := Run(Scenario{
		Name:     "corrupt",
		Graph:    g,
		Corrupt:  &core.DefaultCorrupt,
		Daemon:   Synchronous,
		Seed:     7,
		Workload: workload.RandomPairs(g, 4, rand.New(rand.NewSource(7))),
		MaxSteps: 1_000_000,
	})
	if !r.OK() {
		t.Fatalf("corrupt scenario failed: %+v", r)
	}
	if r.RoutingRounds < 0 {
		t.Fatal("routing stabilization was never observed")
	}
}

func TestRunSkipsIdleWaits(t *testing.T) {
	g := graph.Line(3)
	w := workload.SinglePair(0, 2, 2)
	w[1].AtStep = 1 << 30 // scheduled far beyond any reachable step
	r := Run(Scenario{
		Name: "idle", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: w, MaxSteps: 100_000,
	})
	if !r.OK() || r.Generated != 2 {
		t.Fatalf("idle-skip failed: %+v", r)
	}
}

func TestBaseRule(t *testing.T) {
	if BaseRule("R3@17") != "R3" || BaseRule("A@0") != "A" || BaseRule("noat") != "noat" {
		t.Fatal("BaseRule wrong")
	}
}

func TestNewDaemonKinds(t *testing.T) {
	for _, k := range []DaemonKind{Synchronous, CentralRandom, CentralRoundRobin, Distributed, WeaklyFairLIFO} {
		if d := NewDaemon(k, 1, 5); d == nil || d.Name() == "" {
			t.Fatalf("daemon kind %q broken", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic")
		}
	}()
	NewDaemon("bogus", 1, 5)
}

// runExp runs experiment id's cells at seed — the named variants, or all
// of them — and fails the test on a RunCell error.
func runExp(t testing.TB, id string, seed int64, variants ...string) []CellResult {
	t.Helper()
	if len(variants) == 0 {
		for _, s := range CellGrid() {
			if s.Exp == id {
				variants = append(variants, s.Variant)
			}
		}
	}
	var out []CellResult
	for _, v := range variants {
		r, err := RunCell(CellSpec{Exp: id, Variant: v}, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestExperimentF1(t *testing.T) {
	r := ExperimentF1()
	if !r.Acyclic || r.Components != 5 || !r.AllTrees {
		t.Fatalf("F1 failed: %+v", r)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("F1 table rows = %d", len(r.Rows))
	}
}

func TestExperimentF2(t *testing.T) {
	r := ExperimentF2()
	if !r.CleanAcyclic {
		t.Fatal("clean SSMFP buffer graph must be acyclic")
	}
	if r.BuffersPerCC != 8 { // 2 buffers × 4 processors
		t.Fatalf("buffers per component = %d, want 8", r.BuffersPerCC)
	}
	if r.CycleLen == 0 {
		t.Fatal("corrupted tables must yield a cycle")
	}
}

func TestExperimentF3(t *testing.T) {
	r := ExperimentF3()
	if !r.OK {
		t.Fatalf("Figure 3 replay failed:\n%s\ntrace:\n%s", strings.Join(r.Failures, "\n"), r.Trace)
	}
	if !r.CycleInitially || r.HelloColor != 1 || r.Deliveries != 3 {
		t.Fatalf("F3 result: %+v", r)
	}
	if !strings.Contains(r.Trace, "(0) initial configuration") {
		t.Fatal("trace missing initial frame")
	}
}

// stubState is a processor state with nothing in it, for engines whose
// rules read only the processor's id.
type stubState struct{}

func (stubState) Clone() sm.State { return stubState{} }

// TestDescribeEnabled: the Figure 3 replay's failure line names every
// enabled processor with its enabled rules, and no idle processor.
func TestDescribeEnabled(t *testing.T) {
	g := graph.Line(3)
	enabledAt := func(name string, at ...graph.ProcessID) sm.Rule {
		return sm.Rule{Name: name, Action: func(*sm.View) {},
			Guard: func(v *sm.View) bool { return slices.Contains(at, v.ID()) }}
	}
	prog := sm.NewProgram(enabledAt("R2", 0, 2), enabledAt("R1", 2))
	e := sm.NewEngine(g, prog, NewDaemon(Synchronous, 1, g.N()), []sm.State{stubState{}, stubState{}, stubState{}})
	if e.Terminal() {
		t.Fatal("engine with enabled rules reports terminal")
	}
	if got, want := describeEnabled(e, g), "p0:[R2] p2:[R1 R2]"; got != want {
		t.Fatalf("describeEnabled = %q, want %q", got, want)
	}
}

func TestExperimentF4(t *testing.T) {
	c := runExp(t, "f4", 11)[0]
	if x := c.Measure.Extra; x["type1"] == 0 || x["type2"] == 0 || x["type3"] == 0 {
		t.Fatalf("not all caterpillar types observed: %v", c.Rows)
	}
	if !c.OK {
		t.Fatal("caterpillar census inconsistent (occupied buffers without a head)")
	}
}

func TestExperimentP4(t *testing.T) {
	for _, c := range runExp(t, "p4", 3, "n4", "n6") {
		if !c.OK {
			t.Fatalf("Proposition 4 bound violated: %v", c.Rows)
		}
		if c.Measure.DeliveredInvalid == 0 {
			t.Fatal("expected some invalid deliveries under full corruption")
		}
	}
}

func TestExperimentP6(t *testing.T) {
	cells := runExp(t, "p6", 5)
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Measure.MaxWaitingRounds <= 0 {
			t.Fatalf("waiting time not measured: %v", c.Rows)
		}
	}
}

func TestExperimentP7(t *testing.T) {
	var ds, amortized []float64
	for _, c := range runExp(t, "p7", 5, "d2", "d4", "d6") {
		if !c.OK {
			t.Fatalf("amortized complexity above 3D reference: %v", c.Rows)
		}
		m := c.Measure
		if m.DeliveredValid+m.DeliveredInvalid == 0 || m.Extra["amortized"] <= 0 {
			t.Fatalf("bad row: %v", c.Rows)
		}
		ds = append(ds, m.Extra["d"])
		amortized = append(amortized, m.Extra["amortized"])
	}
	// Amortized cost must not explode: the fit over D should be sublinear
	// in absolute terms (slope well below the 3·D proof constant).
	if fit := metrics.LinearFit(ds, amortized); fit.Slope > 3.0 {
		t.Fatalf("amortized slope %v too steep", fit.Slope)
	}
}

func TestExperimentP5(t *testing.T) {
	if testing.Short() {
		t.Skip("P5 sweep is the slowest experiment; skipped in -short mode")
	}
	var lines []int
	for _, c := range runExp(t, "p5", 5) {
		if !c.OK {
			t.Fatalf("Proposition 5 bound violated: %v", c.Rows)
		}
		if strings.HasPrefix(c.Spec.Variant, "line-") {
			lines = append(lines, c.Measure.MaxLatencyRounds)
		}
	}
	// Latency must grow with the diameter along the line sweep.
	if len(lines) < 2 || lines[len(lines)-1] <= lines[0] {
		t.Fatalf("latency should grow with D: %v", lines)
	}
}

func TestExperimentX1(t *testing.T) {
	c := runExp(t, "x1", 9)[0]
	if !c.OK {
		t.Fatalf("SSMFP failed in the comparison: %v", c.Rows[0])
	}
	// Columns: protocol, valid delivered, valid lost, violations, stuck.
	classical, naive := c.Rows[1], c.Rows[2]
	if !classical[4].(bool) {
		t.Fatalf("classical atomic controller should livelock in the loop: %v", classical)
	}
	if naive[2].(int) == 0 && naive[3].(int) == 0 && !naive[4].(bool) {
		t.Fatalf("naive port unexpectedly clean: %v", naive)
	}
}

func TestExperimentX2(t *testing.T) {
	cells := runExp(t, "x2", 13)
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		// Columns: topology, SSMFP moves/msg, classical moves/msg, overhead.
		if row := c.Rows[0]; row[1].(float64) <= 0 || row[2].(float64) <= 0 {
			t.Fatalf("bad row: %v", row)
		}
		if o := c.Measure.Extra["overhead"]; o < 1 || o > 8 {
			t.Fatalf("overhead %v outside the 'small constant' claim", o)
		}
	}
}

func TestExperimentX3(t *testing.T) {
	cells := runExp(t, "x3", 21)
	for _, c := range cells {
		if !c.OK {
			t.Fatalf("message-passing port violated exactly-once: %v", c.Rows)
		}
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
}

func TestExperimentX4(t *testing.T) {
	cells := runExp(t, "x4", 31)
	for _, c := range cells {
		if !c.OK {
			t.Fatalf("acyclic-cover controller failed: %v", c.Rows)
		}
		// Column 3 is the destination scheme's n buffers per node.
		if k := c.Measure.Extra["cover_k"]; k >= float64(c.Rows[0][3].(int)) {
			t.Fatalf("cover should beat the destination scheme on buffers: %v", c.Rows)
		}
	}
	ring, tree := cells[0].Measure.Extra, cells[1].Measure.Extra
	if ring["cover_k"] != 3 {
		t.Fatalf("ring cover size = %v, want 3 (the paper's '3 for a ring')", ring["cover_k"])
	}
	if tree["cover_k"] != 2 {
		t.Fatalf("tree cover size = %v, want 2 (the paper's '2 for a tree')", tree["cover_k"])
	}
	if ring["stretch"] <= 1.0 {
		t.Fatalf("clockwise ring routing must show stretch > 1, got %v", ring["stretch"])
	}
	if tree["stretch"] != 1.0 {
		t.Fatalf("tree routing is minimal, stretch = %v", tree["stretch"])
	}
}

func TestExperimentX5(t *testing.T) {
	cells := runExp(t, "x5", 33)
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	probe := map[string]float64{}
	for _, c := range cells {
		probe[c.Spec.Variant] = c.Measure.Extra["probe_step"]
		if !c.OK {
			t.Fatalf("policy %s failed to deliver (finite supply: even unfair policies finish): %v", c.Spec.Variant, c.Rows)
		}
		if probe[c.Spec.Variant] < 0 {
			t.Fatalf("probe never delivered under %s", c.Spec.Variant)
		}
	}
	// The unfair policy must serve the probe later than the paper's queue.
	if probe["lowest-id"] <= probe["fifo-queue"] {
		t.Fatalf("lowest-id should starve the probe relative to the queue: %v", probe)
	}
}

func TestExperimentX6(t *testing.T) {
	cells := runExp(t, "x6", 35)
	for _, c := range cells {
		if !c.OK {
			t.Fatalf("fault-storm experiment failed: %v", c.Rows)
		}
	}
	if cells[len(cells)-1].Measure.Extra["compromised"] == 0 {
		t.Fatal("the heaviest storm should compromise something")
	}
}

func TestExperimentRA(t *testing.T) {
	c := runExp(t, "ra", 47)[0]
	if !c.OK {
		t.Fatalf("latency should track R_A: %v", c.Rows)
	}
	if x := c.Measure.Extra; x["fast_ra_rounds"] < 0 || x["slow_ra_rounds"] < 0 {
		t.Fatalf("R_A never observed: %v", c.Rows)
	}
}

// TestRunCellRejectsUnknown: a cell outside the registry is an error,
// never a silent run of some other cell.
func TestRunCellRejectsUnknown(t *testing.T) {
	for _, spec := range []CellSpec{
		{Exp: "nope"},
		{Exp: "nope", Variant: "n4"},
		{Exp: "p4", Variant: "n5"},
		{Exp: "p4"},
		{Exp: "f1", Variant: "x"},
	} {
		if _, err := RunCell(spec, Options{Seed: 1}); err == nil {
			t.Errorf("RunCell(%s) succeeded, want an error", spec.Key())
		}
	}
}

// TestGridIsTheRegistry: every registry variant is one grid cell with its
// heavy flag, in registry order, and the heavy set is the expected one.
func TestGridIsTheRegistry(t *testing.T) {
	grid := CellGrid()
	i := 0
	for _, e := range Experiments {
		for _, v := range e.Variants {
			want := CellSpec{Exp: e.ID, Variant: v.Name, Heavy: v.Heavy}
			if i >= len(grid) || grid[i] != want {
				t.Fatalf("grid cell %d: want %+v", i, want)
			}
			i++
		}
	}
	if i != len(grid) {
		t.Fatalf("grid has %d cells, registry %d", len(grid), i)
	}
	var heavy []string
	for _, s := range grid {
		if s.Heavy {
			heavy = append(heavy, s.Key())
		}
	}
	want := "f4 p4/n8 p4/n10 p5/line-9 p5/star-8 p7/d8 mc ep/grid-20x20 ep/random-100 ep/random-400"
	if got := strings.Join(heavy, " "); got != want {
		t.Fatalf("heavy cells: %s\nwant: %s", got, want)
	}
}

func TestMonitorsRunAndTrip(t *testing.T) {
	g := graph.Line(4)
	// The well-typed monitor passes on a healthy run.
	r := Run(Scenario{
		Name: "mon-ok", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: workload.SinglePair(0, 3, 2),
		Monitors: []Monitor{WellTypedMonitor()},
		MaxSteps: 100_000,
	})
	if !r.OK() || r.MonitorErr != nil {
		t.Fatalf("healthy run tripped a monitor: %v", r.MonitorErr)
	}
	// A monitor that always fails aborts the run and surfaces the error.
	calls := 0
	r = Run(Scenario{
		Name: "mon-trip", Graph: g, Daemon: Synchronous, Seed: 1,
		Workload: workload.SinglePair(0, 3, 1),
		Monitors: []Monitor{{Name: "tripwire", Check: func(g *graph.Graph, cfg []sm.State) error {
			calls++
			if calls > 2 {
				return errTrip
			}
			return nil
		}}},
		MaxSteps: 100_000,
	})
	if r.OK() || r.MonitorErr == nil {
		t.Fatalf("tripwire did not abort: %+v", r)
	}
	if !strings.Contains(r.MonitorErr.Error(), "tripwire") {
		t.Fatalf("monitor error unnamed: %v", r.MonitorErr)
	}
}

var errTrip = fmt.Errorf("tripped")

// TestFigure3GoldenTrace pins the exact rendered replay of Figure 3: any
// change to the script, the rules, the renderer, or the color assignment
// shows up as a diff against testdata/figure3.golden.
func TestFigure3GoldenTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/figure3.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := ExperimentF3()
	if !r.OK {
		t.Fatalf("replay failed: %v", r.Failures)
	}
	got := strings.TrimRight(r.Trace, "\n")
	if got != strings.TrimRight(string(want), "\n") {
		t.Fatalf("Figure 3 trace diverged from the golden file.\n--- got ---\n%s\n--- want ---\n%s",
			got, string(want))
	}
}

// TestExperimentMC runs the E-MC suite once, through RunCell as a
// campaign does: every scenario verified, the literal-R5 loss found with
// a two-move witness, and the measures summing the rows.
func TestExperimentMC(t *testing.T) {
	res, err := RunCell(CellSpec{Exp: "mc"}, Options{})
	if err != nil || !res.OK || len(res.Rows) != 5 {
		t.Fatalf("model-check suite failed (%v): %v", err, res.Rows)
	}
	states := 0
	for i, row := range res.Rows {
		states += row[1].(int)
		if i < 4 && row[3] != "OK" {
			t.Errorf("scenario %v: verdict %v", row[0], row[3])
		}
	}
	r5 := res.Rows[4]
	witness, found := strings.CutPrefix(r5[3].(string), "loss found, schedule ")
	if r5[0] != "literal R5 (loss expected)" || !found || len(strings.Fields(strings.Trim(witness, "[]"))) != 2 {
		t.Fatalf("literal R5 row wrong: %v", r5)
	}
	if x := res.Measure.Extra; x["states_total"] != float64(states) || x["literal_r5_states"] != float64(r5[1].(int)) {
		t.Errorf("measures %v, want states_total %d and the R5 row's %v", x, states, r5[1])
	}
}
