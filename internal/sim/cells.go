package sim

import "fmt"

// CellMeasure collects the paper-facing quantities of one experiment cell
// in machine-readable form: step/round/guard-evaluation costs plus the
// delivery accounting behind Propositions 4-7. All fields are
// deterministic for a given (cell, seed) — wall-clock and allocation
// numbers live in the campaign report, not here.
type CellMeasure struct {
	Steps             int   `json:"steps,omitempty"`
	Rounds            int   `json:"rounds,omitempty"`
	GuardEvals        int64 `json:"guard_evals,omitempty"`
	Generated         int   `json:"generated,omitempty"`
	DeliveredValid    int   `json:"delivered_valid,omitempty"`
	DeliveredInvalid  int   `json:"delivered_invalid,omitempty"`
	MaxInvalidPerDest int   `json:"max_invalid_per_dest,omitempty"`
	// InvalidBound is the 2n reference of Proposition 4 (set by E-P4).
	InvalidBound int `json:"invalid_bound,omitempty"`
	// DelayRounds and MaxWaitingRounds are the Proposition 6 quantities
	// (set by E-P6); MaxLatencyRounds is the Proposition 5 quantity.
	DelayRounds      int `json:"delay_rounds,omitempty"`
	MaxWaitingRounds int `json:"max_waiting_rounds,omitempty"`
	MaxLatencyRounds int `json:"max_latency_rounds,omitempty"`
	// Extra carries experiment-specific scalars (amortized cost, overhead
	// ratio, caterpillar counts, ...). JSON maps marshal with sorted keys,
	// so reports containing Extra stay byte-comparable.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// measureOf lifts a scenario Result into the cell measurement schema.
func measureOf(r Result) CellMeasure {
	return CellMeasure{
		Steps:             r.Steps,
		Rounds:            r.Rounds,
		GuardEvals:        r.Stats.GuardEvals,
		Generated:         r.Generated,
		DeliveredValid:    r.DeliveredValid,
		DeliveredInvalid:  r.InvalidDelivered,
		MaxInvalidPerDest: r.MaxInvalidPerDst,
	}
}

// Experiment is one entry of the registry: an experiment's ID, the title
// and header of the table its cells fill, its canonical variants, and
// the cell function that runs one variant. Cells are independent: a
// cell derives its seeds from Options.Seed and its canonical index (or
// its sweep parameter), never from which other cells run.
type Experiment struct {
	ID     string
	Title  string
	Header []string // nil: the cells render CellResult.Text instead (f3)

	Variants []Variant
	Cell     func(o Options, idx int) CellResult
}

// Variant is one canonical case of an experiment. A single-cell
// experiment has one variant with an empty name. Heavy marks the
// expensive cells (hundreds of milliseconds and up at the default seed):
// they dominate campaign wall time, so -quick skips them and the
// scheduler starts them first.
type Variant struct {
	Name  string
	Heavy bool
}

// variant lets a case table whose rows embed a Variant list them.
func (v Variant) variant() Variant { return v }

// variantsOf lists the variants of a case table, in table order.
func variantsOf[C interface{ variant() Variant }](cases []C) []Variant {
	vs := make([]Variant, len(cases))
	for i, c := range cases {
		vs[i] = c.variant()
	}
	return vs
}

var (
	single      = []Variant{{}}
	singleHeavy = []Variant{{Heavy: true}}
)

// Experiments is the registry, in the order ssmfp-bench prints: the
// paper's figures and propositions, then the extensions.
var Experiments = []Experiment{
	{"f1", "E-F1: destination-based buffer graph (Figure 1)",
		[]string{"destination", "buffers", "edges", "isomorphic to T_d"},
		single, f1Cell},
	{"f2", "E-F2: SSMFP buffer graph for destination b (Figure 2)",
		[]string{"tables", "buffers", "edges", "acyclic", "cycle length"},
		single, f2Cell},
	{"f3", "E-F3: Figure 3 execution replay", nil, single, f3Cell},
	{"f4", "E-F4: caterpillar census over an adversarial execution (Figure 4)",
		[]string{"type", "buffer observations"},
		singleHeavy, f4Cell}, // 500k-step census with per-step classification
	{"p4", "E-P4: invalid deliveries per destination vs the 2n bound (Prop. 4)",
		[]string{"n", "invalid placed", "max delivered to one dest", "bound 2n", "total invalid delivered"},
		variantsOf(p4Cases), p4Cell},
	{"p5", "E-P5: worst delivery latency vs Δ^D bound (Prop. 5)",
		[]string{"topology", "Δ", "D", "max latency (rounds)", "Δ^D"},
		variantsOf(p5Cases), p5Cell},
	{"p6", "E-P6: delay and waiting time at a loaded source (Prop. 6)",
		[]string{"topology", "Δ", "D", "delay (rounds)", "max waiting (rounds)"},
		variantsOf(p6Cases), p6Cell},
	{"p7", "E-P7: amortized rounds per delivery vs D (Prop. 7)",
		[]string{"D", "rounds", "deliveries", "rounds/delivery", "3D reference"},
		variantsOf(p7Cases), p7Cell},
	{"x1", "E-X1: corrupted initial configuration — SSMFP vs classical controllers",
		[]string{"protocol", "valid delivered", "valid lost", "violations", "stuck (dead/livelock)"},
		single, x1Cell},
	{"x2", "E-X2: fault-free moves per message — SSMFP vs classical controller",
		[]string{"topology", "SSMFP moves/msg", "classical moves/msg", "overhead"},
		variantsOf(x2Cases), x2Cell},
	{"x3", "E-X3: message-passing port (goroutines + channels)",
		[]string{"configuration", "sent", "delivered", "duplicates", "invalid per dest (max/bound)", "wall time", "exactly once"},
		variantsOf(x3Cases), x3Cell},
	{"x4", "E-X4: buffers per node — SSMFP vs destination-based vs acyclic cover (§4)",
		[]string{"topology", "n", "SSMFP (2n)", "dest-based (n)", "acyclic cover (k)", "path stretch", "exactly once"},
		variantsOf(x4Cases), x4Cell},
	{"x5", "E-X5: choice policy ablation on a loaded star (§4 future work)",
		[]string{"policy", "all delivered", "probe delivered at step", "max latency (rounds)"},
		variantsOf(x5Cases), x5Cell},
	{"x6", "E-X6: transient fault storms (snap-stabilization mid-run)",
		[]string{"fault waves", "messages compromised by faults", "post-fault exactly-once", "violations"},
		variantsOf(x6Cases), x6Cell},
	{"ra", "E-RA: generation delay tracks R_A (the max(R_A, ·) term of Props. 5-7)",
		[]string{"routing variant", "R_A (rounds)", "probe generation delay (rounds)", "probe delivered"},
		single, raCell},
	{"mc", "E-MC: exhaustive model checking (all central schedules)",
		[]string{"scenario", "states", "terminals", "verdict"},
		singleHeavy, mcCell}, // exhaustive state-space exploration
	{"ep", "E-EP: guard evaluations per step — naive rescan vs incremental enabled set",
		[]string{"topology", "n", "steps", "naive evals/step", "incremental evals/step", "ratio", "procs skipped", "identical run"},
		variantsOf(epCases), epCell},
}

// CellSpec names one cell of the experiment grid: an experiment ID and,
// for sweep experiments, the canonical case variant. Heavy marks the
// cells a -quick campaign skips.
type CellSpec struct {
	Exp     string `json:"exp"`
	Variant string `json:"variant,omitempty"`
	Heavy   bool   `json:"heavy,omitempty"`
}

// Key renders the spec as "exp" or "exp/variant" — the identifier used in
// campaign reports, -filter expressions, and obs cell events.
func (s CellSpec) Key() string {
	if s.Variant == "" {
		return s.Exp
	}
	return s.Exp + "/" + s.Variant
}

// CellGrid enumerates the registry's cells in canonical order (the
// order ssmfp-bench prints, f1 → ep).
func CellGrid() []CellSpec {
	var cells []CellSpec
	for _, e := range Experiments {
		for _, v := range e.Variants {
			cells = append(cells, CellSpec{Exp: e.ID, Variant: v.Name, Heavy: v.Heavy})
		}
	}
	return cells
}

// CellResult is one cell's outcome: its acceptance verdict, its rows of
// the experiment's table (or Text, for f3's rendered trace), and its
// measurements.
type CellResult struct {
	Spec    CellSpec
	OK      bool
	Rows    [][]any
	Text    string
	Measure CellMeasure
}

// RunCell executes one cell of the grid under the given options. An
// unknown experiment or variant is an error.
func RunCell(spec CellSpec, o Options) (CellResult, error) {
	for _, e := range Experiments {
		if e.ID != spec.Exp {
			continue
		}
		for i, v := range e.Variants {
			if v.Name == spec.Variant {
				res := e.Cell(o, i)
				res.Spec = spec
				return res, nil
			}
		}
		return CellResult{Spec: spec}, fmt.Errorf("sim: experiment %s has no variant %q", spec.Exp, spec.Variant)
	}
	return CellResult{Spec: spec}, fmt.Errorf("sim: unknown experiment %q", spec.Exp)
}
