// Benchmarks regenerating every figure and proposition of the paper (and
// the comparison/extension experiments), one testing.B target per artifact
// — see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured outcomes. Each bench runs the experiment's
// cells through sim.RunCell (or, for Figures 1-3 and the model check, the
// experiment function itself) and reports its headline measurement via
// b.ReportMetric, failing if the acceptance check breaks.
//
//	go test -bench=. -benchmem
package ssmfp_test

import (
	"ssmfp/internal/routing"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/explore"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/sim"
)

// BenchmarkFigure1DestinationBufferGraph rebuilds the destination-based
// buffer graph of Figure 1 and verifies it is acyclic with one tree
// component per destination.
func BenchmarkFigure1DestinationBufferGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.ExperimentF1()
		if !r.Acyclic || !r.AllTrees || r.Components != 5 {
			b.Fatalf("Figure 1 claims violated: %+v", r)
		}
	}
}

// BenchmarkFigure2SSMFPBufferGraph rebuilds SSMFP's two-buffer graph of
// Figure 2 (acyclic when tables are correct, cyclic under the a↔c
// corruption).
func BenchmarkFigure2SSMFPBufferGraph(b *testing.B) {
	var cycleLen int
	for i := 0; i < b.N; i++ {
		r := sim.ExperimentF2()
		if !r.CleanAcyclic || r.CycleLen == 0 {
			b.Fatalf("Figure 2 claims violated: %+v", r)
		}
		cycleLen = r.CycleLen
	}
	b.ReportMetric(float64(cycleLen), "cycle-buffers")
}

// BenchmarkFigure3Replay replays the paper's execution example under the
// scripted daemon and verifies every frame.
func BenchmarkFigure3Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.ExperimentF3()
		if !r.OK {
			b.Fatalf("Figure 3 replay failed: %v", r.Failures)
		}
	}
}

// cells runs experiment exp's cells at seed — the named variants, or all
// of them — failing the benchmark on a RunCell error.
func cells(b *testing.B, exp string, seed int64, variants ...string) []sim.CellResult {
	if len(variants) == 0 {
		for _, s := range sim.CellGrid() {
			if s.Exp == exp {
				variants = append(variants, s.Variant)
			}
		}
	}
	var out []sim.CellResult
	for _, v := range variants {
		r, err := sim.RunCell(sim.CellSpec{Exp: exp, Variant: v}, sim.Options{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// allOK fails the benchmark with msg if any cell failed its acceptance
// check.
func allOK(b *testing.B, cs []sim.CellResult, msg string) {
	for _, c := range cs {
		if !c.OK {
			b.Fatalf("%s: %s %v", msg, c.Spec.Key(), c.Rows)
		}
	}
}

// BenchmarkFigure4CaterpillarClassification classifies every buffer of an
// adversarial execution into the caterpillar types of Definition 3.
func BenchmarkFigure4CaterpillarClassification(b *testing.B) {
	var observations float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "f4", int64(i)+11)
		allOK(b, cs, "Figure 4 classification failed")
		x := cs[0].Measure.Extra
		observations = x["type1"] + x["type2"] + x["type3"]
	}
	b.ReportMetric(observations, "classified-buffers")
}

// BenchmarkProp4InvalidDeliveries sweeps network size with every buffer
// stuffed with invalid messages and checks the 2n bound of Proposition 4.
func BenchmarkProp4InvalidDeliveries(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "p4", int64(i)+3, "n4", "n6", "n8")
		allOK(b, cs, "Proposition 4 bound violated")
		worst = 0
		for _, c := range cs {
			worst = max(worst, float64(c.Measure.MaxInvalidPerDest)/float64(c.Measure.InvalidBound))
		}
	}
	b.ReportMetric(worst, "worst-fraction-of-2n")
}

// BenchmarkProp5DeliveryLatency sweeps Δ and D under adversarial fair
// scheduling and saturating cross-traffic, checking the worst observed
// delivery latency against the Δ^D bound of Proposition 5.
func BenchmarkProp5DeliveryLatency(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "p5", int64(i)+5)
		allOK(b, cs, "Proposition 5 bound violated")
		for _, c := range cs {
			worst = max(worst, float64(c.Measure.MaxLatencyRounds))
		}
	}
	b.ReportMetric(worst, "worst-latency-rounds")
}

// BenchmarkProp6DelayWaiting measures the delay before a loaded source's
// first emission and the waiting time between its emissions (Prop. 6).
func BenchmarkProp6DelayWaiting(b *testing.B) {
	var maxWait float64
	for i := 0; i < b.N; i++ {
		for _, c := range cells(b, "p6", int64(i)+5) {
			maxWait = max(maxWait, float64(c.Measure.MaxWaitingRounds))
		}
	}
	b.ReportMetric(maxWait, "max-waiting-rounds")
}

// BenchmarkProp7AmortizedComplexity saturates lines of growing diameter
// and checks amortized rounds per delivery against the Θ(D) of Prop. 7.
func BenchmarkProp7AmortizedComplexity(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "p7", int64(i)+5, "d2", "d4", "d6", "d8")
		allOK(b, cs, "Proposition 7 bound violated")
		var ds, amortized []float64
		for _, c := range cs {
			ds = append(ds, c.Measure.Extra["d"])
			amortized = append(amortized, c.Measure.Extra["amortized"])
		}
		slope = metrics.LinearFit(ds, amortized).Slope
	}
	b.ReportMetric(slope, "amortized-slope-vs-D")
}

// BenchmarkX1BaselineVsSSMFP contrasts SSMFP with the classical
// controllers from identical corrupted configurations.
func BenchmarkX1BaselineVsSSMFP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		allOK(b, cells(b, "x1", int64(i)+9), "SSMFP lost the comparison it must win")
	}
}

// BenchmarkX2FaultFreeOverhead quantifies the fault-free per-message move
// overhead of SSMFP over the atomic classical controller (§4's "no
// significant over cost" claim).
func BenchmarkX2FaultFreeOverhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = 0
		for _, c := range cells(b, "x2", int64(i)+13) {
			overhead = max(overhead, c.Measure.Extra["overhead"])
		}
		if overhead >= 8 {
			b.Fatalf("overhead %.2f no longer a small constant", overhead)
		}
	}
	b.ReportMetric(overhead, "max-overhead-factor")
}

// BenchmarkX3MessagePassing runs the goroutine/channel port under
// corruption and loss, checking exactly-once end to end.
func BenchmarkX3MessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		allOK(b, cells(b, "x3", int64(i)+21), "message-passing port violated exactly-once")
	}
}

// BenchmarkX4AcyclicCoverBufferEconomy measures the §4 alternative scheme:
// k buffers per node (3 for a ring, 2 for a tree) against the destination
// schemes, with the path-stretch cost.
func BenchmarkX4AcyclicCoverBufferEconomy(b *testing.B) {
	var ringK float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "x4", int64(i)+31)
		allOK(b, cs, "acyclic controller failed")
		ringK = cs[0].Measure.Extra["cover_k"] // ring-8
	}
	b.ReportMetric(ringK, "ring-buffers-per-node")
}

// BenchmarkX5ChoicePolicyAblation compares the paper's FIFO queue with
// rotating and unfair lowest-ID selection under a loaded star.
func BenchmarkX5ChoicePolicyAblation(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		byPolicy := map[string]sim.CellResult{}
		for _, c := range cells(b, "x5", int64(i)+33) {
			byPolicy[c.Spec.Variant] = c
		}
		q, l := byPolicy["fifo-queue"], byPolicy["lowest-id"]
		if !q.OK {
			b.Fatal("queue policy must deliver everything")
		}
		if qp := q.Measure.Extra["probe_step"]; qp > 0 {
			penalty = l.Measure.Extra["probe_step"] / qp
		}
	}
	b.ReportMetric(penalty, "unfair-probe-delay-factor")
}

// BenchmarkX6FaultStorms verifies the post-fault exactly-once guarantee
// under transient fault storms of growing intensity.
func BenchmarkX6FaultStorms(b *testing.B) {
	var compromised float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "x6", int64(i)+35)
		allOK(b, cs, "fault storm broke the guarantee")
		compromised = cs[len(cs)-1].Measure.Extra["compromised"]
	}
	b.ReportMetric(compromised, "messages-compromised")
}

// BenchmarkRARoutingStabilizationAblation isolates the R_A branch of the
// max(R_A, Δ^D) bounds: with a deliberately slowed routing algorithm, the
// probe's generation delay grows with the source's stabilization work.
func BenchmarkRARoutingStabilizationAblation(b *testing.B) {
	var slowRA float64
	for i := 0; i < b.N; i++ {
		cs := cells(b, "ra", int64(i)+47)
		allOK(b, cs, "delay should track R_A")
		slowRA = cs[0].Measure.Extra["slow_ra_rounds"]
	}
	b.ReportMetric(slowRA, "slow-RA-rounds")
}

// BenchmarkExhaustiveModelCheck explores every central-daemon schedule of
// the Figure 3 corruption scenario and verifies SP on all of them.
func BenchmarkExhaustiveModelCheck(b *testing.B) {
	var states float64
	for i := 0; i < b.N; i++ {
		g := graph.Figure3Network()
		cfg := core.CleanConfig(g)
		cfg[0].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 2})
		cfg[2].(*core.Node).RT.SetRoute(1, routing.Route{Dist: 2, Parent: 0})
		cfg[1].(*core.Node).FW.Dest(1).BufR = &core.Message{
			Payload: "data", LastHop: 2, Color: 0, UID: 1 << 50, Src: 1, Dest: 1, Valid: false}
		cfg[2].(*core.Node).FW.Enqueue("data", 1)
		r := explore.Explore(g, core.FullProgram(g), cfg, explore.CoreOptions(g))
		if !r.OK() {
			b.Fatalf("model check failed: %s (inv=%v term=%v)", r, r.InvariantErr, r.TerminalErr)
		}
		states = float64(r.States)
	}
	b.ReportMetric(states, "states-explored")
}

// BenchmarkEnginePerfSweep runs the naive-vs-incremental enabled-set
// sweep (E-EP), checking the acceptance bar (identical executions, ≥3×
// fewer guard evaluations per step on the 20×20 grid) and reporting the
// observed 20×20 ratio.
func BenchmarkEnginePerfSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		for _, c := range cells(b, "ep", int64(i)+42) {
			if !c.Rows[0][7].(bool) { // the "identical run" column
				b.Fatal("incremental and naive executions diverged")
			}
			if c.Spec.Variant == "grid-20x20" {
				if ratio = c.Measure.Extra["ratio"]; ratio < 3 {
					b.Fatalf("20x20 guard-eval ratio %.2f < 3x", ratio)
				}
			}
		}
	}
	b.ReportMetric(ratio, "guard-eval-ratio-20x20")
}
