package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

const (
	// engine-corrupt: grid-8x8 from a corrupted configuration (random
	// routing tables, engineBufferFill of the buffers holding garbage,
	// scrambled choice queues, phantom request bits) under the synchronous
	// daemon on the sharded step engine, every processor sending
	// engineMsgsPerProc messages to seeded destinations.
	engineRows, engineCols = 8, 8
	engineMsgsPerProc      = 4
	engineBufferFill       = 0.3
	engineShards           = 2
	engineMaxSteps         = 1_000_000
	// engineSetups builds per execution: set-up takes milliseconds, so
	// setup_s is the median of many builds (the last one runs).
	engineSetups = 5
)

// engineCase is one prepared state-model execution.
type engineCase struct {
	g      *graph.Graph
	e      *sm.Engine
	tk     *checker.Tracker
	msgs   int
	events int // engine events published to the checker's stream
}

// setupEngine builds the topology, the corrupted initial configuration
// with the seeded sends enqueued, the engine and the checker. The same
// seed builds the same execution.
func setupEngine(seed int64) *engineCase {
	g := graph.Grid(engineRows, engineCols)
	rng := rand.New(rand.NewSource(seed))
	cfg := core.RandomConfig(g, rng, core.CorruptOptions{
		BufferFill:      engineBufferFill,
		CorruptRouting:  true,
		CorruptQueues:   true,
		PhantomRequests: true,
	})
	n := g.N()
	for p := 0; p < n; p++ {
		fw := cfg[p].(*core.Node).FW
		for k := 0; k < engineMsgsPerProc; k++ {
			d := rng.Intn(n - 1)
			if d >= p {
				d++
			}
			fw.Enqueue(fmt.Sprintf("p%d.%d", p, k), graph.ProcessID(d))
		}
	}
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewSynchronous(seed), cfg,
		sm.WithShards(engineShards, seed), sm.WithSelfCheck(false))
	tk := checker.New(g)
	tk.RecordInitial(cfg)
	tk.Attach(e)
	c := &engineCase{g: g, e: e, tk: tk, msgs: n * engineMsgsPerProc}
	e.Subscribe(func(sm.Event) { c.events++ })
	return c
}

// engineRun is what one execution measured.
type engineRun struct {
	wall    time.Duration
	cpu     time.Duration
	lat     []int64 // per valid message: start of its R1 step to end of its R6 step, ns
	stepNS  []int64 // per Engine.Step call, ns
	summary engineSummary
}

// engineSummary is the exact, seed-determined part of one execution.
type engineSummary struct {
	steps, rounds    int
	guardEvals       int64
	parallelMoves    int64
	coreMoves        int
	routingMoves     int
	moves            string // moves per base rule (R1..R6, A), sorted by rule
	invalidDelivered int
	delayRoundsP50   int64
	events           int
}

// run steps the engine to quiescence, recording a statemodel.step span per
// Engine.Step (and an engine.run root) when tr is non-nil.
func (c *engineCase) run(tr *tracer, key uint64) *engineRun {
	r := &engineRun{stepNS: make([]int64, 0, 2048)}
	ends := make([]int64, 0, 2048) // end of step s, ns since t0
	var runStart int64
	if tr != nil {
		runStart = tr.now()
	}
	cpu0, t0 := cpuTime(), time.Now()
	for c.e.Steps() < engineMaxSteps {
		s0 := time.Since(t0)
		var ts int64
		if tr != nil {
			ts = tr.now()
		}
		if !c.e.Step() {
			break
		}
		s1 := time.Since(t0)
		if tr != nil {
			tr.record(spanStep, key, ts, tr.now())
		}
		ends = append(ends, int64(s1))
		r.stepNS = append(r.stepNS, int64(s1-s0))
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	if tr != nil {
		tr.record(spanEngineRun, key, runStart, tr.now())
	}
	startOf := func(s int) int64 {
		if s <= 0 {
			return 0
		}
		return ends[s-1]
	}
	steps := c.tk.LatencySteps()
	seen := make(map[uint64]bool, len(steps))
	for _, d := range c.tk.Deliveries() {
		if !d.Msg.Valid || seen[d.Msg.UID] || d.Step >= len(ends) {
			continue
		}
		seen[d.Msg.UID] = true
		r.lat = append(r.lat, ends[d.Step]-startOf(d.Step-steps[d.Msg.UID]))
	}
	r.summary = c.summarize()
	return r
}

func (c *engineCase) summarize() engineSummary {
	st := c.e.Stats()
	s := engineSummary{
		steps:            c.e.Steps(),
		rounds:           c.e.Rounds(),
		guardEvals:       st.GuardEvals,
		parallelMoves:    st.ParallelMoves,
		invalidDelivered: c.tk.InvalidDeliveredTotal(),
		events:           c.events,
	}
	byBase := map[string]int{}
	for name, k := range c.e.MoveCounts() {
		base, _, _ := strings.Cut(name, "@")
		byBase[base] += k
	}
	for _, r := range []string{"R1", "R2", "R3", "R4", "R5", "R6"} {
		s.coreMoves += byBase[r]
	}
	s.routingMoves = byBase["A"]
	names := make([]string, 0, len(byBase))
	for name := range byBase {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, byBase[name])
	}
	s.moves = b.String()
	rounds := make([]int64, 0, c.msgs)
	for _, r := range c.tk.LatencyRounds() {
		rounds = append(rounds, int64(r))
	}
	s.delayRoundsP50 = quantiles(rounds, 0.5)[0]
	return s
}

// check verifies one execution against the specification: no checker
// violation, every valid message generated and delivered, at most 2n
// invalid deliveries at any destination, and a quiescent end. It returns
// the number of failures and records each in res.
func (c *engineCase) check(res *result) int {
	bad := 0
	for _, v := range c.tk.Violations() {
		res.violation("engine: %s", v)
		bad++
	}
	if gen := c.tk.GeneratedCount(); gen != c.msgs {
		res.violation("engine: %d of %d messages generated", gen, c.msgs)
		bad += max(c.msgs-gen, 1)
	}
	if und := c.tk.UndeliveredValid(); len(und) > 0 {
		res.violation("engine: %d valid messages undelivered", len(und))
		bad += len(und)
	}
	bound := 2 * c.g.N()
	for d, k := range c.tk.InvalidDeliveredPerDest() {
		if k > bound {
			res.violation("engine: %d invalid deliveries at %d, bound %d", k, d, bound)
			bad++
		}
	}
	if !c.e.Terminal() {
		res.violation("engine: not quiescent after %d steps", c.e.Steps())
		bad++
	}
	return bad
}

// engineMeasure is what one measured phase of engine-corrupt collected.
type engineMeasure struct {
	setups    []float64
	execs     int
	delivered int           // valid messages delivered, all executions
	wall      time.Duration // time stepping the engines
	cpu       time.Duration // process CPU while stepping
	lat       []int64       // per valid message, all executions
	stepNS    []int64
	first     *engineSummary
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// measureEngine sets up and runs the seeded execution repeatedly until dur
// has passed (at least once), checking each.
func measureEngine(seed int64, dur time.Duration, tr *tracer, res *result) *engineMeasure {
	m := &engineMeasure{}
	// Each execution starts from its own seeded configuration, so a run
	// averages over many corruptions; the first is the same in every run
	// of one seed and supplies the exact per-layer counts.
	rng := rand.New(rand.NewSource(seed))
	runtime.ReadMemStats(&m.mem0)
	phase := time.Now()
	for m.execs == 0 || time.Since(phase) < dur {
		execSeed := rng.Int63()
		var c *engineCase
		for i := 0; i < engineSetups; i++ {
			t0 := time.Now()
			c = setupEngine(execSeed)
			m.setups = append(m.setups, time.Since(t0).Seconds())
		}
		r := c.run(tr, uint64(m.execs+1))
		res.attempted += c.msgs
		res.failed += c.check(res)
		if m.first == nil {
			m.first = &r.summary
		}
		m.execs++
		m.delivered += c.tk.DeliveredValid()
		m.wall += r.wall
		m.cpu += r.cpu
		m.lat = append(m.lat, r.lat...)
		m.stepNS = append(m.stepNS, r.stepNS...)
	}
	runtime.ReadMemStats(&m.mem1)
	return m
}

// goodput is the valid messages delivered per second of engine stepping,
// over all executions.
func (m *engineMeasure) goodput() float64 {
	return float64(m.delivered) / m.wall.Seconds()
}

// runEngine runs engine-corrupt: untraced for the end-to-end metrics, or
// untraced then traced for the per-layer metrics.
func runEngine(rc runConfig) (*result, error) {
	res := newResult()
	if !rc.traced {
		m := measureEngine(rc.seed, rc.measure, nil, res)
		q := quantiles(m.lat, 0.50, 0.99)
		res.set("setup_s", median(m.setups), len(m.setups))
		res.set("goodput_msgs_per_s", m.goodput(), m.execs)
		res.set("latency_p50_us", float64(q[0])/1e3, len(m.lat))
		res.set("latency_p99_us", float64(q[1])/1e3, len(m.lat))
		res.set("cpu_us_per_msg", float64(m.cpu.Microseconds())/float64(max(m.delivered, 1)), m.delivered)
		res.set("rss_peak_mb", rssPeakMB(), 0)
		return res, nil
	}
	base := measureEngine(rc.seed, rc.measure/2, nil, res)
	tr := newTracer(1)
	m := measureEngine(rc.seed, rc.measure/2, tr, res)
	s := m.first
	msgs := float64(engineRows * engineCols * engineMsgsPerProc)
	totalMoves := float64(s.coreMoves + s.routingMoves)
	res.set("load.latency_samples", float64(len(m.lat)), 0)
	res.set("statemodel.step_us_mean", tr.meanNS(spanStep)/1e3, int(tr.count[spanStep].Load()))
	res.set("statemodel.step_us_p99", float64(quantiles(m.stepNS, 0.99)[0])/1e3, len(m.stepNS))
	res.set("statemodel.guard_evals_per_step", float64(s.guardEvals)/float64(s.steps), s.steps)
	res.set("statemodel.parallel_moves_share", float64(s.parallelMoves)/totalMoves, int(totalMoves))
	res.set("statemodel.steps", float64(s.steps), 0)
	res.set("statemodel.rounds", float64(s.rounds), 0)
	res.set("core.moves_per_msg", float64(s.coreMoves)/msgs, int(msgs))
	res.set("routing.moves", float64(s.routingMoves), 0)
	res.set("core.delay_rounds_p50", float64(s.delayRoundsP50), int(msgs))
	res.set("core.invalid_delivered", float64(s.invalidDelivered), 0)
	res.set("checker.events_per_step", float64(s.events)/float64(s.steps), s.steps)
	setRuntime(res, &m.mem0, &m.mem1, msgs*float64(m.execs))
	res.notef("exact counts: steps=%d rounds=%d guard_evals=%d moves:%s", s.steps, s.rounds, s.guardEvals, s.moves)
	setOverhead(res, base.goodput(), m.goodput())
	return res, reportSpans(res, tr, rc)
}
