// Package sim composes the whole reproduction into runnable scenarios and
// experiments: topology + initial configuration (clean or adversarial) +
// daemon + workload, executed on the state-model engine with the
// specification oracles attached, yielding a structured Result. The
// experiment registry (cells.go) regenerates every figure and proposition
// of the paper as cells; cmd/ssmfp-bench prints their tables and
// bench_test.go turns each experiment into a testing.B benchmark.
package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/obs"
	"ssmfp/internal/routing"
	sm "ssmfp/internal/statemodel"
	"ssmfp/internal/trace"
	"ssmfp/internal/workload"
)

// DaemonKind selects a scheduler for a scenario.
type DaemonKind string

// The daemon menu of the experiments.
const (
	Synchronous       DaemonKind = "synchronous"
	CentralRandom     DaemonKind = "central-random"
	CentralRoundRobin DaemonKind = "central-round-robin"
	Distributed       DaemonKind = "distributed-random"
	WeaklyFairLIFO    DaemonKind = "weakly-fair-lifo"
)

// NewDaemon instantiates a daemon of the given kind (daemon.New). n is
// the network size (used to scale the weak-fairness bound).
func NewDaemon(kind DaemonKind, seed int64, n int) sm.Daemon {
	d, err := daemon.New(string(kind), seed, n)
	if err != nil {
		panic("sim: " + err.Error())
	}
	return d
}

// Scenario describes one run.
type Scenario struct {
	Name     string
	Graph    *graph.Graph
	Corrupt  *core.CorruptOptions // nil = clean initial configuration
	Daemon   DaemonKind
	Seed     int64
	Workload workload.Workload
	MaxSteps int               // safety cap; 0 = 10 million
	NoRA     bool              // skip per-step routing-correctness probing (faster)
	Policy   core.ChoicePolicy // choice_p(d) policy (default: the paper's FIFO queue)

	// Ctx, when non-nil, aborts the run early when cancelled; the check
	// is amortized (every few hundred steps), so cancellation is prompt
	// but not exact. Result.Interrupted reports an abort.
	Ctx context.Context

	// SelfCheck forces the engine's differential self-check on for this
	// run. False leaves the engine's default (on under `go test`, off
	// otherwise).
	SelfCheck bool

	// Monitors are invariant probes evaluated on the configuration before
	// every step (and once at the end); the first error aborts the run and
	// is reported in Result.MonitorErr. MonitorEvery thins the probing to
	// every k-th step (0 or 1 = every step) for expensive monitors.
	Monitors     []Monitor
	MonitorEvery int

	// TraceOut, when non-nil, streams the run as a schema-versioned JSONL
	// trace: one header line (topology, initial configuration, TraceDest as
	// the focus destination) followed by every typed obs event. The stream
	// is replayable with trace.ReplayFrames / ssmfp-trace -replay as long
	// as the run injects no faults.
	TraceOut  io.Writer
	TraceDest graph.ProcessID

	// OnStatus, when non-nil, receives a progress snapshot every
	// StatusEvery steps (default 1000) and once at the end — the hook the
	// CLIs' -http endpoint polls for live introspection.
	OnStatus    func(Status)
	StatusEvery int
}

// Status is a point-in-time snapshot of a running scenario.
type Status struct {
	Name      string         `json:"name"`
	Steps     int            `json:"steps"`
	Rounds    int            `json:"rounds"`
	Generated int            `json:"generated"`
	Delivered int            `json:"delivered"`
	Moves     map[string]int `json:"moves"`
	Stats     sm.Stats       `json:"stats"`
}

// Monitor is a named per-step invariant: it receives the engine's current
// configuration and returns an error when the invariant is violated. The
// configuration is the engine's live one, valid only during the call: a
// monitor that keeps it must clone its states.
type Monitor struct {
	Name  string
	Check func(g *graph.Graph, cfg []sm.State) error
}

// WellTypedMonitor checks the §3.2 domain invariants.
func WellTypedMonitor() Monitor {
	return Monitor{Name: "well-typed", Check: checker.WellTyped}
}

// Result summarizes one run.
type Result struct {
	Name     string
	Steps    int
	Rounds   int
	Terminal bool

	Generated        int
	DeliveredValid   int
	InvalidDelivered int
	MaxInvalidPerDst int
	Violations       []string
	Lost             []uint64

	// MovesByRule aggregates move counts by base rule name (R1..R6, A).
	MovesByRule map[string]int

	// RoutingRounds is the observed stabilization time of A in rounds
	// (rounds until every table is canonical); -1 when not measured.
	RoutingRounds int

	// LatencyRounds summarizes generation→delivery latencies of valid
	// messages in rounds.
	LatencyRounds metrics.Summary

	// DeliveryRounds holds the round index of every delivery, in order —
	// the raw series behind the amortized analysis (Proposition 7).
	DeliveryRounds []int

	// GenRoundsBySource holds, per source, the rounds of its R1 executions
	// — the raw series behind delay/waiting time (Proposition 6).
	GenRoundsBySource map[graph.ProcessID][]int

	// MonitorErr is the first invariant violation a Monitor reported, if
	// any (it also aborts the run).
	MonitorErr error

	// Interrupted reports that Scenario.Ctx was cancelled mid-run.
	Interrupted bool

	// Stats holds the engine's enabled-set instrumentation counters.
	Stats sm.Stats

	// Lifecycle is the checker's per-message lifecycle report: every
	// generated message's timeline and the Props. 5–7 summaries.
	Lifecycle checker.Report

	// TraceEvents and TraceErr report on the JSONL sink
	// (Scenario.TraceOut): events written and the sink's sticky error.
	TraceEvents int
	TraceErr    error
}

// OK reports whether the run satisfied Specification SP: terminated, no
// violations, everything generated was delivered, no monitor tripped.
func (r Result) OK() bool {
	return r.Terminal && len(r.Violations) == 0 && len(r.Lost) == 0 &&
		r.Generated == r.DeliveredValid && r.MonitorErr == nil
}

// String renders a one-line summary.
func (r Result) String() string {
	status := "OK"
	if !r.OK() {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: %s steps=%d rounds=%d gen=%d dlv=%d inv=%d",
		r.Name, status, r.Steps, r.Rounds, r.Generated, r.DeliveredValid, r.InvalidDelivered)
}

// BaseRule strips the destination suffix from a rule instance name
// ("R3@5" → "R3", "A@2" → "A").
func BaseRule(name string) string {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i]
	}
	return name
}

// Run executes the scenario and collects the result.
func Run(s Scenario) Result {
	g := s.Graph
	rng := rand.New(rand.NewSource(s.Seed))
	var cfg []sm.State
	if s.Corrupt == nil {
		cfg = core.CleanConfig(g)
	} else {
		cfg = core.RandomConfig(g, rng, *s.Corrupt)
	}
	var eopts []sm.EngineOption
	if s.SelfCheck {
		eopts = append(eopts, sm.WithSelfCheck(true))
	}
	e := sm.NewEngine(g, core.FullProgramWithPolicy(g, s.Policy), NewDaemon(s.Daemon, s.Seed, g.N()), cfg, eopts...)
	tr := checker.New(g)
	tr.Attach(e)
	in := workload.NewInjector(s.Workload, func(st sm.State) workload.Enqueuer { return st.(*core.Node).FW })

	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10_000_000
	}
	res := Result{Name: s.Name, RoutingRounds: -1}

	// The JSONL sink subscribes before the first step, next to the
	// checker, so the trace covers the whole run.
	var sink *obs.Sink
	if s.TraceOut != nil {
		var err error
		sink, err = obs.NewSink(s.TraceOut, trace.HeaderFor(g, nil, cfg, s.Name, s.TraceDest))
		if err != nil {
			res.TraceErr = err
		} else {
			e.Subscribe(sink.Observe)
		}
	}
	statusEvery := s.StatusEvery
	if statusEvery < 1 {
		statusEvery = 1000
	}
	status := func() {
		if s.OnStatus == nil {
			return
		}
		st := Status{
			Name: s.Name, Steps: e.Steps(), Rounds: e.Rounds(),
			Generated: tr.GeneratedCount(), Delivered: tr.DeliveredValid(),
			Moves: e.MoveCounts(), Stats: e.Stats(),
		}
		s.OnStatus(st)
	}
	every := s.MonitorEvery
	if every < 1 {
		every = 1
	}
	probe := func() bool {
		if len(s.Monitors) == 0 {
			return true
		}
		cfg := make([]sm.State, g.N()) // live: checked before the next step
		for p := 0; p < g.N(); p++ {
			cfg[p] = e.PeekStateOf(graph.ProcessID(p))
		}
		for _, m := range s.Monitors {
			if err := m.Check(g, cfg); err != nil {
				res.MonitorErr = fmt.Errorf("monitor %s at step %d: %w", m.Name, e.Steps(), err)
				return false
			}
		}
		return true
	}
	for e.Steps() < maxSteps {
		if s.Ctx != nil && e.Steps()%256 == 0 && s.Ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		in.Tick(e)
		if res.RoutingRounds < 0 && !s.NoRA && routingCorrect(g, e) {
			res.RoutingRounds = e.Rounds()
			e.Publish(obs.Event{Kind: obs.KindStabilized, Step: e.Steps(), Round: e.Rounds()})
		}
		if s.OnStatus != nil && e.Steps()%statusEvery == 0 {
			status()
		}
		if e.Steps()%every == 0 && !probe() {
			break
		}
		if !e.Step() {
			if in.Done() {
				res.Terminal = true
				break
			}
			// Quiescent but sends remain scheduled for later: the engine's
			// clock only advances on steps, so skip the idle wait.
			in.SkipWait(e)
		}
	}
	if res.MonitorErr == nil {
		probe()
	}
	res.Steps = e.Steps()
	res.Rounds = e.Rounds()
	if !res.Terminal {
		res.Terminal = e.Terminal()
	}

	res.Generated = tr.GeneratedCount()
	res.DeliveredValid = tr.DeliveredValid()
	res.InvalidDelivered = tr.InvalidDeliveredTotal()
	for _, c := range tr.InvalidDeliveredPerDest() {
		if c > res.MaxInvalidPerDst {
			res.MaxInvalidPerDst = c
		}
	}
	res.Violations = tr.Violations()
	res.Lost = tr.UndeliveredValid()

	res.MovesByRule = make(map[string]int)
	for name, c := range e.MoveCounts() {
		res.MovesByRule[BaseRule(name)] += c
	}
	var lats []float64
	for _, l := range tr.LatencyRounds() {
		lats = append(lats, float64(l))
	}
	res.LatencyRounds = metrics.Summarize(lats)
	for _, d := range tr.Deliveries() {
		res.DeliveryRounds = append(res.DeliveryRounds, d.Round)
	}
	res.GenRoundsBySource = tr.GenerationRoundsBySource()
	res.Stats = e.Stats()
	res.Lifecycle = tr.Report()
	if sink != nil {
		res.TraceEvents = sink.Events()
		res.TraceErr = sink.Flush()
	}
	status()
	return res
}

// routingCorrect probes whether every routing table is canonical.
func routingCorrect(g *graph.Graph, e *sm.Engine) bool {
	for p := 0; p < g.N(); p++ {
		if !routing.Correct(g, graph.ProcessID(p), e.PeekStateOf(graph.ProcessID(p)).(*core.Node).RT) {
			return false
		}
	}
	return true
}
