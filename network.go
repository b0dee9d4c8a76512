package ssmfp

import (
	"fmt"
	"math/rand"
	"strings"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// Network is a state-model deployment of SSMFP composed with the
// self-stabilizing routing algorithm A: the exact system the paper proves
// snap-stabilizing. Create one with NewNetwork, inject traffic with Send,
// and drive it with Step or Run; the built-in oracle verifies
// Specification SP (exactly-once delivery of every generated message) as
// the execution unfolds.
type Network struct {
	g       *graph.Graph
	engine  *sm.Engine
	tracker *checker.Tracker
	opts    options
	ran     bool
}

type options struct {
	seed        int64
	daemonKind  string
	corrupt     *core.CorruptOptions
	maxSteps    int
	policy      core.ChoicePolicy
	subscribers []func(Delivery)
}

// Option configures NewNetwork.
type Option func(*options)

// WithSeed fixes the randomness of daemon and corruption (default 1).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithDaemon selects the scheduler: "synchronous" (default),
// "central-random", "central-round-robin", "distributed-random", or
// "weakly-fair-lifo" (the adversarial-but-fair daemon of the proofs).
func WithDaemon(kind string) Option { return func(o *options) { o.daemonKind = kind } }

// WithCorruptStart starts from a fully adversarial initial configuration:
// corrupted routing tables, invalid messages in buffers, scrambled
// queues and phantom requests — the snap-stabilization starting point.
func WithCorruptStart(seed int64) Option {
	return func(o *options) {
		o.seed = seed
		c := core.DefaultCorrupt
		o.corrupt = &c
	}
}

// WithMaxSteps caps Run (default 10 million steps).
func WithMaxSteps(n int) Option { return func(o *options) { o.maxSteps = n } }

// WithChoicePolicy selects the implementation of the choice_p(d) fairness
// macro: "fifo-queue" (the paper's scheme, default), "rotating" (round
// robin, also fair), or "lowest-id" (unfair — starves under sustained
// load; provided for the E-X5 ablation).
func WithChoicePolicy(name string) Option {
	return func(o *options) {
		p, err := core.ParsePolicy(name)
		if err != nil {
			panic("ssmfp: " + err.Error())
		}
		o.policy = p
	}
}

// Delivery is one message handed to the higher layer at its destination.
type Delivery struct {
	Payload string
	From    ProcessID
	To      ProcessID
	Valid   bool // false for garbage present in the initial configuration
	Step    int
	Round   int
}

// OnDeliver registers a callback invoked at every delivery.
func WithDeliveryHandler(fn func(Delivery)) Option {
	return func(o *options) { o.subscribers = append(o.subscribers, fn) }
}

// NewNetwork builds the composed system on t.
func NewNetwork(t *Topology, opts ...Option) *Network {
	o := options{seed: 1, daemonKind: "synchronous", maxSteps: 10_000_000}
	for _, fn := range opts {
		fn(&o)
	}
	var cfg []sm.State
	if o.corrupt != nil {
		cfg = core.RandomConfig(t, rand.New(rand.NewSource(o.seed)), *o.corrupt)
	} else {
		cfg = core.CleanConfig(t)
	}
	n := &Network{g: t, opts: o}
	d, err := daemon.New(o.daemonKind, o.seed, t.N())
	if err != nil {
		panic("ssmfp: " + err.Error())
	}
	n.engine = sm.NewEngine(t, core.FullProgramWithPolicy(t, o.policy), d, cfg)
	n.tracker = checker.New(t)
	n.tracker.Attach(n.engine)
	if len(o.subscribers) > 0 {
		n.engine.Subscribe(func(ev sm.Event) {
			if ev.Kind != obs.KindDeliver {
				return
			}
			d := newDelivery((*core.Message)(ev.Msg), ev.Proc, ev.Step, ev.Round)
			for _, fn := range o.subscribers {
				fn(d)
			}
		})
	}
	return n
}

// Send registers a higher-layer send request at src. It may be called
// before or between steps — the paper's request-bit interface accepts new
// messages at any time, including while routing tables are still corrupt.
func (n *Network) Send(src, dst ProcessID, payload string) {
	n.checkID(src)
	n.checkID(dst)
	n.engine.StateOf(src).(*core.Node).FW.Enqueue(payload, dst)
}

func (n *Network) checkID(p ProcessID) {
	if p < 0 || int(p) >= n.g.N() {
		panic(fmt.Sprintf("ssmfp: processor %d out of range [0,%d)", p, n.g.N()))
	}
}

// Step executes one atomic step of the state model; it returns false on a
// terminal configuration.
func (n *Network) Step() bool { return n.engine.Step() }

// Run drives the system until it is quiescent (every message delivered,
// all buffers empty, routing silent) or the step cap is hit, and returns
// the report.
func (n *Network) Run() Report {
	n.engine.Run(n.opts.maxSteps, nil)
	n.ran = true
	return n.Report()
}

// Report summarizes the execution so far at any point.
func (n *Network) Report() Report {
	return Report{
		Steps:            n.engine.Steps(),
		Rounds:           n.engine.Rounds(),
		Quiescent:        n.engine.Terminal(),
		Generated:        n.tracker.GeneratedCount(),
		Delivered:        n.tracker.DeliveredValid(),
		InvalidDelivered: n.tracker.InvalidDeliveredTotal(),
		Compromised:      n.tracker.Compromised(),
		Violations:       n.tracker.Violations(),
		Undelivered:      len(n.tracker.UndeliveredValid()),
	}
}

// Deliveries lists every delivery so far, in order.
func (n *Network) Deliveries() []Delivery {
	var out []Delivery
	for _, d := range n.tracker.Deliveries() {
		out = append(out, newDelivery(d.Msg, d.At, d.Step, d.Round))
	}
	return out
}

// newDelivery is the one place a Delivery is built, for Deliveries and
// for the delivery handlers alike.
func newDelivery(m *core.Message, at ProcessID, step, round int) Delivery {
	return Delivery{Payload: m.Payload, From: m.Src, To: at, Valid: m.Valid, Step: step, Round: round}
}

// Report is the outcome summary of a Network execution.
type Report struct {
	Steps            int
	Rounds           int
	Quiescent        bool
	Generated        int // messages accepted from the higher layer (R1)
	Delivered        int // distinct valid messages delivered
	Undelivered      int // generated but not delivered (0 on a finished run)
	InvalidDelivered int // initial-configuration garbage handed up (≤ 2n per destination)
	Compromised      int // messages exempted because an injected fault touched them
	Violations       []string
}

// OK reports whether Specification SP held: the system is quiescent, no
// violation (loss, duplication, misdelivery) was observed, and every
// generated message not exempted by an injected fault was delivered.
func (r Report) OK() bool {
	return r.Quiescent && len(r.Violations) == 0 && r.Undelivered == 0 &&
		r.Delivered+r.Compromised >= r.Generated
}

// String renders a human-readable summary.
func (r Report) String() string {
	var sb strings.Builder
	status := "SP satisfied"
	if !r.OK() {
		status = "SP VIOLATED"
	}
	fmt.Fprintf(&sb, "%s: %d/%d valid messages delivered exactly once in %d steps (%d rounds)",
		status, r.Delivered, r.Generated, r.Steps, r.Rounds)
	if r.InvalidDelivered > 0 {
		fmt.Fprintf(&sb, "; %d invalid initial messages surfaced", r.InvalidDelivered)
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&sb, "; violations: %s", strings.Join(r.Violations, "; "))
	}
	return sb.String()
}
