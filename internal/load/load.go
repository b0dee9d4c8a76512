// Package load is the load-generation subsystem: open- and closed-loop
// traffic drivers that run against a live SSMFP deployment, measure
// per-message latency from the delivery stream, and fold the results into
// mergeable histograms and a versioned report (report.go) that the bench
// comparison gate understands.
//
// The open-loop driver injects messages on a precomputed arrival schedule
// (seeded Poisson or constant rate) and timestamps each message with its
// *scheduled* instant, so backpressure shows up as latency instead of
// being absorbed by a slowed-down generator — the classic coordinated-
// omission trap. The closed-loop driver keeps K messages outstanding per
// source and measures response time. Either way, exactly-once delivery is
// asserted continuously by the Collector while traffic flows, not by a
// post-hoc sweep: the load subsystem is itself an oracle for the
// snap-stabilizing forwarding protocol under stress.
//
// Sweep (sweep.go) steps the offered rate up a fixed geometric ladder to
// locate the saturation knee of a topology. The ladder is part of the
// configuration, so the deterministic section of a sweep report is
// byte-identical across runs of the same seed; the knee itself is a
// wall-clock measurement and lives with the volatile fields.
package load

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/telemetry"
)

// Network is the slice of the live-network surface the drivers need.
// *msgpass.Network implements it; cmd/ssmfp-load builds one per step
// with msgpass.New.
type Network interface {
	Send(src graph.ProcessID, payload string, dst graph.ProcessID) (uint64, error)
	QueueDepths() []msgpass.QueueDepth
}

// telemetrySource is the optional extension a Network may implement to
// hand the driver its metrics registry; *msgpass.Network does. Run uses
// it for the park-event counters in the step report — a Network without
// one just reports zeros there.
type telemetrySource interface {
	Telemetry() *telemetry.Registry
}

// Driver and arrival-process names accepted by Config.
const (
	DriverOpen   = "open"
	DriverClosed = "closed"

	ArrivalPoisson  = "poisson"
	ArrivalConstant = "constant"
)

// Config tunes one load step.
type Config struct {
	// Driver selects open-loop (schedule-driven) or closed-loop (window-
	// driven) injection. Default open.
	Driver string
	// Arrival is the open-loop arrival process: seeded-Poisson
	// (exponential gaps) or constant spacing. Default poisson.
	Arrival string
	// Rate is the open-loop offered rate in messages/second.
	Rate float64
	// Outstanding is the closed-loop window per source. Default 1.
	Outstanding int
	// Messages is the total number of messages to inject. Default 200.
	Messages int
	// Sources are the injecting processors; nil means all of them.
	// Destinations are drawn uniformly from the other processors.
	Sources []graph.ProcessID
	// Seed drives the plan (sources, destinations, arrival gaps). The
	// plan is a pure function of (Seed, topology size, Config), so two
	// runs of the same configuration inject the same traffic.
	Seed int64
	// Warmup messages are injected and awaited before the measured phase:
	// they heat the routing tables, the allocator and the scheduler so
	// the recorded quantiles measure the steady state, not deployment
	// cold start. Excluded from the histogram and the verdict. Default 0.
	Warmup int
	// DrainTimeout bounds the wait for stragglers after the last
	// injection. Default 60s.
	DrainTimeout time.Duration
	// TickEvery, when positive, writes a "load-tick step=<i> sent=<s>
	// delivered=<d>" line to Progress at this period. Queue-depth gauges
	// are sampled on the same ticker (at a default period when TickEvery
	// is zero).
	TickEvery time.Duration
	// Progress, when non-nil, receives the load-tick lines and, at the end
	// of the step, one "load-done rate=<r> sent=<s> delivered=<d> p99=<t>"
	// line.
	Progress io.Writer
	// Step is the step index stamped into the progress lines and the
	// report (a sweep sets it; single runs leave it 0).
	Step int
}

func (c Config) withDefaults() Config {
	if c.Driver == "" {
		c.Driver = DriverOpen
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Outstanding <= 0 {
		c.Outstanding = 1
	}
	if c.Messages <= 0 {
		c.Messages = 200
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	return c
}

func (c Config) validate(g *graph.Graph) error {
	switch c.Driver {
	case DriverOpen:
		if c.Rate <= 0 {
			return fmt.Errorf("load: open-loop driver needs Rate > 0")
		}
	case DriverClosed:
	default:
		return fmt.Errorf("load: unknown driver %q", c.Driver)
	}
	if c.Arrival != ArrivalPoisson && c.Arrival != ArrivalConstant {
		return fmt.Errorf("load: unknown arrival process %q", c.Arrival)
	}
	if g.N() < 2 {
		return fmt.Errorf("load: need at least 2 processors, have %d", g.N())
	}
	for _, s := range c.Sources {
		if int(s) < 0 || int(s) >= g.N() {
			return fmt.Errorf("load: source %d out of range for %d processors", s, g.N())
		}
	}
	return nil
}

// planEntry is one scheduled injection: At is the offset from run start
// (meaningful for the open-loop driver only).
type planEntry struct {
	Src, Dst graph.ProcessID
	At       time.Duration
}

// planSeedSalt decorrelates the plan stream from the protocol's own seed
// usage ("LOAD" in ASCII).
const planSeedSalt = 0x4c4f4144

// buildPlan derives the full injection plan from the configuration alone.
func buildPlan(g *graph.Graph, cfg Config) []planEntry {
	rng := rand.New(rand.NewSource(cfg.Seed ^ planSeedSalt))
	sources := cfg.Sources
	if sources == nil {
		sources = make([]graph.ProcessID, g.N())
		for i := range sources {
			sources[i] = graph.ProcessID(i)
		}
	}
	plan := make([]planEntry, cfg.Messages)
	var at time.Duration
	for i := range plan {
		src := sources[rng.Intn(len(sources))]
		d := graph.ProcessID(rng.Intn(g.N() - 1))
		if d >= src {
			d++
		}
		if cfg.Driver == DriverOpen {
			switch cfg.Arrival {
			case ArrivalConstant:
				at = time.Duration(float64(i) / cfg.Rate * float64(time.Second))
			default: // poisson: cumulative exponential gaps
				at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
			}
		}
		plan[i] = planEntry{Src: src, Dst: d, At: at}
	}
	return plan
}

// Run executes one load step against nw, whose options must route
// deliveries into hook (msgpass.Options.OnDeliver = hook.OnDeliver).
// It returns the step's report; an error means the configuration was
// unusable, not that the step failed its verdict.
func Run(nw Network, g *graph.Graph, hook *Hook, cfg Config) (StepReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(g); err != nil {
		return StepReport{}, err
	}
	plan := buildPlan(g, cfg)
	col := newCollector(plan)
	hook.Attach(col)
	defer hook.Detach()
	warmUp(nw, g, col, cfg)

	// Park-event baseline after warmup: the step reports the delta, so
	// warmup congestion and earlier steps on a shared registry don't leak
	// into this step's counters.
	var reg *telemetry.Registry
	if ts, ok := nw.(telemetrySource); ok {
		reg = ts.Telemetry()
	}
	var parkBase int64
	if reg != nil {
		parkBase, _ = reg.Value(telemetry.SeriesParkEvents)
	}

	var sent atomic.Int64
	var peaks queuePeaks
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		period := cfg.TickEvery
		if period <= 0 {
			period = 25 * time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				peaks.sample(nw.QueueDepths())
				if cfg.TickEvery > 0 && cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "load-tick step=%d sent=%d delivered=%d\n",
						cfg.Step, sent.Load(), col.Delivered())
				}
			}
		}
	}()

	start := time.Now()
	var sendErr error
	if cfg.Driver == DriverOpen {
		sendErr = injectOpen(nw, plan, col, &sent, start)
	} else {
		sendErr = injectClosed(nw, plan, col, &sent, cfg)
	}
	injectNS := time.Since(start).Nanoseconds()

	// Drain: wait for every sent message to land (the protocol guarantees
	// it will; the timeout bounds a broken deployment, and expiring here
	// surfaces as missing-delivery violations in the verdict). The wait is
	// event-driven off the delivery hook — the driver wakes on the final
	// delivery, not on the next poll tick.
	col.waitUntil(func() bool { return col.Delivered() >= int(sent.Load()) },
		time.Now().Add(cfg.DrainTimeout))
	spanNS := time.Since(start).Nanoseconds()
	close(stopTick)
	tickWG.Wait()
	peaks.sample(nw.QueueDepths())
	hook.Detach()

	exactlyOnce, violations := col.finish(int(sent.Load()))
	if sendErr != nil {
		exactlyOnce = false
		violations = append(violations, sendErr.Error())
	}
	var parkEvents int64
	if reg != nil {
		now, _ := reg.Value(telemetry.SeriesParkEvents)
		parkEvents = now - parkBase
	}
	rep := buildStepReport(cfg, plan, col, int(sent.Load()), exactlyOnce, violations, injectNS, spanNS, &peaks, parkEvents)

	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "load-done rate=%.0f sent=%d delivered=%d p99=%s\n",
			cfg.Rate, rep.Sent, rep.Delivered, time.Duration(rep.Latency.P99NS))
	}
	return rep, nil
}

// warmUp floods cfg.Warmup untracked messages round-robin across the
// processors and waits (bounded) for them to land, so the measured phase
// starts against a hot deployment. Send errors are ignored here — the
// measured phase will surface anything real.
func warmUp(nw Network, g *graph.Graph, col *Collector, cfg Config) {
	if cfg.Warmup <= 0 {
		return
	}
	sent := 0
	for i := 0; i < cfg.Warmup; i++ {
		src := graph.ProcessID(i % g.N())
		dst := graph.ProcessID((i + 1 + i/g.N()) % g.N())
		if dst == src {
			dst = (dst + 1) % graph.ProcessID(g.N())
		}
		if _, err := nw.Send(src, fmt.Sprintf("%sw%d", warmupPrefix, i), dst); err == nil {
			sent++
		}
	}
	col.waitUntil(func() bool { return int(col.warm.Load()) >= sent },
		time.Now().Add(5*time.Second))
}

// injectOpen replays the arrival schedule: sleep until each entry's
// scheduled instant (catching up without sleeping when behind — the
// open-loop discipline) and tag it with that instant.
func injectOpen(nw Network, plan []planEntry, col *Collector, sent *atomic.Int64, start time.Time) error {
	for seq, e := range plan {
		sched := start.Add(e.At)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		col.markSent(seq)
		if _, err := nw.Send(e.Src, EncodeTag(seq, e.Src, e.Dst, sched.UnixNano()), e.Dst); err != nil {
			col.unmarkSent(seq)
			return fmt.Errorf("send of seq %d failed: %w", seq, err)
		}
		sent.Add(1)
	}
	return nil
}

// injectClosed runs one goroutine per source, each keeping at most
// cfg.Outstanding messages in flight; the collector's completion callback
// refills the window. Tags carry the actual send instant, so latency is
// response time.
func injectClosed(nw Network, plan []planEntry, col *Collector, sent *atomic.Int64, cfg Config) error {
	perSource := make(map[graph.ProcessID][]int)
	for seq, e := range plan {
		perSource[e.Src] = append(perSource[e.Src], seq)
	}
	refill := make(map[graph.ProcessID]chan struct{}, len(perSource))
	for src, seqs := range perSource {
		refill[src] = make(chan struct{}, len(seqs))
	}
	col.mu.Lock()
	col.onComplete = func(src graph.ProcessID) {
		if ch, ok := refill[src]; ok {
			ch <- struct{}{}
		}
	}
	col.mu.Unlock()

	var wg sync.WaitGroup
	errc := make(chan error, len(perSource))
	for src, seqs := range perSource {
		wg.Add(1)
		go func(src graph.ProcessID, seqs []int) {
			defer wg.Done()
			timeout := time.After(cfg.DrainTimeout)
			inFlight := 0
			for _, seq := range seqs {
				for inFlight >= cfg.Outstanding {
					select {
					case <-refill[src]:
						inFlight--
					case <-timeout:
						errc <- fmt.Errorf("source %d stalled with %d in flight", src, inFlight)
						return
					}
				}
				e := plan[seq]
				col.markSent(seq)
				if _, err := nw.Send(src, EncodeTag(seq, src, e.Dst, time.Now().UnixNano()), e.Dst); err != nil {
					col.unmarkSent(seq)
					errc <- fmt.Errorf("send of seq %d failed: %w", seq, err)
					return
				}
				sent.Add(1)
				inFlight++
			}
		}(src, seqs)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// queuePeaks tracks the high-water marks of the queue gauges across the
// run's samples (deployment-wide maxima, not sums).
type queuePeaks struct {
	mu                                          sync.Mutex
	inbox, pending, bufR, bufE, wireOut, parked int
}

func (p *queuePeaks) sample(depths []msgpass.QueueDepth) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, q := range depths {
		if q.Inbox > p.inbox {
			p.inbox = q.Inbox
		}
		if q.Pending > p.pending {
			p.pending = q.Pending
		}
		if q.BufR > p.bufR {
			p.bufR = q.BufR
		}
		if q.BufE > p.bufE {
			p.bufE = q.BufE
		}
		if q.WireOut > p.wireOut {
			p.wireOut = q.WireOut
		}
		if q.Parked > p.parked {
			p.parked = q.Parked
		}
	}
}
