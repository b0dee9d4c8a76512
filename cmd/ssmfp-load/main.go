// ssmfp-load drives open- or closed-loop traffic through a live SSMFP
// deployment and reports latency quantiles, achieved throughput, queue
// gauges and the exactly-once verdict as a versioned JSON report
// (ssmfp-load-report/v1) that `ssmfp-bench compare` can gate on.
//
//	# one open-loop step: 2000 msg/s Poisson over a 4x4 grid
//	ssmfp-load -topology grid -rows 4 -cols 4 -rate 2000 -messages 2000
//
//	# closed-loop with 4 outstanding per source, over a lossy wire
//	ssmfp-load -topology ring -n 8 -driver closed -outstanding 4 -loss 0.05
//
//	# saturation sweep: step the offered rate geometrically, find the knee
//	ssmfp-load -topology grid -rows 4 -cols 4 -sweep -json report.json
//
// The process exits nonzero if any step violates exactly-once delivery
// or delivers nothing at all, so it doubles as a smoke gate in CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

type config struct {
	topology   string
	rows, cols int
	n          int
	edges      int

	driver      string
	arrival     string
	rate        float64
	outstanding int
	messages    int
	warmup      int
	seed        int64
	drain       time.Duration
	tick        time.Duration

	loss      float64
	dup       float64
	latency   time.Duration
	jitter    time.Duration
	bandwidth int
	netTick   time.Duration

	sweep      bool
	sweepStart float64
	sweepGrow  float64
	sweepSteps int
	kneeRatio  float64

	jsonPath string
	progress bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.topology, "topology", "grid", "topology: line, ring, star, complete, grid, random")
	flag.IntVar(&cfg.rows, "rows", 4, "grid rows")
	flag.IntVar(&cfg.cols, "cols", 4, "grid cols")
	flag.IntVar(&cfg.n, "n", 8, "processor count for non-grid topologies")
	flag.IntVar(&cfg.edges, "edges", 0, "extra edges beyond the spanning tree for -topology random (default n/2)")
	flag.StringVar(&cfg.driver, "driver", "open", "traffic driver: open (schedule-driven) or closed (window-driven)")
	flag.StringVar(&cfg.arrival, "arrival", "poisson", "open-loop arrival process: poisson or constant")
	flag.Float64Var(&cfg.rate, "rate", 1000, "open-loop offered rate, messages/second")
	flag.IntVar(&cfg.outstanding, "outstanding", 4, "closed-loop window per source")
	flag.IntVar(&cfg.messages, "messages", 1000, "messages per step")
	flag.IntVar(&cfg.warmup, "warmup", 64, "untracked warmup messages before each measured step")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the injection plan and protocol randomness")
	flag.DurationVar(&cfg.drain, "drain-timeout", 60*time.Second, "wait this long for stragglers after injection")
	flag.DurationVar(&cfg.tick, "tick", 0, "period of the -progress load-tick lines on stderr (default 500ms) and of queue-depth sampling (default 25ms)")
	flag.Float64Var(&cfg.loss, "loss", 0, "chaos: drop each frame with this probability")
	flag.Float64Var(&cfg.dup, "dup", 0, "chaos: duplicate each frame with this probability")
	flag.DurationVar(&cfg.latency, "latency", 0, "chaos: base one-way frame delay")
	flag.DurationVar(&cfg.jitter, "jitter", 0, "chaos: extra uniform per-frame delay")
	flag.IntVar(&cfg.bandwidth, "bandwidth", 0, "chaos: per-link line rate in bytes/second (0 = unlimited)")
	flag.DurationVar(&cfg.netTick, "net-tick", 0, "base unit of the protocol's gossip and retransmission deadlines (default 200µs)")
	flag.BoolVar(&cfg.sweep, "sweep", false, "step the offered rate up a geometric ladder and locate the saturation knee")
	flag.Float64Var(&cfg.sweepStart, "sweep-start", 500, "sweep: first offered rate")
	flag.Float64Var(&cfg.sweepGrow, "sweep-factor", 2, "sweep: rate multiplier between steps")
	flag.IntVar(&cfg.sweepSteps, "sweep-steps", 6, "sweep: number of rate steps")
	flag.Float64Var(&cfg.kneeRatio, "knee-ratio", 0.9, "sweep: goodput ratio defining the saturation knee")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the report to this file ('-' for stdout)")
	flag.BoolVar(&cfg.progress, "progress", false, "print live progress lines to stderr")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ssmfp-load: %v\n", err)
		os.Exit(1)
	}
}

// buildTopology resolves the topology flags to a graph and its label.
func buildTopology(cfg config) (*graph.Graph, string, error) {
	switch cfg.topology {
	case "grid":
		return graph.Grid(cfg.rows, cfg.cols), fmt.Sprintf("grid-%dx%d", cfg.rows, cfg.cols), nil
	case "line":
		return graph.Line(cfg.n), fmt.Sprintf("line-%d", cfg.n), nil
	case "ring":
		return graph.Ring(cfg.n), fmt.Sprintf("ring-%d", cfg.n), nil
	case "star":
		return graph.Star(cfg.n), fmt.Sprintf("star-%d", cfg.n), nil
	case "complete":
		return graph.Complete(cfg.n), fmt.Sprintf("complete-%d", cfg.n), nil
	case "random":
		m := cfg.edges
		if m <= 0 {
			m = cfg.n / 2
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		return graph.RandomConnected(cfg.n, m, rng), fmt.Sprintf("random-%d+%d", cfg.n, m), nil
	default:
		return nil, "", fmt.Errorf("unknown -topology %q", cfg.topology)
	}
}

func run(cfg config) error {
	g, label, err := buildTopology(cfg)
	if err != nil {
		return err
	}
	var progress io.Writer
	if cfg.progress {
		progress = os.Stderr
		if cfg.tick <= 0 {
			cfg.tick = 500 * time.Millisecond
		}
	}

	base := load.Config{
		Driver:       cfg.driver,
		Arrival:      cfg.arrival,
		Rate:         cfg.rate,
		Outstanding:  cfg.outstanding,
		Messages:     cfg.messages,
		Warmup:       cfg.warmup,
		Seed:         cfg.seed,
		DrainTimeout: cfg.drain,
		TickEvery:    cfg.tick,
		Progress:     progress,
	}
	factory := func(step int) (load.Network, *load.Hook, func(), error) {
		hook := &load.Hook{}
		seed := cfg.seed + int64(step)
		tr := transport.Impair(transport.NewChan(g, transport.DefaultDepth), transport.ChaosOptions{
			Seed:         seed,
			LossRate:     cfg.loss,
			DupRate:      cfg.dup,
			Latency:      cfg.latency,
			Jitter:       cfg.jitter,
			BandwidthBps: cfg.bandwidth,
		})
		nw := msgpass.New(g, msgpass.Options{
			Seed:      seed,
			Tick:      cfg.netTick,
			Transport: tr,
			OnDeliver: hook.OnDeliver,
			// Nodes stamp R1-queue and park waits into the payload tag's
			// hold slot so the collector can attribute end-to-end latency.
			HoldStamp: load.AddHold,
			// The collector is the only consumer of deliveries; skipping
			// the network's own delivery log keeps the measured path free
			// of per-delivery allocations.
			DiscardDeliveries: true,
		})
		nw.Start()
		return nw, hook, func() { nw.Stop(); tr.Close() }, nil
	}

	var rep *load.Report
	if cfg.sweep {
		rep, err = load.Sweep(label, g, factory, load.SweepConfig{
			Base:      base,
			Start:     cfg.sweepStart,
			Factor:    cfg.sweepGrow,
			Steps:     cfg.sweepSteps,
			KneeRatio: cfg.kneeRatio,
		})
		if err != nil {
			return err
		}
	} else {
		start := time.Now()
		nw, hook, closeFn, _ := factory(0)
		step, err := load.Run(nw, g, hook, base)
		closeFn()
		if err != nil {
			return err
		}
		rep = load.NewReport(label, base, false, []load.StepReport{step})
		rep.Run = load.NewRunInfo(start)
	}

	if err := emit(rep, cfg.jsonPath); err != nil {
		return err
	}
	summarize(rep)
	if !rep.ExactlyOnce {
		return fmt.Errorf("exactly-once verdict: FAIL")
	}
	for i, s := range rep.Steps {
		if s.Hist == nil || s.Hist.Count() == 0 {
			return fmt.Errorf("step %d delivered nothing (empty latency histogram)", i)
		}
	}
	return nil
}

func emit(rep *load.Report, path string) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		b, err := rep.Marshal()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	return rep.WriteFile(path)
}

// summarize prints the human-readable digest to stderr (stdout stays
// clean for -json -).
func summarize(rep *load.Report) {
	for _, s := range rep.Steps {
		fmt.Fprintf(os.Stderr,
			"step %d: offered %.0f/s achieved %.0f/s goodput %.2f p50 %v p99 %v exactly-once %v\n",
			s.Step, s.OfferedRate, s.AchievedRate, s.GoodputRatio,
			time.Duration(s.Latency.P50NS), time.Duration(s.Latency.P99NS), s.ExactlyOnce)
	}
	if rep.Sweep {
		knee := "no knee below the ladder top"
		if rep.Saturated {
			knee = fmt.Sprintf("knee at step %d (%.0f msg/s offered)", rep.KneeStep, rep.KneeRate)
		}
		fmt.Fprintf(os.Stderr, "%s: %s, max achieved %.0f msg/s\n", rep.Topology, knee, rep.MaxAchieved)
	}
	// One-line telemetry digest of the most telling step: peak buffer
	// occupancy, congestion parks, and where the latency went.
	if s := telemetryStep(rep); s != nil {
		line := fmt.Sprintf("telemetry step %d: peak bufR %d, parked peak %d, park events %d",
			s.Step, s.Queues.PeakBufR, s.Queues.PeakParked, s.Queues.ParkEvents)
		if a := s.Attribution; a != nil {
			total := a.Hold.MeanNS + a.Wire.MeanNS + a.Deliver.MeanNS
			if total > 0 {
				line += fmt.Sprintf(", latency split hold %.0f%% wire %.0f%% deliver %.0f%%",
					100*a.Hold.MeanNS/total, 100*a.Wire.MeanNS/total, 100*a.Deliver.MeanNS/total)
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// telemetryStep picks the step the telemetry digest should describe: the
// sweep's knee rung, or the only step of a single run.
func telemetryStep(rep *load.Report) *load.StepReport {
	if len(rep.Steps) == 0 {
		return nil
	}
	i := 0
	if rep.Sweep && rep.KneeStep < len(rep.Steps) {
		i = rep.KneeStep
	}
	return &rep.Steps[i]
}
