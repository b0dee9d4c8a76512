// Command ssmfp-sim runs one SSMFP scenario in the state model and prints
// the outcome: specification verdict, step/round counts, per-rule move
// breakdown, latency statistics, and routing-stabilization time.
//
// Usage:
//
//	ssmfp-sim [-topology line|ring|star|grid|torus|hypercube|complete|tree|random]
//	          [-n 8] [-daemon synchronous|central-random|central-round-robin|distributed-random|weakly-fair-lifo]
//	          [-corrupt] [-messages 10] [-pattern random|all-to-one|one-to-all|all-to-all|permutation]
//	          [-workload-file trace.txt] [-seed 1] [-max-steps 10000000]
//	          [-paranoid] [-v]
//	          [-trace-out run.jsonl] [-trace-dest 0] [-metrics-out lifecycle.json] [-http 127.0.0.1:0]
//
// -trace-out streams the run as a JSONL event trace (replayable with
// ssmfp-trace -replay when no faults are injected); -metrics-out writes the
// per-message lifecycle report as JSON; -http serves expvar, pprof and a
// JSON status snapshot under /debug while the run executes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/obs"
	"ssmfp/internal/sim"
	"ssmfp/internal/workload"
)

func main() {
	topology := flag.String("topology", "grid", "network family")
	n := flag.Int("n", 9, "number of processors (grids/tori use the nearest square)")
	daemonKind := flag.String("daemon", "synchronous", "scheduler")
	policy := flag.String("policy", "fifo-queue", "choice_p(d) policy (fifo-queue, rotating, lowest-id)")
	corrupt := flag.Bool("corrupt", false, "start from a fully corrupted configuration")
	messages := flag.Int("messages", 10, "number of messages for random/pair patterns")
	pattern := flag.String("pattern", "random", "traffic pattern")
	workloadFile := flag.String("workload-file", "", "replay sends from a file ('src dest payload [atStep]' per line; overrides -pattern)")
	seed := flag.Int64("seed", 1, "random seed")
	maxSteps := flag.Int("max-steps", 10_000_000, "step cap")
	verbose := flag.Bool("v", false, "print per-rule move counts and engine stats")
	paranoid := flag.Bool("paranoid", false, "cross-check the incremental enabled set against a naive rescan every step")
	traceOut := flag.String("trace-out", "", "write the run as a JSONL event trace to this file")
	traceDest := flag.Int("trace-dest", 0, "focus destination recorded in the trace header")
	metricsOut := flag.String("metrics-out", "", "write the per-message lifecycle report (JSON) to this file")
	httpAddr := flag.String("http", "", "serve /debug/vars, /debug/pprof and /debug/ssmfp on this address during the run")
	flag.Parse()
	g, err := buildTopology(*topology, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*seed))
	var w workload.Workload
	if *workloadFile != "" {
		f, err := os.Open(*workloadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
			os.Exit(2)
		}
		w, err = workload.Parse(f, g)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
			os.Exit(2)
		}
	} else {
		var err error
		w, err = buildWorkload(*pattern, g, *messages, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
			os.Exit(2)
		}
	}

	sc := sim.Scenario{
		Name:      fmt.Sprintf("%s-%d", *topology, g.N()),
		Graph:     g,
		Daemon:    sim.DaemonKind(*daemonKind),
		Seed:      *seed,
		Workload:  w,
		MaxSteps:  *maxSteps,
		SelfCheck: *paranoid,
	}
	if sc.Policy, err = core.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
		os.Exit(2)
	}
	if _, err := daemon.New(*daemonKind, *seed, g.N()); err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
		os.Exit(2)
	}
	if *corrupt {
		c := core.DefaultCorrupt
		sc.Corrupt = &c
	}

	var traceFile *os.File
	if *traceOut != "" {
		if *traceDest < 0 || *traceDest >= g.N() {
			fmt.Fprintf(os.Stderr, "ssmfp-sim: -trace-dest %d out of range [0,%d)\n", *traceDest, g.N())
			os.Exit(2)
		}
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
			os.Exit(2)
		}
		sc.TraceOut = traceFile
		sc.TraceDest = graph.ProcessID(*traceDest)
	}
	var lastStatus atomic.Pointer[sim.Status]
	if *httpAddr != "" {
		sc.OnStatus = func(st sim.Status) { lastStatus.Store(&st) }
		srv, err := obs.Serve(*httpAddr, func() any { return lastStatus.Load() })
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ssmfp-sim: debug endpoints on http://%s/debug/\n", srv.Addr())
	}

	r := sim.Run(sc)

	if traceFile != nil {
		if r.TraceErr != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim: trace:", r.TraceErr)
			os.Exit(2)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim: trace:", err)
			os.Exit(2)
		}
		fmt.Printf("trace     : %d events -> %s\n", r.TraceEvents, *traceOut)
	}
	if *metricsOut != "" {
		data, err := json.MarshalIndent(r.Lifecycle, "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-sim: metrics:", err)
			os.Exit(2)
		}
		rep := r.Lifecycle
		fmt.Printf("lifecycle : %d messages, %d delivered; delivery mean %.1f / delay mean %.1f / waiting mean %.1f rounds -> %s\n",
			rep.Messages, rep.Delivered, rep.DeliveryRounds.Mean, rep.DelayRounds.Mean, rep.WaitingRounds.Mean, *metricsOut)
	}

	fmt.Printf("network   : %v\n", g)
	fmt.Printf("daemon    : %s\n", *daemonKind)
	fmt.Printf("corrupt   : %v\n", *corrupt)
	fmt.Printf("workload  : %s (%s)\n", *pattern, w)
	fmt.Printf("steps     : %d (rounds %d)\n", r.Steps, r.Rounds)
	if r.RoutingRounds >= 0 {
		fmt.Printf("A silent  : after %d rounds\n", r.RoutingRounds)
	}
	fmt.Printf("generated : %d, delivered %d valid + %d invalid\n",
		r.Generated, r.DeliveredValid, r.InvalidDelivered)
	if r.LatencyRounds.N > 0 {
		fmt.Printf("latency   : mean %.1f / p90 %.0f / max %.0f rounds\n",
			r.LatencyRounds.Mean, r.LatencyRounds.P90, r.LatencyRounds.Max)
	}
	if *verbose {
		t := metrics.NewTable("moves by rule", "rule", "count")
		var rules []string
		for rule := range r.MovesByRule {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			t.AddRow(rule, r.MovesByRule[rule])
		}
		fmt.Print(t)
		st := r.Stats
		fmt.Printf("engine    : %d guard evals in %d full scans + %d flushes (procs: %d evaluated, %d cached; %d self-checks)\n",
			st.GuardEvals, st.FullScans, st.Flushes, st.ProcsEvaluated, st.ProcsSkipped, st.SelfChecks)
	}
	if r.OK() {
		fmt.Println("verdict   : SP satisfied — every generated message delivered exactly once")
		return
	}
	fmt.Println("verdict   : SP VIOLATED")
	for _, v := range r.Violations {
		fmt.Println("  -", v)
	}
	if len(r.Lost) > 0 {
		fmt.Printf("  - %d messages undelivered\n", len(r.Lost))
	}
	os.Exit(1)
}

func buildTopology(kind string, n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("need n >= 2, got %d", n)
	}
	switch kind {
	case "line":
		return graph.Line(n), nil
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("ring needs n >= 3")
		}
		return graph.Ring(n), nil
	case "star":
		return graph.Star(n), nil
	case "complete":
		return graph.Complete(n), nil
	case "tree":
		return graph.BinaryTree(n), nil
	case "grid":
		side := isqrt(n)
		return graph.Grid(side, (n+side-1)/side), nil
	case "torus":
		side := isqrt(n)
		if side < 3 {
			side = 3
		}
		return graph.Torus(side, side), nil
	case "hypercube":
		dim := 1
		for 1<<dim < n {
			dim++
		}
		return graph.Hypercube(dim), nil
	case "random":
		return graph.RandomConnected(n, 2*n, rand.New(rand.NewSource(int64(n)))), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func buildWorkload(pattern string, g *graph.Graph, k int, rng *rand.Rand) (workload.Workload, error) {
	switch pattern {
	case "random":
		return workload.RandomPairs(g, k, rng), nil
	case "all-to-one":
		return workload.AllToOne(g, 0, max(1, k/g.N())), nil
	case "one-to-all":
		return workload.OneToAll(g, 0, max(1, k/g.N())), nil
	case "all-to-all":
		return workload.AllToAll(g, 1), nil
	case "permutation":
		return workload.Permutation(g, rng), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
}
