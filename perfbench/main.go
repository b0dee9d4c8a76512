// Command perfbench is the repository benchmark. It drives the two
// drivers of the SSMFP forwarding rules from outside, through their public
// functions — the live message-passing network (msgpass over transport)
// and the state-model engine (statemodel + core + routing + checker) —
// checks every run for exactly-once delivery, and prints one line per
// metric followed by a JSON result line:
//
//	bash perfbench/run.sh --workload chan-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the workload twice (untraced, then traced with spans recorded at
// every layer boundary the benchmark crosses), reports the per-layer
// metrics and the tracing overhead, and writes the spans under --out.
// The process exits 1 on any correctness violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric. The tables below are the contract
// BENCHMARK.json repeats (TestBenchmarkJSONMatchesTables keeps the two in
// step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the network sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_msgs_per_s", "msgs/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_msg", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per layer a message
// crosses, each commented with the end-to-end metric it should move and
// on which workload. A metric of a layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"load.send_ns_mean", "ns"},       // goodput on chan-dense
	{"load.latency_samples", "count"}, // the samples behind each quantile
	// cpu_us_per_msg on chan-dense (and tcp-dense):
	{"msgpass.offers_per_msg", "frames/msg"},
	{"msgpass.accepts_per_msg", "frames/msg"},
	{"msgpass.dv_per_msg", "frames/msg"},
	{"msgpass.cancels_per_msg", "frames/msg"},
	{"msgpass.offer_useful_ratio", "ratio"},      // goodput on the live workloads
	{"msgpass.retransmits_per_msg", "count/msg"}, // latency_p99 on tcp-dense
	{"msgpass.park_events_per_msg", "count/msg"}, // latency_p50 on chan-dense
	// latency_p50: hold on chan-dense, wire on tcp-dense:
	{"msgpass.hold_us_p50", "us"},
	{"msgpass.deliver_wait_us_p50", "us"},
	{"msgpass.wire_us_p50", "us"},
	// latency_p99 on the live workloads:
	{"msgpass.inbox_peak", "count"},
	{"msgpass.pending_peak", "count"},
	{"msgpass.parked_peak", "count"},
	{"msgpass.idle_cpu_cores", "cores"}, // cpu_us_per_msg on chan-dense
	// cpu_us_per_msg on tcp-dense:
	{"transport.frames_per_msg", "frames/msg"},
	{"transport.bytes_per_msg", "bytes/msg"},
	{"transport.dropped_full_per_msg", "frames/msg"}, // goodput on chan-dense
	{"transport.link_send_ns_mean", "ns"},            // goodput on the live workloads
	// cpu_us_per_msg on tcp-dense only; timed outside the workload over
	// the frames the traced run captured:
	{"transport.codec_encode_ns", "ns"},
	{"transport.codec_decode_ns", "ns"},
	{"transport.redials", "count"}, // must stay 0
	// goodput on engine-corrupt:
	{"statemodel.step_us_mean", "us"},
	{"statemodel.step_us_p99", "us"},
	{"statemodel.guard_evals_per_step", "count"},
	{"statemodel.parallel_moves_share", "ratio"},
	// exact counts of the first execution of engine-corrupt; they move
	// cpu_us_per_msg there and must not move under a pure refactor:
	{"statemodel.steps", "count"},
	{"statemodel.rounds", "count"},
	{"core.moves_per_msg", "count/msg"},
	{"routing.moves", "count"},
	{"core.delay_rounds_p50", "rounds"},
	{"core.invalid_delivered", "count"},
	{"checker.events_per_step", "count"},
	// cpu_us_per_msg and rss_peak_mb, chiefly on engine-corrupt:
	{"runtime.alloc_bytes_per_msg", "bytes/msg"},
	{"runtime.mallocs_per_msg", "count/msg"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.goodput_overhead_frac", "ratio"}, // traced vs untraced goodput
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	outDir  string
	name    string
}

// result is what a workload hands back: metric values by name, the sample
// count behind each (0 = a single measured value), the correctness
// ledger, and free-form report lines.
type result struct {
	values     map[string]float64
	samples    map[string]int
	attempted  int
	failed     int
	violations []string
	notes      []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) violation(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver. BENCHMARK.json gates
// all but tcp-dense (ungated): on a 2-CPU host each loopback-TCP process
// settles in one of two modes about 20% apart in CPU per message, so its
// run-to-run spread is wider than any bound the benchmark may set. It
// stays runnable for its per-layer figures.
var workloads = map[string]func(runConfig) (*result, error){
	"chan-dense":     func(rc runConfig) (*result, error) { return runLive(chanDense, rc) },
	"tcp-dense":      func(rc runConfig) (*result, error) { return runLive(tcpDense, rc) },
	"engine-corrupt": runEngine,
}

func main() {
	workload := flag.String("workload", "", "workload to run: chan-dense, tcp-dense or engine-corrupt")
	seed := flag.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory the traced run writes its spans into")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *traceMode == 1,
		outDir:  *outDir,
		name:    *workload,
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	if err := writeReport(os.Stdout, *workload, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.failed > 0 || len(res.violations) > 0 {
		os.Exit(1)
	}
}

// writeReport prints one human-readable line per metric (with its sample
// count), the notes and violations, and last the JSON result line.
func writeReport(w io.Writer, workload string, res *result, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v := res.values[d.name]
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		samples := ""
		if n := res.samples[d.name]; n > 0 {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "%s %-32s %14.4f %s%s\n", workload, d.name, v, d.unit, samples)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%s %-32s %14.4f frac  (failed %d of %d attempted)\n",
		workload, "failed_frac", failedFrac, res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s note: %s\n", workload, n)
	}
	for _, v := range res.violations {
		fmt.Fprintf(w, "%s VIOLATION: %s\n", workload, v)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
