package load

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ssmfp/internal/metrics"
)

// Schema is the load-report format version. Bump it on any field change
// that is not strictly additive; compare refuses mismatched schemas.
const Schema = "ssmfp-load-report/v1"

// LatencySummary is the quantile view of one step's latency histogram,
// in nanoseconds. All of it is volatile (wall-clock measurements).
type LatencySummary struct {
	P50NS  int64   `json:"p50_ns,omitempty"`
	P90NS  int64   `json:"p90_ns,omitempty"`
	P99NS  int64   `json:"p99_ns,omitempty"`
	P999NS int64   `json:"p999_ns,omitempty"`
	MinNS  int64   `json:"min_ns,omitempty"`
	MaxNS  int64   `json:"max_ns,omitempty"`
	MeanNS float64 `json:"mean_ns,omitempty"`
}

// SummarizeHist folds a latency histogram into its quantile view. An
// empty histogram yields the zero summary.
func SummarizeHist(h *metrics.LatencyHist) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
		MinNS:  h.Min(),
		MaxNS:  h.Max(),
		MeanNS: h.Mean(),
	}
}

// Attribution splits the step's end-to-end latency into where the time
// went: hold (source-side R1 queueing plus congested-hop park waits,
// stamped into the payload tag's hold slot by the nodes), deliver
// (destination-side bufR→R6 wait), and wire (the residual — transfer and
// handshake time). Per-message the three sum to the end-to-end latency,
// up to the hold slot's microsecond granularity and the wire clamp at
// zero. Volatile.
type Attribution struct {
	Hold    LatencySummary `json:"hold"`
	Deliver LatencySummary `json:"deliver"`
	Wire    LatencySummary `json:"wire"`
}

// QueueSummary holds the deployment-wide high-water marks of the live
// queue gauges sampled during the step, plus the park counters read from
// the deployment's telemetry registry. Volatile.
type QueueSummary struct {
	PeakInbox   int `json:"peak_inbox,omitempty"`
	PeakPending int `json:"peak_pending,omitempty"`
	PeakBufR    int `json:"peak_bufR,omitempty"`
	PeakBufE    int `json:"peak_bufE,omitempty"`
	PeakWireOut int `json:"peak_wireOut,omitempty"`
	PeakParked  int `json:"peak_parked,omitempty"`
	// ParkEvents counts offers parked at congested hops during the step
	// (0 when the network exposes no telemetry registry).
	ParkEvents int64 `json:"park_events,omitempty"`
}

// StepReport is one load step's outcome. The deterministic section
// (step, offered rate, message counts, verdict, violations) is a pure
// function of the configuration on a healthy deployment; everything
// timed is volatile and zeroed by Normalize.
type StepReport struct {
	Step        int      `json:"step"`
	OfferedRate float64  `json:"offered_rate,omitempty"` // msgs/s; 0 for closed loop
	Messages    int      `json:"messages"`
	Sent        int      `json:"sent"`
	Delivered   int      `json:"delivered"`
	ExactlyOnce bool     `json:"exactly_once"`
	Violations  []string `json:"violations,omitempty"`

	// Volatile wall-clock measurements.
	InjectNS     int64                `json:"inject_ns,omitempty"`
	SpanNS       int64                `json:"span_ns,omitempty"`
	AchievedRate float64              `json:"achieved_rate,omitempty"` // delivered / span
	GoodputRatio float64              `json:"goodput_ratio,omitempty"` // achieved / offered
	Latency      LatencySummary       `json:"latency"`
	Attribution  *Attribution         `json:"attribution,omitempty"`
	Hist         *metrics.LatencyHist `json:"hist,omitempty"`
	Queues       QueueSummary         `json:"queues"`
}

// buildStepReport folds a finished step into its report.
func buildStepReport(cfg Config, plan []PlanEntry, col *Collector, sent int,
	exactlyOnce bool, violations []string, injectNS, spanNS int64, peaks *queuePeaks,
	parkEvents int64) StepReport {
	h := col.Hist()
	rep := StepReport{
		Step:        cfg.Step,
		Messages:    len(plan),
		Sent:        sent,
		Delivered:   col.Delivered(),
		ExactlyOnce: exactlyOnce,
		Violations:  violations,
		InjectNS:    injectNS,
		SpanNS:      spanNS,
		Latency:     SummarizeHist(h),
		Queues: QueueSummary{
			PeakInbox:   peaks.inbox,
			PeakPending: peaks.pending,
			PeakBufR:    peaks.bufR,
			PeakBufE:    peaks.bufE,
			PeakWireOut: peaks.wireOut,
			PeakParked:  peaks.parked,
			ParkEvents:  parkEvents,
		},
	}
	if hold, deliver, wire := col.AttributionHists(); hold.Count() > 0 {
		rep.Attribution = &Attribution{
			Hold:    SummarizeHist(hold),
			Deliver: SummarizeHist(deliver),
			Wire:    SummarizeHist(wire),
		}
	}
	if cfg.Driver == DriverOpen {
		rep.OfferedRate = cfg.Rate
	}
	if spanNS > 0 {
		rep.AchievedRate = float64(rep.Delivered) / (float64(spanNS) / float64(time.Second))
	}
	if rep.OfferedRate > 0 {
		rep.GoodputRatio = rep.AchievedRate / rep.OfferedRate
	}
	if h.Count() > 0 {
		hc := *h // snapshot; the collector is detached by now
		rep.Hist = &hc
	}
	return rep
}

// RunInfo describes the host and wall-clock cost of one load run. All of
// it is volatile.
type RunInfo struct {
	WallNS    int64  `json:"wall_ns,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	StartedAt string `json:"started_at,omitempty"`
}

// NewRunInfo captures the current host for a report's Run section.
func NewRunInfo(start time.Time) RunInfo {
	return RunInfo{
		WallNS:    time.Since(start).Nanoseconds(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		StartedAt: start.UTC().Format(time.RFC3339),
	}
}

// Report is the load subsystem's machine-readable output: configuration,
// one StepReport per rate step (single runs have exactly one), and the
// sweep's knee summary. Determinism contract: after Normalize, the report
// is a pure function of (topology, configuration, seed) on a healthy
// deployment — the rate ladder is fixed up front, never adapted to
// measurements, which is what keeps the step list deterministic.
type Report struct {
	Schema      string  `json:"schema"`
	Topology    string  `json:"topology"`
	Driver      string  `json:"driver"`
	Arrival     string  `json:"arrival,omitempty"`
	Outstanding int     `json:"outstanding,omitempty"`
	Seed        int64   `json:"seed"`
	Messages    int     `json:"messages"` // per step
	Sweep       bool    `json:"sweep,omitempty"`
	KneeRatio   float64 `json:"knee_ratio,omitempty"`

	Steps       []StepReport `json:"steps"`
	ExactlyOnce bool         `json:"exactly_once"` // AND over steps

	// Knee summary (sweeps only). Which step is the knee depends on
	// measured throughput, so all of it is volatile.
	Saturated   bool    `json:"saturated,omitempty"`
	KneeStep    int     `json:"knee_step,omitempty"`
	KneeRate    float64 `json:"knee_rate,omitempty"`    // offered rate at the knee
	MaxAchieved float64 `json:"max_achieved,omitempty"` // best measured throughput

	Run RunInfo `json:"run"`
}

// NewReport assembles a report from finished steps. topology is a human-
// readable deployment label ("grid-4x4"), recorded verbatim.
func NewReport(topology string, cfg Config, sweep bool, steps []StepReport) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		Schema:      Schema,
		Topology:    topology,
		Driver:      cfg.Driver,
		Seed:        cfg.Seed,
		Messages:    cfg.Messages,
		Sweep:       sweep,
		Steps:       steps,
		ExactlyOnce: true,
	}
	if cfg.Driver == DriverOpen {
		r.Arrival = cfg.Arrival
	} else {
		r.Outstanding = cfg.Outstanding
	}
	for _, s := range steps {
		if !s.ExactlyOnce {
			r.ExactlyOnce = false
		}
	}
	return r
}

// Normalize zeroes the volatile fields (latency, throughput, knee, queue
// gauges, host info) in place and returns the report. Two normalized
// reports of the same configuration on healthy deployments marshal to
// identical bytes.
func (r *Report) Normalize() *Report {
	r.Run = RunInfo{}
	r.Saturated = false
	r.KneeStep = 0
	r.KneeRate = 0
	r.MaxAchieved = 0
	for i := range r.Steps {
		s := &r.Steps[i]
		s.InjectNS = 0
		s.SpanNS = 0
		s.AchievedRate = 0
		s.GoodputRatio = 0
		s.Latency = LatencySummary{}
		s.Attribution = nil
		s.Hist = nil
		s.Queues = QueueSummary{}
	}
	return r
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a report from path and validates its schema.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("load: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
