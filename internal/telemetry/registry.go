// Package telemetry is the cluster telemetry plane, the one place live
// components report (the obs event stream is the state-model engine's
// execution trace only): a zero-allocation metrics registry that the
// protocol layers (msgpass, transport, load) update from their hot paths,
// plus the two export surfaces every consumer scrapes — Prometheus text
// exposition (prom.go) and a self-describing ssmfp-telemetry/v1 JSONL
// snapshot stream (emit.go) — and a stabilization-health detector over
// scraped series (health.go).
//
// All registration happens at setup time (Registry methods take a lock
// and may allocate), while every hot-path update — Counter.Inc,
// Gauge.Add, metrics.AtomicHist.Observe — is a handful of atomic
// operations with zero heap allocations, so the `make bench-allocs` gate
// holds with telemetry always on. There is no "disabled" mode: msgpass
// owns a registry unconditionally, and an un-scraped registry costs
// exactly those atomics.
//
// Histograms are metrics.AtomicHist: they accumulate into the log-linear
// bucket layout of metrics.LatencyHist (≤12.5% relative quantile error)
// and snapshot into one, so node-side component histograms and the load
// collector's end-to-end histogram quantile and merge identically.
//
// The package sits beside msgpass: it may import internal/metrics only.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ssmfp/internal/metrics"
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but handles normally come from Registry.Counter so they are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. Lock-free, alloc-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter contract to hold;
// this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level with a built-in high-water mark. Updates
// are event-driven (the owner adjusts it at every occupancy transition),
// so Peak is exact — a value held for a microsecond between two samples is
// still recorded, which is what lets the spawn judge assert invariants
// like "a node that delivered has had an occupied emission buffer".
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Add adjusts the level by d and folds the new level into the peak.
// Lock-free, alloc-free.
func (g *Gauge) Add(d int64) {
	v := g.v.Add(d)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Set stores the level and folds it into the peak.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Peak returns the highest level ever folded in (0 if never positive).
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// Label is one name="value" dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds of the registry (and of the JSONL snapshot schema).
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindHist    = "hist"
)

// entry is one registered metric.
type entry struct {
	name   string
	help   string
	labels []Label
	kind   string // KindCounter / KindGauge / KindHist

	counter *Counter
	gauge   *Gauge
	hist    *metrics.AtomicHist
	fn      func() int64 // non-nil for Func variants; kind carries semantics
}

func (e *entry) key() string {
	if len(e.labels) == 0 {
		return e.name
	}
	var b strings.Builder
	b.WriteString(e.name)
	for _, l := range e.labels {
		b.WriteByte('\x00')
		b.WriteString(l.Key)
		b.WriteByte('\x01')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry holds a process's metrics. Registration (the typed methods) is
// idempotent — asking twice for the same (name, labels) returns the same
// handle — and is the only place that locks or allocates; handles update
// lock-free. A nil *Registry is invalid: owners that want telemetry "off"
// still hold a real registry and simply never export it.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

// register interns an entry, enforcing kind consistency per key.
func (r *Registry) register(e *entry) *entry {
	k := e.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.index[k]; ok {
		if prev.kind != e.kind || (prev.fn == nil) != (e.fn == nil) {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different kind", e.name))
		}
		return prev
	}
	r.index[k] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.register(&entry{name: name, help: help, labels: labels, kind: KindCounter, counter: &Counter{}})
	return e.counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.register(&entry{name: name, help: help, labels: labels, kind: KindGauge, gauge: &Gauge{}})
	return e.gauge
}

// Hist registers (or finds) a histogram.
func (r *Registry) Hist(name, help string, labels ...Label) *metrics.AtomicHist {
	e := r.register(&entry{name: name, help: help, labels: labels, kind: KindHist, hist: metrics.NewAtomicHist()})
	return e.hist
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — the bridge to subsystems that already keep their own atomics
// (transport link stats). fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&entry{name: name, help: help, labels: labels, kind: KindCounter, fn: fn})
}

// GaugeFunc registers a gauge read from fn at snapshot time. Func gauges
// carry no peak (nothing observes them between snapshots).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&entry{name: name, help: help, labels: labels, kind: KindGauge, fn: fn})
}

// Sample is one metric's state at snapshot time. Hist is non-nil only for
// histograms; Peak is meaningful only for non-func gauges.
type Sample struct {
	Name   string               `json:"name"`
	Labels []Label              `json:"labels,omitempty"`
	Kind   string               `json:"kind"`
	Value  int64                `json:"value"`
	Peak   int64                `json:"peak,omitempty"`
	Hist   *metrics.LatencyHist `json:"hist,omitempty"`
}

// Snapshot reads every metric, sorted by (name, labels) so two snapshots
// of registries built in different orders compare field-for-field.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch {
		case e.fn != nil:
			s.Value = e.fn()
		case e.counter != nil:
			s.Value = e.counter.Load()
		case e.gauge != nil:
			s.Value = e.gauge.Load()
			s.Peak = e.gauge.Peak()
		case e.hist != nil:
			h := e.hist.Snapshot()
			s.Value = h.Count()
			s.Hist = &h
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// labelString renders labels in Prometheus form: {k="v",k2="v2"}.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Value finds a non-hist metric by (name, labels) and returns its current
// value; ok is false when absent. Consumers (the load report builder) use
// it to pull specific series without walking a snapshot.
func (r *Registry) Value(name string, labels ...Label) (int64, bool) {
	e := r.find(name, labels)
	if e == nil {
		return 0, false
	}
	switch {
	case e.fn != nil:
		return e.fn(), true
	case e.counter != nil:
		return e.counter.Load(), true
	case e.gauge != nil:
		return e.gauge.Load(), true
	case e.hist != nil:
		return e.hist.Count(), true
	}
	return 0, false
}

// HistSnapshot finds a histogram by (name, labels) and snapshots it.
func (r *Registry) HistSnapshot(name string, labels ...Label) (metrics.LatencyHist, bool) {
	e := r.find(name, labels)
	if e == nil || e.hist == nil {
		return metrics.LatencyHist{}, false
	}
	return e.hist.Snapshot(), true
}

// MaxPeak returns the largest peak across every gauge named name,
// regardless of labels — the deployment-wide high-water mark of a
// per-processor gauge family.
func (r *Registry) MaxPeak(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max int64
	for _, e := range r.entries {
		if e.name == name && e.gauge != nil {
			if p := e.gauge.Peak(); p > max {
				max = p
			}
		}
	}
	return max
}

// SumValues returns the sum of the current values across every metric
// named name, regardless of labels.
func (r *Registry) SumValues(name string) int64 {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.name == name {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()
	var sum int64
	for _, e := range entries {
		switch {
		case e.fn != nil:
			sum += e.fn()
		case e.counter != nil:
			sum += e.counter.Load()
		case e.gauge != nil:
			sum += e.gauge.Load()
		case e.hist != nil:
			sum += e.hist.Count()
		}
	}
	return sum
}

func (r *Registry) find(name string, labels []Label) *entry {
	probe := entry{name: name, labels: labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.index[probe.key()]
}
