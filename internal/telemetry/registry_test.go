package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	g := r.Gauge("g", "help")
	g.Add(3)
	g.Add(-2)
	g.Add(4)
	g.Add(-5)
	if g.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Load())
	}
	if g.Peak() != 5 {
		t.Fatalf("peak = %d, want 5 (3-2+4)", g.Peak())
	}
	g.Set(2)
	if g.Load() != 2 || g.Peak() != 5 {
		t.Fatalf("after Set(2): load=%d peak=%d", g.Load(), g.Peak())
	}
}

// TestRegistrationIdempotent pins the handle contract: same (name,
// labels) yields the same handle; a kind change is a programming error.
func TestRegistrationIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L("k", "v"))
	b := r.Counter("x_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if r.Counter("x_total", "", L("k", "w")) == a {
		t.Fatal("different label value returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "", L("k", "v"))
}

func TestHistEmptyAndNegative(t *testing.T) {
	r := New()
	h := r.Hist("lat_ns", "")
	if s := h.Snapshot(); s.Count() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	h.Observe(-5) // clamps to 0, like LatencyHist.Add
	if s := h.Snapshot(); s.Count() != 1 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("negative observation mishandled: count=%d min=%d max=%d", s.Count(), s.Min(), s.Max())
	}
}

// TestGaugePeakExactUnderConcurrency: the peak must capture the true
// high-water mark even when increments and decrements race.
func TestGaugePeakExactUnderConcurrency(t *testing.T) {
	r := New()
	g := r.Gauge("occ", "")
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Load() != 0 {
		t.Fatalf("gauge = %d after balanced adds, want 0", g.Load())
	}
	if p := g.Peak(); p < 1 || p > workers {
		t.Fatalf("peak = %d, want within [1,%d]", p, workers)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := New()
	r.Gauge("b_gauge", "").Set(7)
	r.Counter("a_total", "").Add(3)
	r.CounterFunc("c_fn_total", "", func() int64 { return 42 })
	r.Hist("d_ns", "").Observe(100)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if s := byName["a_total"]; s.Kind != KindCounter || s.Value != 3 {
		t.Fatalf("a_total: %+v", s)
	}
	if s := byName["b_gauge"]; s.Kind != KindGauge || s.Value != 7 || s.Peak != 7 {
		t.Fatalf("b_gauge: %+v", s)
	}
	if s := byName["c_fn_total"]; s.Kind != KindCounter || s.Value != 42 {
		t.Fatalf("c_fn_total: %+v", s)
	}
	if s := byName["d_ns"]; s.Kind != KindHist || s.Hist == nil || s.Hist.Count() != 1 {
		t.Fatalf("d_ns: %+v", s)
	}
}

func TestLookupHelpers(t *testing.T) {
	r := New()
	r.Gauge("occ", "", L("proc", "0")).Add(2)
	r.Gauge("occ", "", L("proc", "1")).Add(9)
	r.Gauge("occ", "", L("proc", "1")).Add(-6)
	r.Counter("ev_total", "", L("proc", "0")).Add(3)
	r.Counter("ev_total", "", L("proc", "1")).Add(4)

	if v, ok := r.Value("occ", L("proc", "0")); !ok || v != 2 {
		t.Fatalf("Value(occ,proc=0) = %d,%v", v, ok)
	}
	if _, ok := r.Value("occ", L("proc", "7")); ok {
		t.Fatal("Value found an unregistered series")
	}
	if m := r.MaxPeak("occ"); m != 9 {
		t.Fatalf("MaxPeak = %d, want 9", m)
	}
	if s := r.SumValues("ev_total"); s != 7 {
		t.Fatalf("SumValues = %d, want 7", s)
	}
}

// TestHotPathAllocFree is the unit-test twin of BenchmarkTelemetryHotPath:
// every hot-path update must be allocation-free.
func TestHotPathAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Hist("h_ns", "")
	allocs := testing.AllocsPerRun(500, func() {
		c.Inc()
		c.Add(2)
		g.Add(1)
		g.Add(-1)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("hot-path updates allocate %.1f times per run, want 0", allocs)
	}
}
