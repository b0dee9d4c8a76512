package telemetry

import (
	"strings"
	"testing"
)

func buildTestRegistry() *Registry {
	r := New()
	r.Counter(SeriesFramesSent, "Frames sent by kind.", L("kind", "offer")).Add(10)
	r.Counter(SeriesFramesSent, "Frames sent by kind.", L("kind", "dv")).Add(20)
	g := r.Gauge(SeriesBufOccupancy, "Occupied buffers.", L("proc", "0"), L("buf", "R"))
	g.Add(3)
	g.Add(-1)
	h := r.Hist(SeriesLatencyComponent, "Latency components.", L("component", "queued"))
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	r.GaugeFunc(SeriesLinkQueued, "Outbound queue depth.", func() int64 { return 5 }, L("link", "0->1"))
	return r
}

// TestPromRoundTrip: what WritePrometheus emits, ParsePrometheus reads
// back — same series, same values. This is the contract the CI metrics
// check and the spawn judge rely on.
func TestPromRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, text)
	}
	if v := SumSeries(samples, SeriesFramesSent); v != 30 {
		t.Fatalf("frames_sent sums to %g, want 30\n%s", v, text)
	}
	var gauge, peak float64 = -1, -1
	for _, s := range samples {
		switch s.Name {
		case SeriesBufOccupancy:
			gauge = s.Value
			if s.Labels["proc"] != "0" || s.Labels["buf"] != "R" {
				t.Fatalf("gauge labels wrong: %v", s.Labels)
			}
		case SeriesBufOccupancy + "_peak":
			peak = s.Value
		}
	}
	if gauge != 2 || peak != 3 {
		t.Fatalf("gauge=%g peak=%g, want 2 and 3", gauge, peak)
	}
	if v := SumSeries(samples, SeriesLatencyComponent+"_count"); v != 100 {
		t.Fatalf("hist count = %g, want 100", v)
	}
	// Quantile series carry the quantile label.
	foundQ := false
	for _, s := range samples {
		if s.Name == SeriesLatencyComponent && s.Labels["quantile"] == "0.99" {
			foundQ = true
			if s.Value < 90000 {
				t.Fatalf("p99 = %g, implausibly low", s.Value)
			}
		}
	}
	if !foundQ {
		t.Fatalf("no quantile-labelled series for %s\n%s", SeriesLatencyComponent, text)
	}
	if !HasSeries(samples, SeriesLinkQueued) {
		t.Fatal("func gauge missing from exposition")
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"ssmfp_x{unterminated 3",
		`ssmfp_x{k="v"} notanumber`,
		"123bad_name 1",
		`ssmfp_x{k=unquoted} 1`,
		"# TYPE ssmfp_x frobnicator",
		"# TYPE ssmfp_x",
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", in)
		}
	}
	ok := "# HELP x help text\n# TYPE x counter\nx 1\nx_with_ts 2 1700000000\n\n# free comment\n"
	samples, err := ParsePrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected valid input: %v", err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
}

func TestPromEscapedLabelValues(t *testing.T) {
	r := New()
	r.Counter("esc_total", "", L("k", `quo"te\back`+"\nnl")).Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped output does not parse: %v\n%s", err, b.String())
	}
	if samples[0].Labels["k"] != `quo"te\back`+"\nnl" {
		t.Fatalf("label round trip: %q", samples[0].Labels["k"])
	}
}

func TestSeriesHelpers(t *testing.T) {
	samples := []PromSample{
		{Name: "a", Value: 3}, {Name: "a", Value: 9}, {Name: "b", Value: 1},
	}
	if v := SumSeries(samples, "a"); v != 12 {
		t.Fatalf("SumSeries = %g", v)
	}
	if v := MaxSeries(samples, "a"); v != 9 {
		t.Fatalf("MaxSeries = %g", v)
	}
	if HasSeries(samples, "c") || !HasSeries(samples, "b") {
		t.Fatal("HasSeries wrong")
	}
	s := PromSample{Name: "x", Labels: map[string]string{"b": "2", "a": "1"}}
	if s.Key() != `x{a="1",b="2"}` {
		t.Fatalf("Key = %q", s.Key())
	}
}

// TestSumSeriesLabel covers the byzantine judge's per-reason sum: only
// samples of the named series whose label key carries the value count.
func TestSumSeriesLabel(t *testing.T) {
	rejected := func(labels map[string]string, v float64) PromSample {
		return PromSample{Name: SeriesSecureRejected, Labels: labels, Value: v}
	}
	samples := []PromSample{
		rejected(map[string]string{"reason": "role", "node": "0"}, 2),
		rejected(map[string]string{"reason": "role", "node": "1"}, 3),
		rejected(map[string]string{"reason": "spoof", "node": "0"}, 5),
		rejected(map[string]string{"node": "2"}, 7), // no reason label
		{Name: "ssmfp_other_total", Labels: map[string]string{"reason": "role"}, Value: 11},
	}
	cases := []struct {
		name             string
		series, key, val string
		want             float64
	}{
		{"matching label, summed across nodes", SeriesSecureRejected, "reason", "role", 5},
		{"another label value", SeriesSecureRejected, "reason", "spoof", 5},
		{"label value no sample carries", SeriesSecureRejected, "reason", "membership", 0},
		{"missing key", SeriesSecureRejected, "cause", "role", 0},
		{"another series name", "ssmfp_other_total", "reason", "role", 11},
		{"series absent", "ssmfp_absent_total", "reason", "role", 0},
	}
	for _, c := range cases {
		if got := SumSeriesLabel(samples, c.series, c.key, c.val); got != c.want {
			t.Errorf("%s: SumSeriesLabel(%s, %s=%s) = %g, want %g", c.name, c.series, c.key, c.val, got, c.want)
		}
	}
}
