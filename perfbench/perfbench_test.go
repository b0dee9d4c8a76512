package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

// TestQuantilesMatchFullSort checks the exact quantiles against the
// nearest-rank pick from an independently sorted copy, on samples with
// and without ties.
func TestQuantilesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 10007} {
		for _, spread := range []int64{5, 1 << 40} {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(spread)
			}
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			got := quantiles(xs, qs...)
			for i, q := range qs {
				want := sorted[int(math.Ceil(q*float64(n)-1e-9))-1]
				if got[i] != want {
					t.Errorf("n=%d spread=%d q=%v: got %d, want %d", n, spread, q, got[i], want)
				}
			}
		}
	}
	if got := quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty sample: got %d, want 0", got[0])
	}
}

// TestTracedTransportPassesFramesUnchanged sends one frame of every kind
// through the decorator and compares what arrives with what was sent.
func TestTracedTransportPassesFramesUnchanged(t *testing.T) {
	g := graph.Line(2)
	bare := transport.NewChan(g, 16)
	defer bare.Close()
	tr := newTracer(1)
	wrapped := newTracedTransport(bare, tr)
	link := wrapped.Link(0, 1)
	if wrapped.Link(0, 1) != link {
		t.Fatal("Link returned a different handle for the same edge")
	}
	tag := load.EncodeTag(5, 0, 1, time.Now().UnixNano())
	frames := []transport.Frame{
		{Kind: transport.KindDV, From: 0, DV: []int{0, 1}},
		{Kind: transport.KindOffer, From: 0, Offer: transport.Offer{Dest: 1, Seq: 9,
			Msg: transport.Message{Payload: tag, Color: 2, UID: 77, Src: 0, Dest: 1, Valid: true}}},
		{Kind: transport.KindAccept, From: 0, Ack: transport.Ack{Dest: 1, Seq: 9}},
		{Kind: transport.KindCancel, From: 0, Ack: transport.Ack{Dest: 1, Seq: 10}},
		{Kind: transport.KindCancelAck, From: 0, Ack: transport.Ack{Dest: 1, Seq: 11}},
	}
	for _, f := range frames {
		if !link.Send(f) {
			t.Fatalf("send of %v dropped", f.Kind)
		}
		select {
		case got := <-bare.Link(0, 1).Recv():
			if !reflect.DeepEqual(got, f) {
				t.Errorf("frame changed in transit:\n got %+v\nwant %+v", got, f)
			}
		case <-time.After(time.Second):
			t.Fatalf("%v frame never arrived", f.Kind)
		}
	}
	if n := tr.count[spanTransportSend].Load(); n != int64(len(frames)) {
		t.Errorf("recorded %d transport.send spans, want %d", n, len(frames))
	}
	keyed := 0
	for _, s := range tr.spans {
		if s.key == msgKey(0, 5) {
			keyed++
		}
	}
	if keyed != 1 {
		t.Errorf("offer span keyed to its message %d times, want 1", keyed)
	}
	if !reflect.DeepEqual(tr.frames, frames) {
		t.Errorf("captured frames differ from the sent ones")
	}
}

// TestChanDenseExactlyOnceTraced runs a short chan-dense phase through the
// tracing decorator and requires an exactly-once verdict on every step.
func TestChanDenseExactlyOnceTraced(t *testing.T) {
	g := chanDense.graph()
	res := newResult()
	tr := newTracer(16)
	m, err := measureLive(chanDense, g, 3, 100*time.Millisecond, 1, tr, res)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || len(res.violations) != 0 {
		t.Fatalf("failed %d: %v", res.failed, res.violations)
	}
	// res.attempted counts the measured steps only, not the warm-up.
	if m.delivered != res.attempted || m.samples == 0 || m.samples > m.delivered {
		t.Errorf("delivered %d, latency samples %d, attempted %d", m.delivered, m.samples, res.attempted)
	}
	if tr.count[spanTransportSend].Load() == 0 || tr.count[spanLoadSend].Load() != int64(m.delivered) {
		t.Errorf("spans: %d transport.send, %d load.send for %d messages",
			tr.count[spanTransportSend].Load(), tr.count[spanLoadSend].Load(), m.delivered)
	}
}

// TestFailedFracCountsWithheldDelivery feeds a step's deliveries through
// the recorder but withholds one, and requires the step to count as a
// failure in the report.
func TestFailedFracCountsWithheldDelivery(t *testing.T) {
	const n, withheld = 50, 17
	rec := &recorder{hops: [][]int{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}}
	book := newStepBook(0, n, false)
	rec.book.Store(book)
	now := time.Now()
	for seq := 0; seq < n; seq++ {
		if seq == withheld {
			continue
		}
		rec.onDeliver(msgpass.Delivery{
			Msg:  msgpass.Message{Payload: load.EncodeTag(seq, 0, 2, now.UnixNano()), Src: 0, Dest: 2, Valid: true},
			At:   2,
			Time: now.Add(time.Duration(seq+1) * time.Microsecond),
		})
	}
	res := newResult()
	m := &liveMeasure{}
	rep := load.StepReport{Messages: n, Sent: n, Delivered: n - 1, ExactlyOnce: false}
	lat := m.checkStep(res, 0, &rep, book, n)
	if res.failed != 1 || res.attempted != n {
		t.Fatalf("failed %d of %d, want 1 of %d", res.failed, res.attempted, n)
	}
	if len(lat) != n-1 {
		t.Errorf("kept %d latency samples, want %d", len(lat), n-1)
	}
	var out bytes.Buffer
	if err := writeReport(&out, "test", res, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failed_frac") || !strings.Contains(out.String(), "(failed 1 of 50 attempted)") {
		t.Errorf("report does not show the failure:\n%s", out.String())
	}
	last := lastLine(out.String())
	var got struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &got); err != nil || got.Correct || got.Failed != 1 {
		t.Errorf("result line %q: correct=%v failed=%d err=%v", last, got.Correct, got.Failed, err)
	}
}

// TestEngineCorruptDeterministic runs engine-corrupt twice with one seed
// and requires identical exact counts and a clean check.
func TestEngineCorruptDeterministic(t *testing.T) {
	var runs [2]engineSummary
	for i := range runs {
		c := setupEngine(11)
		r := c.run(nil, 0)
		res := newResult()
		if bad := c.check(res); bad != 0 {
			t.Fatalf("run %d: %d failures: %v", i, bad, res.violations)
		}
		if len(r.lat) != c.msgs {
			t.Errorf("run %d: %d latency samples for %d messages", i, len(r.lat), c.msgs)
		}
		runs[i] = r.summary
	}
	if runs[0] != runs[1] {
		t.Errorf("same seed, different executions:\n%+v\n%+v", runs[0], runs[1])
	}
	if runs[0].steps == 0 || runs[0].guardEvals == 0 || runs[0].coreMoves == 0 {
		t.Errorf("empty execution: %+v", runs[0])
	}
}

// ungated is the one workload BENCHMARK.json leaves out (see workloads).
const ungated = "tcp-dense"

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		gated[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
	for name := range workloads {
		if !gated[name] && name != ungated {
			t.Errorf("driver %q is missing from BENCHMARK.json", name)
		}
	}
	check := func(group string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", group, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), table has %s (%s)",
					group, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestReportResultLine checks the shape of the last output line: exactly
// the four result keys, and every metric of the group with its unit.
func TestReportResultLine(t *testing.T) {
	res := newResult()
	res.attempted = 3
	res.set("setup_s", 0.25, 3)
	var out bytes.Buffer
	if err := writeReport(&out, "w", res, endToEnd); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lastLine(out.String())), &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v present=%v", d.name, m, ok)
		}
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"].Value != 0.25 {
		t.Errorf("metrics %+v", metrics)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
