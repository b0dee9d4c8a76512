package harness

import (
	"strings"
	"testing"
	"time"

	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
)

// TestNewReport assembles a report from a synthetic delivery log: every
// entry lands in the ledger, only valid tagged deliveries feed the latency
// histogram, and the rates span the send window and the last valid
// delivery.
func TestNewReport(t *testing.T) {
	start := time.Unix(100, 0)
	tagged := load.EncodeTag(0, 1, 2, start.UnixNano())
	log := []msgpass.Delivery{
		{Msg: msgpass.Message{UID: 1, Src: 1, Payload: tagged, Valid: true}, Time: start.Add(2 * time.Second)},
		{Msg: msgpass.Message{UID: 2, Src: 0, Payload: "m-0-2", Valid: true}, Time: start.Add(time.Second)},
		{Msg: msgpass.Message{UID: 3, Src: 1}, Time: start.Add(4 * time.Second)},
	}
	sent := []spec.Sent{{Key: spec.Key{UID: 7}, Dst: 1}, {Key: spec.Key{UID: 8}, Dst: 0}}
	r := NewReport(2, sent, 3, log, start, 500*time.Millisecond)
	if r.ID != 2 || r.Expected != 3 || len(r.Sent) != 2 {
		t.Fatalf("report header %+v", r)
	}
	if len(r.Delivered) != 3 || r.Delivered[2] != (spec.Delivered{Key: spec.Key{UID: 3}, At: 2}) {
		t.Fatalf("ledger %+v", r.Delivered)
	}
	if r.SendRate != 4 || r.DeliverRate != 1 {
		t.Fatalf("rates send=%g deliver=%g, want 4 and 1", r.SendRate, r.DeliverRate)
	}
	if r.Hist == nil || r.Hist.Count() != 1 || r.Latency == nil {
		t.Fatalf("latency from one tagged delivery: hist=%v latency=%v", r.Hist, r.Latency)
	}
	if empty := NewReport(0, nil, 0, nil, start, 0); empty.SendRate != 0 || empty.DeliverRate != 0 || empty.Hist != nil {
		t.Fatalf("idle node report %+v", empty)
	}
}

// peakSamples is the scrape of node 1 after a busy run: both buffers,
// the pending queue and the park slot were all occupied at some point.
func peakSamples() []telemetry.PromSample {
	peak := func(series string, labels map[string]string) telemetry.PromSample {
		labels["proc"] = "1"
		return telemetry.PromSample{Name: series + "_peak", Labels: labels, Value: 2}
	}
	return []telemetry.PromSample{
		peak(telemetry.SeriesBufOccupancy, map[string]string{"buf": "R"}),
		peak(telemetry.SeriesBufOccupancy, map[string]string{"buf": "E"}),
		peak(telemetry.SeriesPending, map[string]string{}),
		peak(telemetry.SeriesParked, map[string]string{}),
		{Name: telemetry.SeriesParkEvents, Value: 3},
	}
}

// TestCheckPeaks holds node 1's scrape to its ledger: a clean scrape
// passes, and each missing high-water mark the ledger implies yields
// exactly its one violation.
func TestCheckPeaks(t *testing.T) {
	busy := Report{ID: 1, Sent: []spec.Sent{{Key: spec.Key{UID: 1}, Dst: 0}}, Delivered: []spec.Delivered{{Key: spec.Key{UID: 9}, At: 1, Valid: true}}}
	zero := func(series, buf string) func([]telemetry.PromSample) {
		return func(ss []telemetry.PromSample) {
			for i := range ss {
				if ss[i].Name == series+"_peak" && ss[i].Labels["buf"] == buf {
					ss[i].Value = 0
				}
			}
		}
	}
	cases := []struct {
		name   string
		report Report
		edit   func([]telemetry.PromSample)
		want   string // substring of the single expected violation; "" = clean
	}{
		{name: "clean", report: busy},
		{name: "bufR peak zero", report: busy, edit: zero(telemetry.SeriesBufOccupancy, "R"),
			want: "node 1 delivered 1 messages but /metrics shows buffer peaks R=0 E=2"},
		{name: "bufE peak zero", report: busy, edit: zero(telemetry.SeriesBufOccupancy, "E"),
			want: "node 1 delivered 1 messages but /metrics shows buffer peaks R=2 E=0"},
		{name: "pending peak zero", report: busy, edit: zero(telemetry.SeriesPending, ""),
			want: "node 1 sent 1 messages but /metrics shows pending peak 0"},
		{name: "parked peak zero", report: busy, edit: zero(telemetry.SeriesParked, ""),
			want: "node 1 counted 3 park events but /metrics shows parked peak 0"},
		{name: "idle node", report: Report{ID: 1}, edit: func(ss []telemetry.PromSample) {
			for i := range ss {
				ss[i].Value = 0
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ss := peakSamples()
			if c.edit != nil {
				c.edit(ss)
			}
			got := c.report.CheckPeaks(ss)
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean scrape judged %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], c.want) {
				t.Fatalf("violations %q, want exactly one containing %q", got, c.want)
			}
		})
	}
}

// TestCheckAttribution: stamped components within the end-to-end mean
// pass, components that outgrow it fail, and a run without latency tags
// is not judged.
func TestCheckAttribution(t *testing.T) {
	var merged metrics.LatencyHist
	if got := CheckAttribution(nil, &merged); got != nil {
		t.Fatalf("empty histogram judged %q", got)
	}
	for i := 0; i < 4; i++ {
		merged.Add(int64(10 * time.Millisecond))
	}
	components := func(totalNS float64) []telemetry.PromSample {
		return []telemetry.PromSample{{Name: telemetry.SeriesLatencyComponent + "_sum", Value: totalNS}}
	}
	if got := CheckAttribution(components(4*8e6), &merged); len(got) != 0 {
		t.Fatalf("8ms of components under a 10ms mean judged %q", got)
	}
	got := CheckAttribution(components(4*20e6), &merged)
	if len(got) != 1 || !strings.Contains(got[0], "latency attribution components sum to 20000000ns per message") {
		t.Fatalf("20ms of components over a 10ms mean: %q", got)
	}
}
