package ssmfp_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssmfp"
)

// TestLiveNetworkMetricsHandler scrapes the live network's Prometheus
// endpoint and checks the protocol series are there with sane values.
func TestLiveNetworkMetricsHandler(t *testing.T) {
	live := ssmfp.NewLiveNetwork(ssmfp.Ring(4), ssmfp.LiveOptions{Seed: 2})
	defer live.Close()
	if _, err := live.Send(0, 2, "scrape-me"); err != nil {
		t.Fatal(err)
	}
	if !live.WaitDelivered(1, 10*time.Second) {
		t.Fatal("not delivered")
	}

	rec := httptest.NewRecorder()
	live.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, series := range []string{
		"ssmfp_sends_total 1",
		"ssmfp_deliveries_total 1",
		"ssmfp_frames_sent_total{kind=\"offer\"}",
		"ssmfp_buf_occupancy",
		"ssmfp_wire_bytes_sent_total",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("scrape missing %q:\n%s", series, body)
		}
	}
}

// TestLiveNetworkDeliveries checks the delivery snapshot field by field,
// and that Status counts the same deliveries without copying the log.
func TestLiveNetworkDeliveries(t *testing.T) {
	live := ssmfp.NewLiveNetwork(ssmfp.Line(3), ssmfp.LiveOptions{Seed: 4})
	defer live.Close()
	want := map[string]ssmfp.Delivery{
		"east": {Payload: "east", From: 0, To: 2, Valid: true},
		"west": {Payload: "west", From: 2, To: 0, Valid: true},
	}
	for _, d := range want {
		if _, err := live.Send(d.From, d.To, d.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitDelivered(len(want), 10*time.Second) {
		t.Fatal("not delivered")
	}
	got := live.Deliveries()
	if len(got) != len(want) {
		t.Fatalf("Deliveries() = %+v, want %d entries", got, len(want))
	}
	for _, d := range got {
		if d != want[d.Payload] {
			t.Fatalf("delivery %+v, want %+v", d, want[d.Payload])
		}
	}
	if n := live.Status().Deliveries; n != len(want) {
		t.Fatalf("Status().Deliveries = %d, want %d", n, len(want))
	}
}

// TestLiveNetworkDeliveredExactlyOnce checks the verdict for delivered,
// unknown and mixed UID sets.
func TestLiveNetworkDeliveredExactlyOnce(t *testing.T) {
	live := ssmfp.NewLiveNetwork(ssmfp.Line(3), ssmfp.LiveOptions{Seed: 5})
	defer live.Close()
	a, err := live.Send(0, 2, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.Send(2, 0, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !live.WaitDelivered(2, 10*time.Second) {
		t.Fatal("not delivered")
	}
	unknown := a + b + 1000
	for _, c := range []struct {
		ids  []uint64
		want bool
	}{
		{nil, true},
		{[]uint64{a}, true},
		{[]uint64{a, b}, true},
		{[]uint64{a, a}, true},
		{[]uint64{unknown}, false},
		{[]uint64{a, unknown}, false},
		{[]uint64{unknown, b}, false},
	} {
		if got := live.DeliveredExactlyOnce(c.ids...); got != c.want {
			t.Errorf("DeliveredExactlyOnce(%v) = %v, want %v", c.ids, got, c.want)
		}
	}
}
