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
