package harness

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/telemetry"
)

// TestSweep covers every way an endpoint can answer: real Prometheus
// text, an HTTP error, a body that is not the exposition format, and no
// answer at all. The sweep visits all of them regardless.
func TestSweep(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.SeriesSends, "sends").Add(3)
	good := httptest.NewServer(telemetry.Handler(reg))
	defer good.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "{not prometheus}")
	}))
	defer garbage.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	got := Sweep(client, []string{good.URL, failing.URL, garbage.URL, gone.URL})
	if len(got) != 4 {
		t.Fatalf("%d scrapes for 4 endpoints", len(got))
	}
	if got[0].Err != nil || telemetry.SumSeries(got[0].Samples, telemetry.SeriesSends) != 3 {
		t.Fatalf("good endpoint: %v, sends=%g", got[0].Err, telemetry.SumSeries(got[0].Samples, telemetry.SeriesSends))
	}
	for i, want := range []string{"", "answered HTTP 503", "not parseable", ""} {
		if i > 0 && got[i].Err == nil {
			t.Fatalf("endpoint %d accepted", i)
		}
		if want != "" && !strings.Contains(got[i].Err.Error(), want) {
			t.Fatalf("endpoint %d: %v, want %q", i, got[i].Err, want)
		}
	}
	if all, ok := Union(got); ok || len(all) != len(got[0].Samples) {
		t.Fatalf("Union over a failed sweep: ok=%v, %d samples", ok, len(all))
	}
	if all, ok := Union(got[:1]); !ok || len(all) == 0 {
		t.Fatal("Union over a clean sweep failed")
	}

	// A registry without the protocol's instruments lacks every core
	// series but the one planted above.
	missing := got[0].MissingCore()
	if len(missing) != len(telemetry.CoreSeries)-1 {
		t.Fatalf("missing core series %v", missing)
	}
	for _, m := range missing {
		if m == telemetry.SeriesSends {
			t.Fatal("planted series reported missing")
		}
	}
}
