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

// TestCheckCluster runs the one cluster check over live endpoints: a
// clean cluster passes, and an unreachable node, a node missing core
// series and each health flag are violations named after their source —
// except the secure-rejection flag when the judge expects an attack.
func TestCheckCluster(t *testing.T) {
	serve := func(extra ...string) string {
		reg := telemetry.New()
		for _, names := range [][]string{telemetry.CoreSeries, extra} {
			for _, name := range names {
				reg.Counter(name, "planted").Add(1)
			}
		}
		srv := httptest.NewServer(telemetry.Handler(reg))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	client := &http.Client{Timeout: 5 * time.Second}
	check := func(expectSecure bool, urls ...string) ClusterScrape {
		names := make([]string, len(urls))
		for i := range urls {
			names[i] = fmt.Sprintf("node %d", i)
		}
		return CheckCluster(client, names, urls, expectSecure)
	}

	clean := check(false, serve(), serve())
	if len(clean.Violations) != 0 || !clean.Health.Healthy || len(clean.Scrapes) != 2 {
		t.Fatalf("clean cluster: %q, %s", clean.Violations, clean.Health)
	}
	if got := telemetry.SumSeries(clean.All, telemetry.SeriesSends); got != 2 {
		t.Fatalf("union sums sends to %g, want 2", got)
	}

	bare := httptest.NewServer(telemetry.Handler(telemetry.New()))
	defer bare.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	broken := check(false, serve(), bare.URL, gone.URL)
	if n := len(broken.Violations); n != len(telemetry.CoreSeries)+1 {
		t.Fatalf("%d violations for a bare and a dead node: %q", n, broken.Violations)
	}
	if !strings.HasPrefix(broken.Violations[0], "node 1: /metrics missing core series ") ||
		!strings.HasPrefix(broken.Violations[len(broken.Violations)-1], "node 2: scraping /metrics: ") {
		t.Fatalf("violations not named after their node: %q", broken.Violations)
	}

	for _, c := range []struct {
		series       string
		expectSecure bool
		violations   int
	}{
		{telemetry.SeriesWatermarkViolations, false, 1},
		{telemetry.SeriesWatermarkViolations, true, 1},
		{telemetry.SeriesSecureRejected, false, 1},
		{telemetry.SeriesSecureRejected, true, 0},
	} {
		got := check(c.expectSecure, serve(), serve(c.series))
		if got.Health.Healthy || len(got.Violations) != c.violations {
			t.Fatalf("%s (expectSecure=%v): %s, violations %q", c.series, c.expectSecure, got.Health, got.Violations)
		}
		if c.violations == 1 && !strings.Contains(got.Violations[0], "cluster flag ["+c.series+"=1") {
			t.Fatalf("flag violation %q does not name %s", got.Violations[0], c.series)
		}
	}
}
