package harness

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ssmfp/internal/metrics"
	"ssmfp/internal/telemetry"
)

// Scrape is one endpoint's contribution to a /metrics sweep: its parsed
// samples, or why there are none.
type Scrape struct {
	URL     string
	Samples []telemetry.PromSample
	Err     error
}

// MissingCore lists the telemetry.CoreSeries the scrape lacks.
func (s Scrape) MissingCore() []string {
	var missing []string
	for _, core := range telemetry.CoreSeries {
		if !telemetry.HasSeries(s.Samples, core) {
			missing = append(missing, core)
		}
	}
	return missing
}

// Sweep GETs every URL once through client and parses the Prometheus
// text exposition. A transport error, a non-200 answer or an unparseable
// body leaves that endpoint's Err set; the sweep always covers them all.
func Sweep(client *http.Client, urls []string) []Scrape {
	out := make([]Scrape, len(urls))
	for i, url := range urls {
		out[i] = Scrape{URL: url}
		resp, err := client.Get(url)
		if err != nil {
			out[i].Err = err
			continue
		}
		samples, err := telemetry.ParsePrometheus(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			out[i].Err = fmt.Errorf("answered HTTP %d", resp.StatusCode)
		case err != nil:
			out[i].Err = fmt.Errorf("not parseable Prometheus text: %v", err)
		default:
			out[i].Samples = samples
		}
	}
	return out
}

// Union concatenates the samples of every successful scrape; ok is false
// when any endpoint failed.
func Union(scrapes []Scrape) (all []telemetry.PromSample, ok bool) {
	ok = true
	for _, s := range scrapes {
		if s.Err != nil {
			ok = false
		}
		all = append(all, s.Samples...)
	}
	return all, ok
}

// ClusterScrape is one checked sweep of a cluster's /metrics endpoints.
type ClusterScrape struct {
	Scrapes    []Scrape               // one per endpoint, in order
	All        []telemetry.PromSample // the union of every answering endpoint
	Health     telemetry.HealthReport // over All
	Violations []string               // one line per failed check
}

// CheckCluster sweeps urls once and checks the cluster they form: every
// endpoint answers with parseable Prometheus text carrying the core
// series, and the union of their samples passes the stabilization-health
// checks. names[i] labels urls[i] in the violation lines. With
// expectSecure the secure-rejection flag is a cluster under attack doing
// its job, not a violation; every other flag still is.
func CheckCluster(client *http.Client, names, urls []string, expectSecure bool) ClusterScrape {
	var c ClusterScrape
	badf := func(format string, a ...any) {
		c.Violations = append(c.Violations, fmt.Sprintf(format, a...))
	}
	c.Scrapes = Sweep(client, urls)
	for i, s := range c.Scrapes {
		if s.Err != nil {
			badf("%s: scraping /metrics: %v", names[i], s.Err)
			continue
		}
		for _, core := range s.MissingCore() {
			badf("%s: /metrics missing core series %s", names[i], core)
		}
	}
	c.All, _ = Union(c.Scrapes)
	c.Health = telemetry.CheckHealth(c.All)
	for _, f := range c.Health.Flags {
		if !expectSecure || !f.SecureFlag() {
			badf("cluster flag [%s=%g: %s]", f.Series, f.Value, f.Why)
		}
	}
	return c
}

// CheckPeaks holds a node's own scrape to its ledger. The occupancy peaks
// are event-driven high-water marks, so activity the ledger records must
// have left one: a node that delivered occupied both of its buffers, a
// node that sent had pending work, and park events imply a parked peak.
func (r Report) CheckPeaks(samples []telemetry.PromSample) []string {
	proc := strconv.Itoa(r.ID)
	peak := func(series, buf string) float64 {
		var max float64
		for _, s := range samples {
			if s.Name == series+"_peak" && s.Labels["proc"] == proc &&
				(buf == "" || s.Labels["buf"] == buf) && s.Value > max {
				max = s.Value
			}
		}
		return max
	}
	var violations []string
	badf := func(format string, a ...any) {
		violations = append(violations, fmt.Sprintf(format, a...))
	}
	bufR, bufE := peak(telemetry.SeriesBufOccupancy, "R"), peak(telemetry.SeriesBufOccupancy, "E")
	if n := len(r.Delivered); n > 0 && (bufR < 1 || bufE < 1) {
		badf("node %d delivered %d messages but /metrics shows buffer peaks R=%g E=%g", r.ID, n, bufR, bufE)
	}
	if n := len(r.Sent); n > 0 && peak(telemetry.SeriesPending, "") < 1 {
		badf("node %d sent %d messages but /metrics shows pending peak 0", r.ID, n)
	}
	if parks := telemetry.SumSeries(samples, telemetry.SeriesParkEvents); parks > 0 && peak(telemetry.SeriesParked, "") < 1 {
		badf("node %d counted %g park events but /metrics shows parked peak 0", r.ID, parks)
	}
	return violations
}

// CheckAttribution bounds the node-stamped latency components against
// the measured end-to-end latency. Summed across the cluster, the
// components (queued + park + deliver) per delivered message must not
// exceed the e2e mean of merged: the residual is wire time, which is
// nonnegative. The bound allows 25% plus 2ms of scheduling slack for the
// separate clock reads on either side of a hop.
func CheckAttribution(all []telemetry.PromSample, merged *metrics.LatencyHist) []string {
	if merged.Count() == 0 {
		return nil
	}
	perMsg := telemetry.SumSeries(all, telemetry.SeriesLatencyComponent+"_sum") / float64(merged.Count())
	if e2e := merged.Mean(); perMsg > e2e*1.25+float64(2*time.Millisecond) {
		return []string{fmt.Sprintf("latency attribution components sum to %.0fns per message, more than the e2e mean %.0fns", perMsg, e2e)}
	}
	return nil
}
