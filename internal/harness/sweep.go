package harness

import (
	"fmt"
	"net/http"

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
