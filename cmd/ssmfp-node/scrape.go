package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"

	"ssmfp/internal/harness"
	"ssmfp/internal/secure"
	"ssmfp/internal/telemetry"
)

// clientFromFlags builds the HTTP client the operator-side modes
// (-scrape, -admin) talk through, plus the scheme to assume for bare
// host:port targets. With any certificate flag set it loads the full
// identity and speaks mutual TLS; -require-tls alone (no certs) is the
// operator asking for the impossible and fails fast.
func clientFromFlags(cfg config) (*http.Client, string, error) {
	if !tlsConfigured(cfg) {
		return &http.Client{Timeout: harness.ScrapeTimeout}, "http://", nil
	}
	cred, pool, err := loadTLSIdentity(cfg)
	if err != nil {
		return nil, "", err
	}
	return &http.Client{
		Timeout:   harness.ScrapeTimeout,
		Transport: &http.Transport{TLSClientConfig: secure.ClientConfig(cred, pool)},
	}, "https://", nil
}

// checkTargetScheme enforces the plaintext policy on one explicit target
// URL: -require-tls refuses http:// outright, and an https:// target
// without a trust anchor to verify it against is unusable.
func checkTargetScheme(cfg config, url string) error {
	if cfg.requireTLS && strings.HasPrefix(url, "http://") {
		return fmt.Errorf("-require-tls: refusing plaintext target %s", url)
	}
	if strings.HasPrefix(url, "https://") && cfg.caFile == "" {
		return fmt.Errorf("target %s is TLS but no -ca/-cert/-key were given to speak it", url)
	}
	return nil
}

// nodeScrape is one endpoint's contribution to the cluster view.
type nodeScrape struct {
	Target  string   `json:"target"`
	Series  int      `json:"series"`
	Missing []string `json:"missingCoreSeries,omitempty"`
}

// scrapeSummary is what -scrape prints: one entry per endpoint, the
// cluster-wide aggregates of the headline series, and the stabilization-
// health verdict over the union of every node's samples.
type scrapeSummary struct {
	Nodes  []nodeScrape           `json:"nodes"`
	Totals map[string]float64     `json:"totals"`
	Peaks  map[string]float64     `json:"peaks"`
	Health telemetry.HealthReport `json:"health"`
}

// runScrape aggregates the /metrics endpoints in cfg.scrape into one
// cluster view through the harness cluster check. Every endpoint must
// answer and parse; with -scrape-validate the check must pass outright:
// the core series on every node and a clean merged health verdict.
func runScrape(cfg config) error {
	client, scheme, err := clientFromFlags(cfg)
	if err != nil {
		return err
	}
	var targets, urls []string
	for _, target := range strings.Split(cfg.scrape, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		url := target
		if !strings.Contains(url, "://") {
			url = scheme + url
		}
		if err := checkTargetScheme(cfg, url); err != nil {
			return err
		}
		if !strings.HasSuffix(url, "/metrics") {
			url = strings.TrimSuffix(url, "/") + "/metrics"
		}
		targets = append(targets, target)
		urls = append(urls, url)
	}
	if len(urls) == 0 {
		return fmt.Errorf("-scrape: no targets")
	}
	cs := harness.CheckCluster(client, targets, urls, false)
	sum := scrapeSummary{
		Totals: make(map[string]float64),
		Peaks:  make(map[string]float64),
		Health: cs.Health,
	}
	for i, s := range cs.Scrapes {
		if s.Err != nil {
			return fmt.Errorf("scrape %s: %w", targets[i], s.Err)
		}
		sum.Nodes = append(sum.Nodes, nodeScrape{Target: targets[i], Series: len(s.Samples), Missing: s.MissingCore()})
	}

	// Counters sum across the cluster; occupancy peaks take the maximum.
	for _, name := range []string{
		telemetry.SeriesSends, telemetry.SeriesDeliveries,
		telemetry.SeriesFramesSent, telemetry.SeriesWireFramesSent,
		telemetry.SeriesWireBytesSent, telemetry.SeriesParkEvents,
		telemetry.SeriesRetransmits,
	} {
		sum.Totals[name] = telemetry.SumSeries(cs.All, name)
	}
	for _, name := range []string{
		telemetry.SeriesBufOccupancy + "_peak",
		telemetry.SeriesPending + "_peak",
		telemetry.SeriesParked + "_peak",
	} {
		sum.Peaks[name] = telemetry.MaxSeries(cs.All, name)
	}

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))

	if cfg.scrapeValidate {
		if len(cs.Violations) > 0 {
			return fmt.Errorf("cluster fails validation: %s", strings.Join(cs.Violations, "; "))
		}
		fmt.Fprintf(os.Stderr, "ssmfp-node: %d endpoints scraped, core series present, %s\n",
			len(sum.Nodes), sum.Health)
	}
	return nil
}
