package main

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/secure"
	"ssmfp/internal/telemetry"
)

// runSpawn forks -spawn single-node copies of this binary on loopback
// TCP, waits for every node's JSON report, and judges exactly-once
// delivery across the whole cluster. It is the multi-process analogue of
// the in-process UID oracle the simulator tests use.
func runSpawn(cfg config) error {
	g, err := loadTopology(cfg)
	if err != nil {
		return err
	}
	if g.N() != cfg.spawn && cfg.n != 0 && cfg.topoFile == "" {
		return fmt.Errorf("-spawn %d and -n %d disagree", cfg.spawn, cfg.n)
	}
	if _, _, err := chaosOpts(cfg); err != nil {
		return err // reject bad -partition here, not in N children
	}
	fleet, err := harness.NewFleet()
	if err != nil {
		return err
	}
	defer fleet.Close()
	peers, peersPath, err := fleet.Peers(g.N())
	if err != nil {
		return err
	}
	topoPath, err := fleet.WriteTopology("topology.txt", g)
	if err != nil {
		return err
	}

	// TLS mode: provision one trust domain for the whole cluster in the
	// fleet dir and hand every child its own node credential. The live CA
	// stays in memory — the byzantine rogue needs it to mint observer and
	// alien-node certificates the cluster will trust.
	var (
		certs *certSet
		ca    *secure.CA
	)
	if cfg.requireTLS {
		if ca, certs, err = provisionCerts(filepath.Join(fleet.Dir, "certs"), g.N()); err != nil {
			return err
		}
	}

	children := make([]*harness.Child, 0, g.N())
	for _, p := range g.Processors() {
		c, err := fleet.Start(nodeArgs(cfg, p, topoPath, peersPath, certs)...)
		if err != nil {
			return fmt.Errorf("node %d: %v", p, err)
		}
		children = append(children, c)
	}

	// Byzantine mode: while the cluster carries its paced workload, a
	// rogue process (this one, wearing bad certificates) strikes every
	// node's wire listener with the full attack surface — untrusted
	// handshakes, role-violating frames, forged senders, replays from a
	// non-member. The ledger records exactly what was injected; the books
	// are balanced against the cluster's rejection counters below.
	var ledger *secure.RogueCounts
	if cfg.byzantine {
		counts, err := strikeCluster(cfg, g, ca, peers)
		if err != nil {
			return fmt.Errorf("byzantine strike: %w", err)
		}
		ledger = &counts
	}

	// Children stop waiting after cfg.timeout and report whatever they
	// have; allow slack on top for process startup and JSON plumbing.
	deadline := time.Now().Add(cfg.timeout + 15*time.Second)
	reports := make([]harness.Report, len(children))
	for i, c := range children {
		if err := c.Announce(&reports[i], time.Until(deadline)); err != nil {
			return fmt.Errorf("node %d: no report: %v", i, err)
		}
	}

	shares := make(map[int]int)
	for _, e := range workload(g, cfg.seed, cfg.messages) {
		shares[int(e.Src)]++
	}
	violations := harness.Judge(reports, shares)
	var merged metrics.LatencyHist
	delivered := 0
	for _, r := range reports {
		delivered += len(r.Delivered)
		if r.Hist != nil {
			merged.Merge(r.Hist)
		}
	}
	// The children are still alive (they idle on stdin until the deferred
	// close), so their /metrics endpoints are scrapeable right now — the
	// telemetry plane is judged like the delivery record.
	health, scrapeViolations := scrapeCluster(certs, reports, &merged, ledger)
	violations = append(violations, scrapeViolations...)

	summary := struct {
		Nodes      int      `json:"nodes"`
		Messages   int      `json:"messages"`
		Delivered  int      `json:"delivered"`
		Violations []string `json:"violations"`

		// Byzantine mode: the rogue's injection ledger, per category.
		Byzantine *secure.RogueCounts `json:"byzantine,omitempty"`

		// Rate mode: cluster-wide latency quantiles from the merged
		// per-node histogram shards — the shards are mergeable by
		// construction, so the cluster view is exact, not an average of
		// node quantiles.
		Latency *load.LatencySummary `json:"latency,omitempty"`

		// Health is the stabilization-health verdict over the union of
		// every node's /metrics scrape.
		Health *telemetry.HealthReport `json:"health,omitempty"`

		Reports []harness.Report `json:"reports"`
	}{Nodes: len(reports), Messages: cfg.messages, Delivered: delivered,
		Violations: violations, Byzantine: ledger, Health: health, Reports: reports}
	if merged.Count() > 0 {
		sum := load.SummarizeHist(&merged)
		summary.Latency = &sum
	}
	enc, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Println(string(enc))
	if len(violations) > 0 {
		return fmt.Errorf("%d exactly-once violations", len(violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: %d nodes, %d messages, exactly-once verified\n",
		len(reports), cfg.messages)
	if ledger != nil {
		fmt.Fprintf(os.Stderr, "ssmfp-node: byzantine books balanced — %d injected frames, every one rejected for the right reason\n",
			ledger.Total())
	}
	return nil
}

// nodeArgs is the command line of spawned node p: the launcher's
// workload and chaos flags verbatim, plus the files and credentials the
// fleet provisioned. Every child serves its debug mux so the judge can
// scrape /metrics while the node idles on stdin; -http-base gives stable
// ports, otherwise each child picks one and reports it.
func nodeArgs(cfg config, p graph.ProcessID, topoPath, peersPath string, certs *certSet) []string {
	httpAddr := "127.0.0.1:0"
	if cfg.httpBase > 0 {
		httpAddr = fmt.Sprintf("127.0.0.1:%d", cfg.httpBase+int(p))
	}
	args := []string{
		"-id", strconv.Itoa(int(p)),
		"-topology-file", topoPath,
		"-peers", peersPath,
		"-messages", strconv.Itoa(cfg.messages),
		"-send-spread", cfg.spread.String(),
		"-rate", strconv.FormatFloat(cfg.rate, 'g', -1, 64),
		"-arrival", cfg.arrival,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-tick", cfg.tick.String(),
		"-timeout", cfg.timeout.String(),
		"-loss", strconv.FormatFloat(cfg.loss, 'g', -1, 64),
		"-dup", strconv.FormatFloat(cfg.dup, 'g', -1, 64),
		"-latency", cfg.latency.String(),
		"-jitter", cfg.jitter.String(),
		"-partition", cfg.partitions,
		"-http", httpAddr,
	}
	if cfg.telemetryOut != "" {
		args = append(args,
			"-telemetry-out", fmt.Sprintf("%s.node%d", cfg.telemetryOut, p),
			"-telemetry-every", cfg.telemetryEvery.String())
	}
	if certs != nil {
		args = append(args,
			"-require-tls",
			"-ca", certs.caCert(),
			"-cert", certs.nodeCert(p),
			"-key", certs.nodeKey(p))
	}
	return args
}

// strikeCluster waits until every node's wire listener answers a mutual-
// TLS probe, then drives the rogue's full attack surface against each
// one. The probe uses a fresh operator credential: its handshake
// *succeeds*, so it never pollutes the handshake-rejection counter the
// ledger audit later insists on balancing exactly.
func strikeCluster(cfg config, g *graph.Graph, ca *secure.CA, peers map[graph.ProcessID]string) (secure.RogueCounts, error) {
	probe, err := ca.Issue("spawn-probe", secure.RoleOperator)
	if err != nil {
		return secure.RogueCounts{}, err
	}
	conf := secure.ClientConfig(probe, ca.Pool())
	targets := make([]string, 0, g.N())
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range g.Processors() {
		addr := peers[p]
		for {
			conn, derr := tls.DialWithDialer(&net.Dialer{Timeout: time.Second}, "tcp", addr, conf)
			if derr == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				return secure.RogueCounts{}, fmt.Errorf("node %d never listened on %s: %v", p, addr, derr)
			}
			time.Sleep(50 * time.Millisecond)
		}
		targets = append(targets, addr)
	}
	// The rogue impersonates a real member (node 0) and also holds a
	// valid certificate for a processor the topology has never heard of.
	rogue, err := secure.NewRogue(ca, 0, graph.ProcessID(g.N()+9), targets)
	if err != nil {
		return secure.RogueCounts{}, err
	}
	return rogue.Strike(cfg.burst)
}

// scrapeCluster judges the telemetry plane the way harness.Judge judges
// the delivery ledger: the harness cluster check over every node's
// /metrics, each node's occupancy peaks against its own ledger, and in
// rate mode the latency-attribution bound against the merged end-to-end
// histogram.
//
// With certs the children serve /metrics behind mutual TLS, so the judge
// scrapes as an operator. With a byzantine ledger the secure-rejection
// health flag is *expected*, and the cluster's per-reason rejection
// counters must balance the ledger exactly.
func scrapeCluster(certs *certSet, reports []harness.Report, merged *metrics.LatencyHist, ledger *secure.RogueCounts) (*telemetry.HealthReport, []string) {
	var violations []string
	badf := func(format string, a ...any) {
		violations = append(violations, fmt.Sprintf(format, a...))
	}
	var operator config
	if certs != nil {
		operator = config{caFile: certs.caCert(),
			certFile: certs.roleCert(secure.RoleOperator), keyFile: certs.roleKey(secure.RoleOperator)}
	}
	client, scheme, err := clientFromFlags(operator)
	if err != nil {
		badf("loading the operator scrape credential: %v", err)
		return nil, violations
	}
	var (
		scraped     []harness.Report
		names, urls []string
	)
	for _, r := range reports {
		if r.MetricsAddr == "" {
			badf("node %d reported no metrics address", r.ID)
			continue
		}
		scraped = append(scraped, r)
		names = append(names, fmt.Sprintf("node %d", r.ID))
		urls = append(urls, scheme+r.MetricsAddr+"/metrics")
	}
	cs := harness.CheckCluster(client, names, urls, ledger != nil)
	violations = append(violations, cs.Violations...)
	for i, s := range cs.Scrapes {
		if s.Err == nil {
			violations = append(violations, scraped[i].CheckPeaks(s.Samples)...)
		}
	}
	if len(cs.All) == 0 {
		return nil, violations
	}
	if ledger != nil {
		if ledger.Total() > 0 && !flaggedSecure(cs.Health) {
			badf("rogue injected %d frames but the cluster counted no secure rejections", ledger.Total())
		}
		violations = append(violations, auditLedger(client, urls, cs.All, *ledger)...)
	}
	violations = append(violations, harness.CheckAttribution(cs.All, merged)...)
	return &cs.Health, violations
}

func flaggedSecure(h telemetry.HealthReport) bool {
	for _, f := range h.Flags {
		if f.SecureFlag() {
			return true
		}
	}
	return false
}

// auditLedger balances the byzantine books: every frame the rogue
// injected must appear in exactly the right rejection counter, summed
// across the cluster. The victims count asynchronously to the rogue's
// writes, so the audit re-sweeps urls until no counter runs short of the
// ledger (bounded), then insists on exact equality.
func auditLedger(client *http.Client, urls []string, all []telemetry.PromSample, ledger secure.RogueCounts) []string {
	violations, short := balanceLedger(all, ledger)
	for deadline := time.Now().Add(10 * time.Second); short && time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		if fresh, ok := harness.Union(harness.Sweep(client, urls)); ok {
			violations, short = balanceLedger(fresh, ledger)
		}
	}
	return violations
}

// balanceLedger compares the cluster's per-reason rejection counters in
// samples against the rogue's ledger. short reports whether any counter
// is still below its ledger entry (the audit waits on that); an overshoot
// means the trust domain rejected traffic the rogue never sent, which is
// just as much an accounting failure as a miss.
func balanceLedger(samples []telemetry.PromSample, ledger secure.RogueCounts) (violations []string, short bool) {
	want := map[string]float64{
		secure.ReasonHandshake:  float64(ledger.Handshake),
		secure.ReasonRole:       float64(ledger.Role),
		secure.ReasonSender:     float64(ledger.Sender),
		secure.ReasonMembership: float64(ledger.Membership),
		secure.ReasonAdmin:      0, // nothing touched the admin plane
	}
	for _, reason := range secure.Reasons {
		got := telemetry.SumSeriesLabel(samples, telemetry.SeriesSecureRejected, "reason", reason)
		if got != want[reason] {
			short = short || got < want[reason]
			violations = append(violations, fmt.Sprintf(
				"byzantine books don't balance: reason %q counted %g rejections, rogue ledger says %g",
				reason, got, want[reason]))
		}
	}
	return violations, short
}
