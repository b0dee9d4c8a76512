package harness

import (
	"crypto/tls"
	"fmt"
	"maps"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/secure"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
)

// ScrapeTimeout bounds one GET of a node's /metrics endpoint.
const ScrapeTimeout = 5 * time.Second

// NodeFiles are the files the fleet provisioned for one child's command
// line. The credential paths are empty in plaintext runs.
type NodeFiles struct {
	Topology, Peers string
	CA, Cert, Key   string
}

// NodeArgs is the command line of processor p's child, which finds its
// wire listener under ListenerFD.
type NodeArgs func(p graph.ProcessID, f NodeFiles) []string

// SpawnInput is one spawn run: the cluster to fork, the plan its nodes
// share, and whether to secure and strike it.
type SpawnInput struct {
	Topology *graph.Graph
	// Plan is the cluster-wide send plan every node derives from the same
	// seed; the judge holds node i to its share of it.
	Plan []load.PlanEntry
	// Timeout is how long a child waits for its deliveries; the judge
	// allows 15 s more for process startup and reporting.
	Timeout time.Duration
	// TLS provisions a trust domain in the fleet directory: every link
	// and every scrape runs over mutual TLS.
	TLS bool
	// Byzantine, which implies TLS, strikes the cluster with Burst frames
	// per attack category per node and audits the rejections against them.
	Byzantine bool
	Burst     int
	Args      NodeArgs
}

// SpawnSummary is the spawn judge's verdict, printed as JSON.
type SpawnSummary struct {
	Nodes      int      `json:"nodes"`
	Messages   int      `json:"messages"`
	Delivered  int      `json:"delivered"`
	Violations []string `json:"violations"`

	// Byzantine mode: the rogue's injection ledger, per category.
	Byzantine *secure.RogueCounts `json:"byzantine,omitempty"`

	// Rate mode: cluster-wide latency quantiles from the merged per-node
	// histogram shards — the shards are mergeable by construction, so the
	// cluster view is exact, not an average of node quantiles.
	Latency *load.LatencySummary `json:"latency,omitempty"`

	// Health is the stabilization-health verdict over the union of every
	// node's /metrics scrape.
	Health *telemetry.HealthReport `json:"health,omitempty"`

	Reports []Report `json:"reports"`
}

// Spawn forks one single-node child per processor of in.Topology on
// loopback, waits for every node's report, and judges exactly-once
// delivery across the whole cluster plus each node's /metrics. It is the
// multi-process analogue of the in-process uid oracle the simulator
// tests use. An error means the run could not be judged at all.
func Spawn(f *Fleet, in SpawnInput) (SpawnSummary, error) {
	g := in.Topology
	peers, peersPath, err := f.Peers(g.N())
	if err != nil {
		return SpawnSummary{}, err
	}
	topoPath, err := f.WriteTopology("topology.txt", g)
	if err != nil {
		return SpawnSummary{}, err
	}

	// TLS mode: one trust domain for the whole cluster, each child handed
	// its own node credential. The live CA stays in memory: it issues the
	// judge's operator credential, and the rogue's certificates.
	client, scheme := &http.Client{Timeout: ScrapeTimeout}, "http://"
	var (
		dom      secure.Domain
		ca       *secure.CA
		operator *secure.Credential
	)
	if in.TLS || in.Byzantine {
		if ca, dom, err = secure.Provision(filepath.Join(f.Dir, "certs"), g.N()); err != nil {
			return SpawnSummary{}, err
		}
		if operator, err = ca.Issue("spawn-operator", secure.RoleOperator); err != nil {
			return SpawnSummary{}, err
		}
		client.Transport = &http.Transport{TLSClientConfig: secure.ClientConfig(operator, ca.Pool())}
		scheme = "https://"
	}

	children := make([]*Child, 0, g.N())
	for _, p := range g.Processors() {
		files := NodeFiles{Topology: topoPath, Peers: peersPath}
		if ca != nil {
			files.CA, files.Cert, files.Key = dom.CACert(), dom.NodeCert(p), dom.NodeKey(p)
		}
		c, err := f.Start(p, in.Args(p, files)...)
		if err != nil {
			return SpawnSummary{}, fmt.Errorf("node %d: %v", p, err)
		}
		children = append(children, c)
	}

	// Byzantine mode: while the cluster carries its paced workload, a
	// rogue (this process, wearing bad certificates) strikes every node's
	// wire listener with the full attack surface — untrusted handshakes,
	// role-violating frames, forged senders, replays from a non-member.
	// The ledger records exactly what was injected; the books are
	// balanced against the cluster's rejection counters below.
	var ledger *secure.RogueCounts
	if in.Byzantine {
		counts, err := strikeCluster(g, ca, operator, peers, in.Burst)
		if err != nil {
			return SpawnSummary{}, fmt.Errorf("byzantine strike: %w", err)
		}
		ledger = &counts
	}

	deadline := time.Now().Add(in.Timeout + 15*time.Second)
	reports := make([]Report, len(children))
	for i, c := range children {
		if err := c.Announce(&reports[i], time.Until(deadline)); err != nil {
			return SpawnSummary{}, fmt.Errorf("node %d: no report: %v", i, err)
		}
	}

	shares := make(map[int]int)
	for _, e := range in.Plan {
		shares[int(e.Src)]++
	}
	violations := Judge(reports, shares)
	var merged metrics.LatencyHist
	delivered := 0
	for _, r := range reports {
		delivered += len(r.Delivered)
		if r.Hist != nil {
			merged.Merge(r.Hist)
		}
	}
	// The children are still alive (they idle on stdin until the fleet
	// closes), so their /metrics endpoints are scrapeable right now: the
	// telemetry plane is judged like the delivery record.
	health, scrapeViolations := scrapeCluster(client, scheme, reports, &merged, ledger)
	sum := SpawnSummary{Nodes: len(reports), Messages: len(in.Plan), Delivered: delivered,
		Violations: append(violations, scrapeViolations...), Byzantine: ledger, Health: health, Reports: reports}
	if merged.Count() > 0 {
		lat := load.SummarizeHist(&merged)
		sum.Latency = &lat
	}
	return sum, nil
}

// strikeCluster waits until every node's wire listener answers a mutual-
// TLS probe, then drives the rogue's full attack surface against each
// one. The probe speaks as the operator: its handshake *succeeds*, so it
// never pollutes the handshake-rejection counter the ledger audit later
// insists on balancing exactly.
func strikeCluster(g *graph.Graph, ca *secure.CA, operator *secure.Credential,
	peers map[graph.ProcessID]string, burst int) (secure.RogueCounts, error) {
	conf := secure.ClientConfig(operator, ca.Pool())
	targets := make([]string, 0, g.N())
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range g.Processors() {
		addr := peers[p]
		var derr error
		if !poll(time.Until(deadline), func() bool {
			conn, err := tls.DialWithDialer(&net.Dialer{Timeout: time.Second}, "tcp", addr, conf)
			if derr = err; err == nil {
				conn.Close()
			}
			return err == nil
		}) {
			return secure.RogueCounts{}, fmt.Errorf("node %d never listened on %s: %v", p, addr, derr)
		}
		targets = append(targets, addr)
	}
	// The rogue impersonates a real member (node 0) and also holds a
	// valid certificate for a processor the topology has never heard of.
	rogue, err := secure.NewRogue(ca, 0, graph.ProcessID(g.N()+9), targets)
	if err != nil {
		return secure.RogueCounts{}, err
	}
	return rogue.Strike(burst)
}

// scrapeCluster judges the telemetry plane the way Judge judges the
// delivery ledger: the cluster check over every node's /metrics, each
// node's occupancy peaks against its own ledger, and in rate mode the
// latency-attribution bound against the merged end-to-end histogram.
// scheme prefixes each node's metrics address. With a byzantine ledger
// the secure-rejection health flag is *expected*, and the cluster's
// per-reason rejection counters must balance the ledger exactly.
func scrapeCluster(client *http.Client, scheme string, reports []Report, merged *metrics.LatencyHist,
	ledger *secure.RogueCounts) (*telemetry.HealthReport, []string) {
	var (
		violations  []string
		scraped     []Report
		names, urls []string
	)
	for _, r := range reports {
		if r.MetricsAddr == "" {
			violations = append(violations, fmt.Sprintf("node %d reported no metrics address", r.ID))
			continue
		}
		scraped = append(scraped, r)
		names = append(names, fmt.Sprintf("node %d", r.ID))
		urls = append(urls, scheme+r.MetricsAddr+"/metrics")
	}
	cs := CheckCluster(client, names, urls, ledger != nil)
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
		if ledger.Total() > 0 && !slices.ContainsFunc(cs.Health.Flags, telemetry.HealthFlagged.SecureFlag) {
			violations = append(violations, fmt.Sprintf(
				"rogue injected %d frames but the cluster counted no secure rejections", ledger.Total()))
		}
		violations = append(violations, auditLedger(client, urls, cs.All, *ledger)...)
	}
	violations = append(violations, CheckAttribution(cs.All, merged)...)
	return &cs.Health, violations
}

// auditLedger balances the byzantine books: every frame the rogue
// injected must appear in exactly the right rejection counter, summed
// across the cluster. The victims count asynchronously to the rogue's
// writes, so while a counter runs short of the ledger the audit re-sweeps
// urls (bounded), then insists on exact equality.
func auditLedger(client *http.Client, urls []string, all []telemetry.PromSample, ledger secure.RogueCounts) []string {
	violations, short := BalanceLedger(all, ledger)
	if short {
		poll(10*time.Second, func() bool {
			if fresh, ok := Union(Sweep(client, urls)); ok {
				violations, short = BalanceLedger(fresh, ledger)
			}
			return !short
		})
	}
	return violations
}

// BalanceLedger compares the cluster's per-reason rejection counters in
// samples against the rogue's ledger. short reports whether any counter
// is still below its ledger entry (the audit waits on that); an overshoot
// means the trust domain rejected traffic the rogue never sent, which is
// just as much an accounting failure as a miss.
func BalanceLedger(samples []telemetry.PromSample, ledger secure.RogueCounts) (violations []string, short bool) {
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

// Banner is the one JSON line a -serve node prints at startup: its
// identity and where its admin/debug endpoint listens. Operator tooling,
// and the elastic judge, read it to find the node.
type Banner struct {
	ID        int    `json:"id"`
	AdminAddr string `json:"adminAddr"`
	Epoch     uint64 `json:"epoch"`
}

// ElasticSummary is the churn judge's verdict, printed as JSON.
type ElasticSummary struct {
	Nodes      int                  `json:"nodes"`
	Joined     []graph.ProcessID    `json:"joined"`
	Cut        [2]graph.ProcessID   `json:"cut"`
	Drained    graph.ProcessID      `json:"drained"`
	Healed     [][2]graph.ProcessID `json:"healed"`
	Epoch      uint64               `json:"epoch"`
	Sent       int                  `json:"sent"`
	Delivered  int                  `json:"delivered"`
	Violations []string             `json:"violations"`
}

// Elastic is the churn judge. It forks a base ring of n serve nodes
// (n >= 4) on loopback TCP, args giving each child's command line: no
// workload, the admin API on a debug mux whose address the child
// announces in its Banner. It then drives the full membership lifecycle
// against them from an operator console while background injectors keep
// live traffic flowing:
//
//  1. join two fresh nodes (new slots, new wires, epoch broadcast),
//  2. gracefully cut one base link (two-phase: routing off, then wire),
//  3. drain one base member under the sustained load and watch its
//     process exit once the detach epoch lands,
//
// and finally verifies exactly-once delivery over everything injected
// across all of it, joining the live nodes' delivery ledgers with the
// drained node's ledger (cached before its process left). UID streams
// restart with a node's incarnation, so the ledger keys on
// (payload, uid) — every injection stream here uses a distinct payload.
// timeout bounds each wait for injected messages to arrive. An error
// means the scenario could not be driven to its end.
func Elastic(f *Fleet, n int, timeout time.Duration, args NodeArgs) (ElasticSummary, error) {
	if n < 4 {
		return ElasticSummary{}, fmt.Errorf("elastic churn needs a base ring of at least 4 nodes (got %d)", n)
	}
	joinA := graph.ProcessID(n)     // joins on (A,0) and (A,2)
	joinB := graph.ProcessID(n + 1) // joins on (B,1) and (B,3)
	drainTarget := graph.ProcessID(n - 1)

	// One loopback wire listener per slot, joiners included: the peers
	// file covers the whole slot space up front, so every child — present
	// and future — can dial every other. (The epochs redundantly carry the
	// same address book; a real deployment would rely on that instead.)
	wire, peersPath, err := f.Peers(n + 2)
	if err != nil {
		return ElasticSummary{}, err
	}

	// Topology files: the base ring for the initial members, and one
	// successively larger graph per joiner — a joining process boots on
	// the post-join topology (it brings its own wires up; the epoch
	// brings everyone else's).
	base := graph.Ring(n)
	joinedA, err := buildTopo(n+1, append(base.Edges(),
		[2]graph.ProcessID{joinA, 0}, [2]graph.ProcessID{joinA, 2}))
	if err != nil {
		return ElasticSummary{}, err
	}
	joinedB, err := buildTopo(n+2, append(joinedA.Edges(),
		[2]graph.ProcessID{joinB, 1}, [2]graph.ProcessID{joinB, 3}))
	if err != nil {
		return ElasticSummary{}, err
	}
	topoPaths := make(map[*graph.Graph]string)
	for name, g := range map[string]*graph.Graph{"base.txt": base, "join-a.txt": joinedA, "join-b.txt": joinedB} {
		if topoPaths[g], err = f.WriteTopology(name, g); err != nil {
			return ElasticSummary{}, err
		}
	}

	// boot forks one serve node on topology g and waits for its startup
	// banner; nodes maps every live member to its admin client.
	nodes := make(map[graph.ProcessID]*cluster.HTTPClient)
	boot := func(id graph.ProcessID, g *graph.Graph) (*Child, error) {
		c, err := f.Start(id, args(id, NodeFiles{Topology: topoPaths[g], Peers: peersPath})...)
		if err != nil {
			return nil, fmt.Errorf("node %d: %v", id, err)
		}
		var b Banner
		if err := c.Announce(&b, 15*time.Second); err != nil {
			return nil, fmt.Errorf("node %d: no startup banner: %v", id, err)
		}
		nodes[id] = cluster.NewHTTPClient("http://" + b.AdminAddr)
		return c, nil
	}

	// Base ring up, console over it.
	mgr := cluster.NewManager(graph.NewTopology(base))
	mgr.PollInterval = 25 * time.Millisecond
	var drainProc *Child
	for p := graph.ProcessID(0); int(p) < n; p++ {
		c, err := boot(p, base)
		if err != nil {
			return ElasticSummary{}, err
		}
		if p == drainTarget {
			drainProc = c
		}
		mgr.Attach(p, nodes[p], wire[p])
	}
	for p := graph.ProcessID(0); int(p) < n; p++ {
		st, err := nodes[p].Status()
		if err != nil {
			return ElasticSummary{}, fmt.Errorf("node %d never answered status: %w", p, err)
		}
		if len(st.Members) != n {
			return ElasticSummary{}, fmt.Errorf("node %d booted with %d members, want %d", p, len(st.Members), n)
		}
	}

	// Sustained background load between base members that stay put for
	// the whole scenario; it keeps flowing through every membership
	// change, including straight through the draining node (0↔2 transits
	// the n-1 side of the ring once (0,1) is cut).
	// The stream goroutines get their own copy of the base members'
	// clients: nodes itself changes as members join and leave.
	led := &ledger{}
	baseNodes := maps.Clone(nodes)
	inject := func(src, dst graph.ProcessID, count int, payload string) ([]uint64, error) {
		rep, err := baseNodes[src].Inject(src, dst, count, payload)
		if err != nil {
			return nil, err
		}
		return rep.UIDs, nil
	}
	streams := []load.SustainedStream{
		{Src: 0, Dst: 2, Payload: "load-0-2"},
		{Src: 2, Dst: 0, Payload: "load-2-0"},
	}
	stopLoad := load.Sustain(inject, streams, func(s load.SustainedStream, uids []uint64) {
		led.add(s.Payload, s.Dst, uids)
	})

	violations := []string{}
	badf := func(format string, a ...any) { violations = append(violations, fmt.Sprintf(format, a...)) }

	// Join two nodes under load.
	for _, j := range []struct {
		id    graph.ProcessID
		topo  *graph.Graph
		peers []graph.ProcessID
	}{{joinA, joinedA, []graph.ProcessID{0, 2}}, {joinB, joinedB, []graph.ProcessID{1, 3}}} {
		if _, err := boot(j.id, j.topo); err != nil {
			return ElasticSummary{}, fmt.Errorf("joiner %d: %w", j.id, err)
		}
		if err := mgr.JoinNode(j.id, wire[j.id], nodes[j.id], j.peers...); err != nil {
			return ElasticSummary{}, fmt.Errorf("join %d: %w", j.id, err)
		}
		out := fmt.Sprintf("join-%d-out", j.id)
		into := fmt.Sprintf("join-%d-in", j.id)
		rep, err := mgr.Inject(j.id, j.peers[1], 20, out)
		if err != nil {
			return ElasticSummary{}, fmt.Errorf("inject from joiner %d: %w", j.id, err)
		}
		led.add(out, j.peers[1], rep.UIDs)
		rep, err = mgr.Inject(j.peers[0], j.id, 20, into)
		if err != nil {
			return ElasticSummary{}, fmt.Errorf("inject to joiner %d: %w", j.id, err)
		}
		led.add(into, j.id, rep.UIDs)
	}

	// Graceful link cut under load: (0,1) is safe to lose — the ring
	// minus it is a line, and the joiners add chords besides.
	if err := mgr.CutLink(0, 1); err != nil {
		return ElasticSummary{}, fmt.Errorf("cut (0,1): %w", err)
	}

	// Burst at the drain target, wait for the burst to land there, cache
	// its ledger — its process exits when the detach epoch arrives, so
	// the judge must hold its deliveries before asking for the drain.
	const burst = 30
	rep, err := mgr.Inject(0, drainTarget, burst, "drain-burst")
	if err != nil {
		return ElasticSummary{}, fmt.Errorf("drain burst: %w", err)
	}
	drainSent := led.add("drain-burst", drainTarget, rep.UIDs)
	drainedLedger, err := collectDeliveries(map[graph.ProcessID]*cluster.HTTPClient{drainTarget: nodes[drainTarget]},
		nil, drainSent, timeout)
	if err != nil {
		return ElasticSummary{}, fmt.Errorf("drain burst at node %d: %w", drainTarget, err)
	}
	healed, err := mgr.Drain(drainTarget)
	if err != nil {
		return ElasticSummary{}, fmt.Errorf("drain %d: %w", drainTarget, err)
	}
	if !drainProc.Reap(10 * time.Second) {
		badf("node %d did not exit after its detach epoch", drainTarget)
	}
	delete(nodes, drainTarget)

	// Load off (stopLoad waits out the stream goroutines); judge everything.
	stopLoad()
	sent := led.sent

	delivered, verr := collectDeliveries(nodes, drainedLedger, sent, timeout)
	if verr != nil {
		badf("%v", verr)
	}
	violations = append(violations, spec.Fold(sent, delivered).Lines...)

	// Final control-plane coherence: every surviving node at the console's
	// epoch, membership = base + 2 joiners - 1 drained, no status errors.
	cs := mgr.Status()
	for id, msg := range cs.Errors {
		badf("node %d status: %s", id, msg)
	}
	if want := n + 1; len(cs.Members) != want {
		badf("cluster has %d members, want %d", len(cs.Members), want)
	}
	for id, st := range cs.Nodes {
		if st.Epoch != cs.Epoch.Seq {
			badf("node %d at epoch %d, console at %d", id, st.Epoch, cs.Epoch.Seq)
		}
	}

	return ElasticSummary{
		Nodes:      len(cs.Members),
		Joined:     []graph.ProcessID{joinA, joinB},
		Cut:        [2]graph.ProcessID{0, 1},
		Drained:    drainTarget,
		Healed:     healed,
		Epoch:      cs.Epoch.Seq,
		Sent:       len(sent),
		Delivered:  len(delivered),
		Violations: violations,
	}, nil
}

// buildTopo assembles and freezes a graph from a slot count and edge set.
func buildTopo(slots int, edges [][2]graph.ProcessID) (*graph.Graph, error) {
	topo, err := cluster.Topology(slots, edges)
	if err != nil {
		return nil, err
	}
	return topo.Build()
}

// ledger records every injected message for the verdict. The sustained
// streams append from their own goroutines.
type ledger struct {
	mu   sync.Mutex
	sent []spec.Sent
}

// add records one accepted injection and returns its records.
func (l *ledger) add(payload string, dst graph.ProcessID, uids []uint64) []spec.Sent {
	batch := make([]spec.Sent, len(uids))
	for i, uid := range uids {
		batch[i] = spec.Sent{Key: spec.Key{Payload: payload, UID: uid}, Dst: dst}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = append(l.sent, batch...)
	return batch
}

// collectDeliveries polls the ledgers of nodes until every message in
// sent shows up valid in them or in cached (records kept from nodes that
// have left), or the timeout passes. It returns every delivery record of
// the last poll, cached ones included; a timeout error says how much of
// sent arrived and names the last failed poll, if any.
func collectDeliveries(nodes map[graph.ProcessID]*cluster.HTTPClient, cached []spec.Delivered,
	sent []spec.Sent, timeout time.Duration) ([]spec.Delivered, error) {
	var (
		all     []spec.Delivered
		arrived int
		lastErr error
	)
	if poll(timeout, func() bool {
		all, lastErr = append([]spec.Delivered(nil), cached...), nil
		for id, hc := range nodes {
			ds, err := hc.Deliveries()
			if err != nil {
				lastErr = fmt.Errorf("node %d ledger: %w", id, err)
				continue
			}
			for _, d := range ds {
				all = append(all, spec.Delivered{Key: spec.Key{Payload: d.Payload, UID: d.UID}, At: d.At, Valid: d.Valid})
			}
		}
		arrived = len(sent) - len(spec.Fold(sent, all).Lost)
		return arrived == len(sent) && lastErr == nil
	}) {
		return all, nil
	}
	err := fmt.Errorf("%d of %d messages arrived within %v", arrived, len(sent), timeout)
	if lastErr != nil {
		err = fmt.Errorf("%v; last poll failed: %w", err, lastErr)
	}
	return all, err
}

// poll calls try every 100 ms until it reports done or timeout passes,
// and reports whether it did.
func poll(timeout time.Duration, try func() bool) bool {
	for deadline := time.Now().Add(timeout); ; time.Sleep(100 * time.Millisecond) {
		if try() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}
