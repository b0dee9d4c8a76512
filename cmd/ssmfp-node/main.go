// Command ssmfp-node runs one processor of a message-passing SSMFP
// deployment over real TCP, and launches, judges and operates such
// deployments; the judges live in internal/harness.
//
// Node mode (-id): every participating OS process is given the same
// topology, peer address map and seed, and runs one processor. Each
// derives the cluster-wide send plan from the seed (load.BuildPlan),
// sends its own share, and once its expected deliveries arrived (or
// -timeout elapsed) prints one JSON line with its send and delivery
// ledger (harness.Report). It keeps forwarding for the other nodes until
// its stdin reaches EOF; every counter is served on its /metrics.
//
//	ssmfp-node -id 2 -topology ring -n 5 -peers peers.txt \
//	    -messages 30 -seed 7 -loss 0.1 -dup 0.1 -jitter 1ms
//
// Launchers fork copies of this binary on loopback, hand each its bound
// wire listener (-listen-fd), and print a judge's JSON summary. -spawn
// runs harness.Spawn (over mutual TLS with -require-tls, under a rogue's
// attack with -byzantine); -elastic runs harness.Elastic, the churn
// judge over -serve members. Exit status is 0 iff the judge found no
// violation; exactly-once delivery of every valid message comes first.
//
//	ssmfp-node -spawn 5 -topology ring -messages 30 -seed 7 \
//	    -loss 0.10 -dup 0.10 -latency 200us -jitter 1ms \
//	    -partition 400ms:600ms:0-1 -timeout 60s
//
// With -rate R the cluster paces the plan at R messages/second, tags
// payloads with their scheduled instants, and the judge merges the
// nodes' histogram shards into cluster-wide latency quantiles.
//
// Operator modes: -serve (a long-lived cluster member), -admin (one
// operation against a running cluster), -scrape (a /metrics cluster
// view) and -gen-certs (a trust domain on disk).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
	"ssmfp/internal/load"
	"ssmfp/internal/spec"
	"ssmfp/internal/transport"
)

type config struct {
	id       int
	spawn    int
	topology string
	n        int
	topoFile string
	peers    string
	listenFD int
	messages int
	spread   time.Duration
	rate     float64
	arrival  string
	seed     int64
	tick     time.Duration
	timeout  time.Duration

	loss       float64
	dup        float64
	latency    time.Duration
	jitter     time.Duration
	partitions string

	httpAddr       string
	httpBase       int
	telemetryOut   string
	telemetryEvery time.Duration
	scrape         string
	scrapeValidate bool

	// Elastic-cluster operator plane (see internal/cluster).
	serve     bool
	elastic   bool
	admin     string
	target    string
	targets   string
	proc      int
	from      int
	to        int
	count     int
	linkU     int
	linkV     int
	payload   string
	epochFile string

	// Secure transport: mutual-TLS links and certificate-carried roles
	// (see internal/secure).
	caFile     string
	certFile   string
	keyFile    string
	requireTLS bool
	genCerts   bool
	certsDir   string
	byzantine  bool
	burst      int
}

func main() {
	var cfg config
	flag.IntVar(&cfg.id, "id", -1, "processor ID this process runs (single-node mode)")
	flag.IntVar(&cfg.spawn, "spawn", 0, "fork this many single-node copies on loopback and judge them")
	flag.StringVar(&cfg.topology, "topology", "ring", "named topology: ring, line, star, complete")
	flag.IntVar(&cfg.n, "n", 0, "processor count for -topology (defaults to -spawn, else required)")
	flag.StringVar(&cfg.topoFile, "topology-file", "", "topology file (overrides -topology/-n; see internal/graph.Parse)")
	flag.StringVar(&cfg.peers, "peers", "", "peer address file: one \"<id> <host:port>\" per line")
	flag.IntVar(&cfg.listenFD, "listen-fd", 0, "serve the wire on the listener inherited as this file descriptor instead of binding this node's -peers address (set by the -spawn and -elastic launchers)")
	flag.IntVar(&cfg.messages, "messages", 20, "total messages in the cluster-wide workload")
	flag.DurationVar(&cfg.spread, "send-spread", 0, "inject the workload uniformly over this window instead of all at once (lets sends straddle -partition cuts)")
	flag.Float64Var(&cfg.rate, "rate", 0, "pace the workload at this cluster-wide offered rate in messages/second, tagging payloads for latency measurement (0 = burst mode)")
	flag.StringVar(&cfg.arrival, "arrival", "poisson", "arrival process for -rate: poisson or constant")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for workload, chaos and protocol randomness")
	flag.DurationVar(&cfg.tick, "tick", 2*time.Millisecond, "node timer period (gossip + retransmission)")
	flag.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "give up waiting for deliveries after this long")
	flag.Float64Var(&cfg.loss, "loss", 0, "chaos: drop each frame with this probability")
	flag.Float64Var(&cfg.dup, "dup", 0, "chaos: duplicate each frame with this probability")
	flag.DurationVar(&cfg.latency, "latency", 0, "chaos: base one-way frame delay")
	flag.DurationVar(&cfg.jitter, "jitter", 0, "chaos: extra uniform per-frame delay (reorders the wire)")
	flag.StringVar(&cfg.partitions, "partition", "", "chaos: partition windows \"start:dur:u-v[;u-v]\" (comma-separated)")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve the debug mux (/metrics, /debug/ssmfp, /debug/pprof) on this address; 127.0.0.1:0 picks a port, reported as metricsAddr")
	flag.IntVar(&cfg.httpBase, "http-base", 0, "spawn mode: child i serves its debug mux on 127.0.0.1:(base+i); 0 gives every child an ephemeral port")
	flag.StringVar(&cfg.telemetryOut, "telemetry-out", "", "append ssmfp-telemetry/v1 JSONL snapshots to this file (spawn mode: one file per child, suffixed .node<i>)")
	flag.DurationVar(&cfg.telemetryEvery, "telemetry-every", time.Second, "snapshot period for -telemetry-out")
	flag.StringVar(&cfg.scrape, "scrape", "", "scrape mode: comma-separated /metrics endpoints to aggregate into a cluster view (no node is run)")
	flag.BoolVar(&cfg.scrapeValidate, "scrape-validate", false, "scrape mode: exit nonzero unless every endpoint parses, carries the core series, and the cluster passes the stabilization-health checks")
	flag.BoolVar(&cfg.serve, "serve", false, "run as a long-lived cluster member: no workload, admin API on -http, reconfigure via epochs until drained out or stdin EOF")
	flag.BoolVar(&cfg.elastic, "elastic", false, "churn judge: fork a -spawn-sized serve cluster, join two nodes, cut a link and drain one under live load, verify exactly-once")
	flag.StringVar(&cfg.admin, "admin", "", "operator op against a running cluster: status, inject, quiesce, drain, add-link, cut-link, epoch (needs -target or -targets)")
	flag.StringVar(&cfg.target, "target", "", "admin mode: one node's admin base URL, e.g. http://127.0.0.1:8080")
	flag.StringVar(&cfg.targets, "targets", "", "admin mode: cluster address book \"id=url,id=url\" (required for drain/add-link/cut-link)")
	flag.IntVar(&cfg.proc, "proc", -1, "admin mode: processor operand for drain/quiesce")
	flag.IntVar(&cfg.from, "from", -1, "admin inject: source processor")
	flag.IntVar(&cfg.to, "to", -1, "admin inject: destination processor")
	flag.IntVar(&cfg.count, "count", 1, "admin inject: number of messages")
	flag.IntVar(&cfg.linkU, "u", -1, "admin add-link/cut-link: one endpoint")
	flag.IntVar(&cfg.linkV, "v", -1, "admin add-link/cut-link: other endpoint")
	flag.StringVar(&cfg.payload, "payload", "inject", "admin inject: message payload")
	flag.StringVar(&cfg.epochFile, "epoch-file", "", "admin epoch: JSON Epoch file to POST at -target")
	flag.StringVar(&cfg.caFile, "ca", "", "cluster CA certificate PEM; with -cert/-key the node speaks mutual TLS on every link and the admin plane enforces certificate roles")
	flag.StringVar(&cfg.certFile, "cert", "", "this process's certificate PEM: a node-<id> role cert in node mode, an operator/observer cert in -admin and -scrape modes")
	flag.StringVar(&cfg.keyFile, "key", "", "private key PEM for -cert")
	flag.BoolVar(&cfg.requireTLS, "require-tls", false, "refuse plaintext: nodes fail to boot without -ca/-cert/-key, client modes refuse http:// targets; spawn mode provisions a CA and per-node credentials for the whole cluster")
	flag.BoolVar(&cfg.genCerts, "gen-certs", false, "mint a cluster CA plus node-0..n-1, operator and observer credentials into -certs-dir and exit (needs -n)")
	flag.StringVar(&cfg.certsDir, "certs-dir", "ssmfp-certs", "directory -gen-certs writes the trust domain into")
	flag.BoolVar(&cfg.byzantine, "byzantine", false, "byzantine judge: fork a mutual-TLS -spawn cluster under -rate load, strike it with forged, replayed and role-violating frames from rogue certificates, and verify exactly-once plus per-reason rejection accounting")
	flag.IntVar(&cfg.burst, "burst", 5, "byzantine mode: frames injected per attack category per node")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ssmfp-node: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.genCerts {
		return runGenCerts(cfg)
	}
	if cfg.scrape != "" {
		return runScrape(cfg)
	}
	if cfg.admin != "" {
		return runAdmin(cfg)
	}
	if cfg.elastic {
		return runElastic(cfg)
	}
	if cfg.byzantine {
		// The byzantine judge is the TLS spawn judge plus a rogue
		// (harness.Spawn secures the cluster for it): it only means
		// anything with sustained load for the attack to hide under.
		if cfg.spawn == 0 {
			return fmt.Errorf("-byzantine needs -spawn (how many nodes to attack)")
		}
		if cfg.rate == 0 {
			cfg.rate = 150
		}
		return runSpawn(cfg)
	}
	if cfg.spawn > 0 {
		return runSpawn(cfg)
	}
	if cfg.serve {
		return runServe(cfg)
	}
	return runNode(cfg)
}

// loadTopology builds the deployment graph from -topology-file or the
// named -topology/-n pair.
func loadTopology(cfg config) (*graph.Graph, error) {
	if cfg.topoFile != "" {
		f, err := os.Open(cfg.topoFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Parse(f)
	}
	n := cfg.n
	if n == 0 {
		n = cfg.spawn
	}
	if n < 2 {
		return nil, fmt.Errorf("need -n >= 2 (or -topology-file)")
	}
	switch cfg.topology {
	case "ring":
		return graph.Ring(n), nil
	case "line":
		return graph.Line(n), nil
	case "star":
		return graph.Star(n), nil
	case "complete":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("unknown -topology %q (want ring, line, star or complete)", cfg.topology)
	}
}

// sendPlan is the cluster-wide send plan: load's seeded plan over the
// topology, paced at -rate on the -arrival process, or spread evenly
// over -send-spread (so sends straddle any partition cuts scheduled
// inside it), or all at offset 0. Every process computes the same plan,
// so each knows both its own share (entries with Src == local id) and
// how many deliveries to expect (entries with Dst == local id) without
// any coordination.
func sendPlan(cfg config, g *graph.Graph) ([]load.PlanEntry, error) {
	lc := load.Config{Driver: load.DriverClosed, Messages: cfg.messages, Seed: cfg.seed}
	switch {
	case cfg.rate > 0:
		if cfg.arrival != load.ArrivalPoisson && cfg.arrival != load.ArrivalConstant {
			return nil, fmt.Errorf("unknown -arrival %q (want poisson or constant)", cfg.arrival)
		}
		lc.Driver, lc.Rate, lc.Arrival = load.DriverOpen, cfg.rate, cfg.arrival
	case cfg.spread > 0 && cfg.messages > 0:
		lc.Driver, lc.Arrival = load.DriverOpen, load.ArrivalConstant
		lc.Rate = float64(cfg.messages) / cfg.spread.Seconds()
	}
	return load.BuildPlan(g, lc), nil
}

// chaosOpts translates the impairment flags (transport.Impair applies
// them only when they ask for any).
func chaosOpts(cfg config) (transport.ChaosOptions, error) {
	windows, err := transport.ParsePartitions(cfg.partitions)
	if err != nil {
		return transport.ChaosOptions{}, err
	}
	return transport.ChaosOptions{
		Seed:       cfg.seed,
		Latency:    cfg.latency,
		Jitter:     cfg.jitter,
		LossRate:   cfg.loss,
		DupRate:    cfg.dup,
		Partitions: windows,
	}, nil
}

// runNode runs one processor over TCP: open the wire, run the protocol,
// execute this node's share of the workload, report, then keep
// forwarding until stdin closes.
func runNode(cfg config) error {
	rt, err := bootNode(cfg)
	if err != nil {
		return err
	}
	defer rt.close()
	g, local, nw := rt.g, rt.local, rt.nw

	debugSrv, err := serveDebug(cfg, rt)
	if err != nil {
		return err
	}
	if debugSrv != nil {
		defer debugSrv.Close()
	}
	stopEmit, err := startEmitter(cfg, rt.reg)
	if err != nil {
		return err
	}
	defer stopEmit()

	plan, err := sendPlan(cfg, g)
	if err != nil {
		return err
	}
	expected := 0
	var sent []spec.Sent
	start := time.Now()
	for i, e := range plan {
		if e.Dst == local {
			expected++
		}
		if e.Src != local {
			continue
		}
		// Each entry goes out at its slot of the shared cluster-wide
		// schedule. In rate mode the payload is tagged with the
		// *scheduled* instant so the destination can compute latency from
		// the delivery alone — a send delayed by backpressure counts that
		// delay as latency (no coordinated omission).
		at := start.Add(e.At)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		payload := fmt.Sprintf("m-%d-%d", e.Src, e.Dst)
		if cfg.rate > 0 {
			payload = load.EncodeTag(i, e.Src, e.Dst, at.UnixNano())
		}
		uid, err := nw.Send(local, payload, e.Dst)
		if err != nil {
			return fmt.Errorf("send %d->%d: %w", e.Src, e.Dst, err)
		}
		sent = append(sent, spec.Sent{Key: spec.Key{UID: uid}, Dst: e.Dst})
	}
	sendWindow := time.Since(start)

	nw.WaitDelivered(expected, cfg.timeout)

	rep := harness.NewReport(cfg.id, sent, expected, nw.Deliveries(), start, sendWindow)
	if debugSrv != nil {
		rep.MetricsAddr = debugSrv.Addr()
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, string(enc))
	if err := out.Flush(); err != nil {
		return err
	}

	// Keep forwarding for peers whose traffic routes through us; the
	// launcher signals "everyone reported" by closing our stdin.
	io.Copy(io.Discard, os.Stdin)
	return nil
}
