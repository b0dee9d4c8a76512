// Command ssmfp-node runs one processor of a message-passing SSMFP
// deployment over real TCP. Every participating OS process is given the
// same topology, the same peer address map, and the same workload seed;
// each one runs exactly one processor (-id) and the union of processes
// forms the network. Because the workload is derived deterministically
// from (seed, topology), every process can compute the full global send
// plan, execute its own share, and know exactly how many deliveries to
// expect — so each process emits a single JSON line with its send and
// delivery ledger on stdout and an external judge (the -spawn launcher,
// or a human with jq) can check exactly-once delivery across the whole
// cluster; every counter is served on the node's /metrics.
//
// Single-node usage:
//
//	ssmfp-node -id 2 -topology ring -n 5 -peers peers.txt \
//	    -messages 30 -seed 7 -loss 0.1 -dup 0.1 -jitter 1ms
//
// The process prints its report once its expected deliveries arrived (or
// -timeout elapsed), then keeps forwarding for the other nodes until its
// stdin reaches EOF — the launcher holds a pipe open and closes it when
// every report is in.
//
// Launcher usage (forks N copies of itself on loopback and judges them):
//
//	ssmfp-node -spawn 5 -topology ring -messages 30 -seed 7 \
//	    -loss 0.10 -dup 0.10 -latency 200us -jitter 1ms \
//	    -partition 400ms:600ms:0-1 -timeout 60s
//
// Exit status is 0 iff every valid message was delivered exactly once at
// its destination.
//
// With -rate R the cluster paces the workload at R messages/second on a
// schedule every process derives from the seed, tags payloads with their
// scheduled instants, and reports per-node latency quantiles plus a
// mergeable histogram shard; the launcher merges the shards into
// cluster-wide quantiles. Per-node achieved send/deliver rates are
// reported in every mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
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
		// The byzantine judge is the TLS spawn judge plus a rogue: it only
		// means anything with certificates on every link and sustained load
		// for the attack to hide under.
		cfg.requireTLS = true
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

// workloadEntry is one cluster-wide send: processor Src sends to Dst.
type workloadEntry struct {
	Src, Dst graph.ProcessID
}

// workload derives the global send plan from (seed, topology). Every
// process computes the identical list, so each knows both its own share
// (entries with Src == local id) and how many deliveries to expect
// (entries with Dst == local id) without any coordination.
func workload(g *graph.Graph, seed int64, messages int) []workloadEntry {
	rng := rand.New(rand.NewSource(seed ^ 0x5553464d)) // distinct stream from protocol randomness
	out := make([]workloadEntry, 0, messages)
	n := g.N()
	for i := 0; i < messages; i++ {
		src := graph.ProcessID(rng.Intn(n))
		dst := graph.ProcessID(rng.Intn(n - 1))
		if dst >= src {
			dst++
		}
		out = append(out, workloadEntry{Src: src, Dst: dst})
	}
	return out
}

// schedule derives the workload's arrival offsets from (seed, rate,
// arrival) on a dedicated rng stream. Every process computes the
// identical list, so the cluster-wide offered rate is shared without
// coordination: each node sleeps until its own entries' instants and
// lets everyone else's pass.
func schedule(n int, seed int64, rate float64, arrival string) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x53434844)) // "SCHD": distinct stream from workload and protocol
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		switch arrival {
		case "constant":
			at = time.Duration(float64(i) / rate * float64(time.Second))
		case "poisson":
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		default:
			return nil, fmt.Errorf("unknown -arrival %q (want poisson or constant)", arrival)
		}
		out[i] = at
	}
	return out, nil
}

// parsePartitions parses "start:dur:u-v[;u-v]" windows, comma-separated.
func parsePartitions(s string) ([]transport.PartitionWindow, error) {
	if s == "" {
		return nil, nil
	}
	var out []transport.PartitionWindow
	for _, spec := range strings.Split(s, ",") {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("partition %q: want start:dur:u-v[;u-v]", spec)
		}
		start, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("partition %q: %v", spec, err)
		}
		dur, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("partition %q: %v", spec, err)
		}
		var edges [][2]graph.ProcessID
		for _, e := range strings.Split(parts[2], ";") {
			uv := strings.SplitN(e, "-", 2)
			if len(uv) != 2 {
				return nil, fmt.Errorf("partition edge %q: want u-v", e)
			}
			u, err1 := strconv.Atoi(uv[0])
			v, err2 := strconv.Atoi(uv[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("partition edge %q: want u-v", e)
			}
			edges = append(edges, [2]graph.ProcessID{graph.ProcessID(u), graph.ProcessID(v)})
		}
		out = append(out, transport.PartitionWindow{Start: start, Duration: dur, Edges: edges})
	}
	return out, nil
}

// chaosOpts translates the impairment flags (transport.Impair applies
// them only when they ask for any).
func chaosOpts(cfg config) (transport.ChaosOptions, error) {
	windows, err := parsePartitions(cfg.partitions)
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

	plan := workload(g, cfg.seed, cfg.messages)
	var sched []time.Duration
	if cfg.rate > 0 {
		if sched, err = schedule(len(plan), cfg.seed, cfg.rate, cfg.arrival); err != nil {
			return err
		}
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
		payload := fmt.Sprintf("m-%d-%d", e.Src, e.Dst)
		switch {
		case sched != nil:
			// Rate mode: hold each entry to its slot of the shared
			// cluster-wide schedule, and tag the payload with the
			// *scheduled* instant so the destination can compute latency
			// from the delivery alone — a send delayed by backpressure
			// counts that delay as latency (no coordinated omission).
			at := start.Add(sched[i])
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			payload = load.EncodeTag(i, e.Src, e.Dst, at.UnixNano())
		case cfg.spread > 0 && len(plan) > 0:
			// Entry i of the global plan goes out at its slot of the
			// spread window, so sends straddle any partition cuts
			// scheduled inside it.
			at := time.Duration(i) * cfg.spread / time.Duration(len(plan))
			if d := at - time.Since(start); d > 0 {
				time.Sleep(d)
			}
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
