package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
)

// runSpawn forks -spawn single-node copies of this binary on loopback
// TCP and prints harness.Spawn's verdict on exactly-once delivery across
// the whole cluster.
func runSpawn(cfg config) error {
	g, err := loadTopology(cfg)
	if err != nil {
		return err
	}
	if g.N() != cfg.spawn && cfg.n != 0 && cfg.topoFile == "" {
		return fmt.Errorf("-spawn %d and -n %d disagree", cfg.spawn, cfg.n)
	}
	if _, err := chaosOpts(cfg); err != nil {
		return err // reject bad -partition here, not in N children
	}
	plan, err := sendPlan(cfg, g)
	if err != nil {
		return err
	}
	fleet, err := harness.NewFleet()
	if err != nil {
		return err
	}
	defer fleet.Close()
	sum, err := harness.Spawn(fleet, harness.SpawnInput{
		Topology:  g,
		Plan:      plan,
		Timeout:   cfg.timeout,
		TLS:       cfg.requireTLS,
		Byzantine: cfg.byzantine,
		Burst:     cfg.burst,
		Args:      nodeArgs(cfg),
	})
	if err != nil {
		return err
	}
	enc, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Println(string(enc))
	if len(sum.Violations) > 0 {
		return fmt.Errorf("%d exactly-once violations", len(sum.Violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: %d nodes, %d messages, exactly-once verified\n",
		sum.Nodes, sum.Messages)
	if sum.Byzantine != nil {
		fmt.Fprintf(os.Stderr, "ssmfp-node: byzantine books balanced — %d injected frames, every one rejected for the right reason\n",
			sum.Byzantine.Total())
	}
	return nil
}

// nodeArgs gives the command line of spawned node p: the launcher's
// workload and chaos flags verbatim, plus the files, wire listener and
// credentials the fleet provisioned. Every child serves its debug mux so
// the judge can scrape /metrics while the node idles on stdin;
// -http-base gives stable ports, otherwise each child picks one and
// reports it.
func nodeArgs(cfg config) harness.NodeArgs {
	return func(p graph.ProcessID, f harness.NodeFiles) []string {
		httpAddr := "127.0.0.1:0"
		if cfg.httpBase > 0 {
			httpAddr = fmt.Sprintf("127.0.0.1:%d", cfg.httpBase+int(p))
		}
		args := []string{
			"-id", strconv.Itoa(int(p)),
			"-topology-file", f.Topology,
			"-peers", f.Peers,
			"-listen-fd", strconv.Itoa(harness.ListenerFD),
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
		if f.CA != "" {
			args = append(args, "-require-tls", "-ca", f.CA, "-cert", f.Cert, "-key", f.Key)
		}
		return args
	}
}

// runElastic runs harness.Elastic, the churn judge, over a ring of
// -spawn -serve copies of this binary (4 by default) and prints its
// verdict.
func runElastic(cfg config) error {
	n := cfg.spawn
	if n == 0 {
		n = 4
	}
	fleet, err := harness.NewFleet()
	if err != nil {
		return err
	}
	defer fleet.Close()
	sum, err := harness.Elastic(fleet, n, cfg.timeout, func(p graph.ProcessID, f harness.NodeFiles) []string {
		return []string{"-serve",
			"-id", strconv.Itoa(int(p)),
			"-topology-file", f.Topology,
			"-peers", f.Peers,
			"-listen-fd", strconv.Itoa(harness.ListenerFD),
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-tick", cfg.tick.String(),
			"-http", "127.0.0.1:0"}
	})
	if err != nil {
		return err
	}
	enc, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Println(string(enc))
	if len(sum.Violations) > 0 {
		return fmt.Errorf("%d elastic-cluster violations", len(sum.Violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: elastic churn (%d→%d→%d nodes, %d messages) exactly-once verified\n",
		n, n+2, n+1, sum.Sent)
	return nil
}
