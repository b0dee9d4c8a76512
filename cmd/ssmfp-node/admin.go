package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/secure"
)

// runAdmin is the operator CLI: one subcommand (-admin <op>) against a
// running elastic cluster. Single-node probes (status, quiesce, inject,
// epoch) talk to one admin endpoint via -target; cluster operations
// (drain, add-link, cut-link, and cluster-wide status/inject) need the
// full address book via -targets and reconstruct an operator console —
// a cluster.Manager resumed at the cluster's current epoch — from the
// first node's status before sequencing the operation.
func runAdmin(cfg config) error {
	switch cfg.admin {
	case "status":
		return adminStatus(cfg)
	case "quiesce":
		return adminQuiesce(cfg)
	case "inject":
		return adminInject(cfg)
	case "drain":
		return adminDrain(cfg)
	case "add-link", "cut-link":
		return adminLink(cfg)
	case "epoch":
		return adminEpoch(cfg)
	default:
		return fmt.Errorf("unknown -admin %q (want status, quiesce, inject, drain, add-link, cut-link or epoch)", cfg.admin)
	}
}

// printJSON writes one indented JSON document to stdout — the admin
// CLI's only output form.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// parseTargets parses the -targets address book: "id=url,id=url".
func parseTargets(s string) (map[graph.ProcessID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("this op needs -targets \"id=url,id=url\"")
	}
	out := make(map[graph.ProcessID]string)
	for _, ent := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(ent), "=", 2)
		if len(kv) != 2 || kv[1] == "" {
			return nil, fmt.Errorf("-targets entry %q: want id=url", ent)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("-targets entry %q: %v", ent, err)
		}
		out[graph.ProcessID(id)] = kv[1]
	}
	return out, nil
}

// adminClient builds the node client for one admin URL, speaking mutual
// TLS when the certificate flags are set and refusing plaintext targets
// under -require-tls.
func adminClient(cfg config, url string) (*cluster.HTTPClient, error) {
	hc, _, err := clientFromFlags(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkTargetScheme(cfg, url); err != nil {
		return nil, err
	}
	return &cluster.HTTPClient{Base: url, HTTP: hc}, nil
}

// targetClient resolves the single-node client for -target (falling back
// to the lowest-id entry of -targets, so "status against the cluster I
// already listed" needs no extra flag).
func targetClient(cfg config) (*cluster.HTTPClient, error) {
	if cfg.target != "" {
		return adminClient(cfg, cfg.target)
	}
	targets, err := parseTargets(cfg.targets)
	if err != nil {
		return nil, fmt.Errorf("this op needs -target (or -targets)")
	}
	ids := sortedIDs(targets)
	return adminClient(cfg, targets[ids[0]])
}

func sortedIDs(targets map[graph.ProcessID]string) []graph.ProcessID {
	ids := make([]graph.ProcessID, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// console reconstructs the operator console for the -targets cluster:
// ask the first answering node for its status, rebuild the topology it
// reports, resume the epoch sequence there, and attach an HTTP client
// for every listed node.
func console(cfg config) (*cluster.Manager, error) {
	targets, err := parseTargets(cfg.targets)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, id := range sortedIDs(targets) {
		hc, err := adminClient(cfg, targets[id])
		if err != nil {
			return nil, err
		}
		st, err := hc.Status()
		if err != nil {
			lastErr = fmt.Errorf("node %d (%s): %w", id, targets[id], err)
			continue
		}
		topo, err := cluster.Topology(st.Slots, st.Edges)
		if err != nil {
			return nil, fmt.Errorf("node %d reported an unusable topology: %w", id, err)
		}
		mgr := cluster.NewManager(topo)
		mgr.ResumeAt(st.Epoch)
		for nid, url := range targets {
			nhc, err := adminClient(cfg, url)
			if err != nil {
				return nil, err
			}
			mgr.Attach(nid, nhc, "")
		}
		return mgr, nil
	}
	return nil, fmt.Errorf("no node answered a status probe: %w", lastErr)
}

func adminStatus(cfg config) error {
	if cfg.targets != "" {
		mgr, err := console(cfg)
		if err != nil {
			return err
		}
		return printJSON(mgr.Status())
	}
	hc, err := targetClient(cfg)
	if err != nil {
		return err
	}
	st, err := hc.Status()
	if err != nil {
		return err
	}
	return printJSON(st)
}

func adminQuiesce(cfg config) error {
	if cfg.proc < 0 {
		return fmt.Errorf("-admin quiesce needs -proc")
	}
	hc, err := targetClient(cfg)
	if err != nil {
		return err
	}
	rep, err := hc.Quiesce(graph.ProcessID(cfg.proc))
	if err != nil {
		return err
	}
	return printJSON(rep)
}

func adminInject(cfg config) error {
	if cfg.from < 0 || cfg.to < 0 {
		return fmt.Errorf("-admin inject needs -from and -to")
	}
	src, dst := graph.ProcessID(cfg.from), graph.ProcessID(cfg.to)
	if cfg.targets != "" {
		mgr, err := console(cfg)
		if err != nil {
			return err
		}
		rep, err := mgr.Inject(src, dst, cfg.count, cfg.payload)
		if err != nil {
			return err
		}
		return printJSON(rep)
	}
	hc, err := targetClient(cfg)
	if err != nil {
		return err
	}
	rep, err := hc.Inject(src, dst, cfg.count, cfg.payload)
	if err != nil {
		return err
	}
	return printJSON(rep)
}

func adminDrain(cfg config) error {
	if cfg.proc < 0 {
		return fmt.Errorf("-admin drain needs -proc")
	}
	mgr, err := console(cfg)
	if err != nil {
		return err
	}
	healed, err := mgr.Drain(graph.ProcessID(cfg.proc))
	if err != nil {
		return err
	}
	return printJSON(struct {
		Drained int                  `json:"drained"`
		Healed  [][2]graph.ProcessID `json:"healed"`
		Epoch   uint64               `json:"epoch"`
	}{cfg.proc, healed, mgr.Epoch().Seq})
}

func adminLink(cfg config) error {
	if cfg.linkU < 0 || cfg.linkV < 0 {
		return fmt.Errorf("-admin %s needs -u and -v", cfg.admin)
	}
	mgr, err := console(cfg)
	if err != nil {
		return err
	}
	u, v := graph.ProcessID(cfg.linkU), graph.ProcessID(cfg.linkV)
	if cfg.admin == "add-link" {
		err = mgr.AddLink(u, v)
	} else {
		err = mgr.CutLink(u, v)
	}
	if err != nil {
		return err
	}
	return printJSON(struct {
		Op    string `json:"op"`
		U     int    `json:"u"`
		V     int    `json:"v"`
		Epoch uint64 `json:"epoch"`
	}{cfg.admin, cfg.linkU, cfg.linkV, mgr.Epoch().Seq})
}

func adminEpoch(cfg config) error {
	if cfg.epochFile == "" {
		return fmt.Errorf("-admin epoch needs -epoch-file")
	}
	raw, err := os.ReadFile(cfg.epochFile)
	if err != nil {
		return err
	}
	var e cluster.Epoch
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("-epoch-file %s: %w", cfg.epochFile, err)
	}
	hc, err := targetClient(cfg)
	if err != nil {
		return err
	}
	if err := hc.Apply(e); err != nil {
		return err
	}
	return printJSON(struct {
		Applied uint64 `json:"applied"`
	}{e.Seq})
}

// runGenCerts is the -gen-certs helper: provision a trust domain on disk
// so operators can run TLS clusters by hand. Prints the layout as JSON.
func runGenCerts(cfg config) error {
	n := cfg.n
	if n == 0 {
		n = cfg.spawn
	}
	if n < 1 {
		return fmt.Errorf("-gen-certs needs -n (how many node credentials to mint)")
	}
	_, dom, err := secure.Provision(cfg.certsDir, n)
	if err != nil {
		return err
	}
	return printJSON(struct {
		Dir   string   `json:"dir"`
		Nodes int      `json:"nodes"`
		Files []string `json:"files"`
	}{cfg.certsDir, n, dom.Files()})
}
