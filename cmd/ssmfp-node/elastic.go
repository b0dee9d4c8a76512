package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strconv"
	"sync"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
	"ssmfp/internal/load"
)

// runElastic is the churn judge: the -spawn launcher's elastic sibling.
// It forks a base ring of -serve nodes on loopback TCP, then drives the
// full membership lifecycle against them from an operator console while
// background injectors keep live traffic flowing:
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
func runElastic(cfg config) error {
	n := cfg.spawn
	if n == 0 {
		n = 4
	}
	if n < 4 {
		return fmt.Errorf("-elastic needs -spawn >= 4 (got %d)", n)
	}
	joinA := graph.ProcessID(n)     // joins on (A,0) and (A,2)
	joinB := graph.ProcessID(n + 1) // joins on (B,1) and (B,3)
	drainTarget := graph.ProcessID(n - 1)

	fleet, err := harness.NewFleet()
	if err != nil {
		return err
	}
	defer fleet.Close()
	// One loopback wire port per slot, joiners included: the peers file
	// covers the whole slot space up front, so every child — present and
	// future — can dial every other. (The epochs redundantly carry the
	// same address book; a real deployment would rely on that instead.)
	wire, peersPath, err := fleet.Peers(n + 2)
	if err != nil {
		return err
	}

	// Topology files: the base ring for the initial members, and one
	// successively larger graph per joiner — a joining process boots on
	// the post-join topology (it brings its own wires up; the epoch
	// brings everyone else's).
	base := graph.Ring(n)
	joinedA, err := buildTopo(n+1, append(base.Edges(),
		[2]graph.ProcessID{joinA, 0}, [2]graph.ProcessID{joinA, 2}))
	if err != nil {
		return err
	}
	joinedB, err := buildTopo(n+2, append(joinedA.Edges(),
		[2]graph.ProcessID{joinB, 1}, [2]graph.ProcessID{joinB, 3}))
	if err != nil {
		return err
	}
	topoPaths := make(map[*graph.Graph]string)
	for name, g := range map[string]*graph.Graph{"base.txt": base, "join-a.txt": joinedA, "join-b.txt": joinedB} {
		if topoPaths[g], err = fleet.WriteTopology(name, g); err != nil {
			return err
		}
	}

	// boot forks one -serve node on topology g and waits for its startup
	// banner; nodes maps every live member to its admin client.
	nodes := make(map[graph.ProcessID]*cluster.HTTPClient)
	boot := func(id graph.ProcessID, g *graph.Graph) (*harness.Child, error) {
		c, err := fleet.Start("-serve",
			"-id", strconv.Itoa(int(id)),
			"-topology-file", topoPaths[g],
			"-peers", peersPath,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-tick", cfg.tick.String(),
			"-http", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("node %d: %v", id, err)
		}
		var b serveBanner
		if err := c.Announce(&b, 15*time.Second); err != nil {
			return nil, fmt.Errorf("node %d: no startup banner: %v", id, err)
		}
		nodes[id] = cluster.NewHTTPClient("http://" + b.AdminAddr)
		return c, nil
	}

	// Base ring up, console over it.
	mgr := cluster.NewManager(graph.NewTopology(base))
	mgr.PollInterval = 25 * time.Millisecond
	var drainProc *harness.Child
	for p := graph.ProcessID(0); int(p) < n; p++ {
		c, err := boot(p, base)
		if err != nil {
			return err
		}
		if p == drainTarget {
			drainProc = c
		}
		mgr.Attach(p, nodes[p], wire[p])
	}
	for p := graph.ProcessID(0); int(p) < n; p++ {
		st, err := nodes[p].Status()
		if err != nil {
			return fmt.Errorf("node %d never answered status: %w", p, err)
		}
		if len(st.Members) != n {
			return fmt.Errorf("node %d booted with %d members, want %d", p, len(st.Members), n)
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
	stopLoad := load.Sustain(inject, streams, func(payload string, uids []uint64) {
		for _, s := range streams {
			if s.Payload == payload {
				led.add(payload, s.Dst, uids)
			}
		}
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
			return fmt.Errorf("joiner %d: %w", j.id, err)
		}
		if err := mgr.JoinNode(j.id, wire[j.id], nodes[j.id], j.peers...); err != nil {
			return fmt.Errorf("join %d: %w", j.id, err)
		}
		out := fmt.Sprintf("join-%d-out", j.id)
		in := fmt.Sprintf("join-%d-in", j.id)
		rep, err := mgr.Inject(j.id, j.peers[1], 20, out)
		if err != nil {
			return fmt.Errorf("inject from joiner %d: %w", j.id, err)
		}
		led.add(out, j.peers[1], rep.UIDs)
		rep, err = mgr.Inject(j.peers[0], j.id, 20, in)
		if err != nil {
			return fmt.Errorf("inject to joiner %d: %w", j.id, err)
		}
		led.add(in, j.id, rep.UIDs)
	}

	// Graceful link cut under load: (0,1) is safe to lose — the ring
	// minus it is a line, and the joiners add chords besides.
	if err := mgr.CutLink(0, 1); err != nil {
		return fmt.Errorf("cut (0,1): %w", err)
	}

	// Burst at the drain target, wait for the burst to land there, cache
	// its ledger — its process exits when the detach epoch arrives, so
	// the judge must hold its deliveries before asking for the drain.
	const burst = 30
	rep, err := mgr.Inject(0, drainTarget, burst, "drain-burst")
	if err != nil {
		return fmt.Errorf("drain burst: %w", err)
	}
	drainSent := led.add("drain-burst", drainTarget, rep.UIDs)
	drainedLedger, err := collectDeliveries(map[graph.ProcessID]*cluster.HTTPClient{drainTarget: nodes[drainTarget]},
		nil, drainSent, cfg.timeout)
	if err != nil {
		return fmt.Errorf("drain burst at node %d: %w", drainTarget, err)
	}
	healed, err := mgr.Drain(drainTarget)
	if err != nil {
		return fmt.Errorf("drain %d: %w", drainTarget, err)
	}
	if !drainProc.Reap(10 * time.Second) {
		badf("node %d did not exit after its detach epoch", drainTarget)
	}
	delete(nodes, drainTarget)

	// Load off (stopLoad waits out the stream goroutines); judge everything.
	stopLoad()
	sent := led.sent

	delivered, verr := collectDeliveries(nodes, drainedLedger, sent, cfg.timeout)
	if verr != nil {
		badf("%v", verr)
	}
	violations = append(violations, harness.Verdict(sent, delivered)...)

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

	summary := struct {
		Nodes      int                  `json:"nodes"`
		Joined     []graph.ProcessID    `json:"joined"`
		Cut        [2]graph.ProcessID   `json:"cut"`
		Drained    graph.ProcessID      `json:"drained"`
		Healed     [][2]graph.ProcessID `json:"healed"`
		Epoch      uint64               `json:"epoch"`
		Sent       int                  `json:"sent"`
		Delivered  int                  `json:"delivered"`
		Violations []string             `json:"violations"`
	}{
		Nodes:      len(cs.Members),
		Joined:     []graph.ProcessID{joinA, joinB},
		Cut:        [2]graph.ProcessID{0, 1},
		Drained:    drainTarget,
		Healed:     healed,
		Epoch:      cs.Epoch.Seq,
		Sent:       len(sent),
		Delivered:  len(delivered),
		Violations: violations,
	}
	enc, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Println(string(enc))
	if len(violations) > 0 {
		return fmt.Errorf("%d elastic-cluster violations", len(violations))
	}
	fmt.Fprintf(os.Stderr, "ssmfp-node: elastic churn (%d→%d→%d nodes, %d messages) exactly-once verified\n",
		n, n+2, n+1, len(sent))
	return nil
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
	sent []harness.Sent
}

// add records one accepted injection and returns its records.
func (l *ledger) add(payload string, dst graph.ProcessID, uids []uint64) []harness.Sent {
	batch := make([]harness.Sent, len(uids))
	for i, uid := range uids {
		batch[i] = harness.Sent{Key: harness.Key{Payload: payload, UID: uid}, Dst: dst}
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
func collectDeliveries(nodes map[graph.ProcessID]*cluster.HTTPClient, cached []harness.Delivered,
	sent []harness.Sent, timeout time.Duration) ([]harness.Delivered, error) {
	deadline := time.Now().Add(timeout)
	for {
		all := append([]harness.Delivered(nil), cached...)
		var lastErr error
		for id, hc := range nodes {
			ds, err := hc.Deliveries()
			if err != nil {
				lastErr = fmt.Errorf("node %d ledger: %w", id, err)
				continue
			}
			for _, d := range ds {
				all = append(all, harness.Delivered{Key: harness.Key{Payload: d.Payload, UID: d.UID}, At: d.At, Valid: d.Valid})
			}
		}
		seen := make(map[harness.Key]bool, len(all))
		for _, d := range all {
			seen[d.Key] = seen[d.Key] || d.Valid
		}
		arrived := 0
		for _, s := range sent {
			if seen[s.Key] {
				arrived++
			}
		}
		if arrived == len(sent) && lastErr == nil {
			return all, nil
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("%d of %d messages arrived within %v", arrived, len(sent), timeout)
			if lastErr != nil {
				err = fmt.Errorf("%v; last poll failed: %w", err, lastErr)
			}
			return all, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}
