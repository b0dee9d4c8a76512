package harness

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/secure"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
)

// TestBalanceLedger: the byzantine books balance only on exact equality
// per reason. A counter below the ledger is short (the audit re-scrapes
// and waits); one above it, or any admin-plane rejection, is a violation
// that waiting cannot cure.
func TestBalanceLedger(t *testing.T) {
	ledger := secure.RogueCounts{Handshake: 2, Role: 3, Sender: 4, Membership: 5}
	counts := func(edit func(map[string]float64)) []telemetry.PromSample {
		c := map[string]float64{secure.ReasonHandshake: 2, secure.ReasonRole: 3,
			secure.ReasonSender: 4, secure.ReasonMembership: 5}
		edit(c)
		var out []telemetry.PromSample
		for reason, v := range c {
			// Split over two nodes: the books sum the cluster.
			for _, share := range []float64{v - 1, 1} {
				out = append(out, telemetry.PromSample{Name: telemetry.SeriesSecureRejected,
					Labels: map[string]string{"reason": reason}, Value: share})
			}
		}
		return out
	}
	for _, c := range []struct {
		name      string
		edit      func(map[string]float64)
		want      string // substring of the single violation; "" = balanced
		wantShort bool
	}{
		{name: "exact", edit: func(map[string]float64) {}},
		{name: "short", edit: func(c map[string]float64) { c[secure.ReasonSender]-- },
			want: `reason "sender" counted 3 rejections, rogue ledger says 4`, wantShort: true},
		{name: "overshoot", edit: func(c map[string]float64) { c[secure.ReasonMembership]++ },
			want: `reason "membership" counted 6 rejections, rogue ledger says 5`},
		{name: "admin plane touched", edit: func(c map[string]float64) { c[secure.ReasonAdmin] = 2 },
			want: `reason "admin" counted 2 rejections, rogue ledger says 0`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, short := BalanceLedger(counts(c.edit), ledger)
			if short != c.wantShort {
				t.Fatalf("short = %v, want %v", short, c.wantShort)
			}
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("balanced books judged %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], c.want) {
				t.Fatalf("violations %q, want exactly one containing %q", got, c.want)
			}
		})
	}
}

// TestCollectDeliveries polls a live node's admin ledger over HTTP. It
// returns once every sent message is in the ledger or in the cached
// records of a node that has left; a message that never arrives, or a
// node that stops answering, ends the poll at its timeout with an error
// that says so.
func TestCollectDeliveries(t *testing.T) {
	nw := msgpass.New(graph.Line(3), msgpass.Options{Seed: 1})
	nw.Start()
	defer nw.Stop()
	srv := httptest.NewServer(cluster.NewAgent(nw, nil).Handler())
	defer srv.Close()
	nodes := map[graph.ProcessID]*cluster.HTTPClient{2: cluster.NewHTTPClient(srv.URL)}

	var sent []spec.Sent
	for range 3 {
		uid, err := nw.Send(0, "live", 2)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, spec.Sent{Key: spec.Key{Payload: "live", UID: uid}, Dst: 2})
	}
	// A message a drained node received before its process left: only
	// the cached record still shows it.
	gone := spec.Key{Payload: "drained", UID: 1}
	cached := []spec.Delivered{{Key: gone, At: 3, Valid: true}}
	sent = append(sent, spec.Sent{Key: gone, Dst: 3})

	all, err := collectDeliveries(nodes, cached, sent, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v := spec.Fold(sent, all).Lines; len(all) != len(sent) || len(v) != 0 {
		t.Fatalf("%d records for %d messages, violations %q", len(all), len(sent), v)
	}

	missing := append(sent, spec.Sent{Key: spec.Key{Payload: "never", UID: 9}, Dst: 2})
	if _, err := collectDeliveries(nodes, cached, missing, 50*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "4 of 5 messages arrived") {
		t.Fatalf("a lost message: %v", err)
	}

	srv.Close()
	all, err = collectDeliveries(nodes, cached, sent, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "1 of 4 messages arrived") ||
		!strings.Contains(err.Error(), "last poll failed: node 2 ledger") {
		t.Fatalf("a node that stopped answering: %v", err)
	}
	if len(all) != 1 || all[0].Key != gone {
		t.Fatalf("records of the failed poll %v, want the cached one", all)
	}
}

// TestSpawnByzantine: the spawn judge forks a real three-process
// cluster (its nodes played by testNode), secures it with mutual TLS,
// strikes it with the rogue, collects every report, scrapes every
// /metrics, and balances every injected frame against the right
// rejection counter.
func TestSpawnByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process judge skipped in -short mode")
	}
	t.Setenv("SSMFP_HARNESS_CHILD", "1")
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan := load.Config{Messages: 12, Seed: 7}
	g := graph.Ring(3)
	sum, err := Spawn(f, SpawnInput{Topology: g, Plan: load.BuildPlan(g, plan), Timeout: 20 * time.Second,
		Byzantine: true, Burst: 2, Args: testNodeArgs(plan)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) != 0 || sum.Nodes != 3 || sum.Delivered != 12 || sum.Health == nil ||
		sum.Byzantine == nil || sum.Byzantine.Total() == 0 {
		t.Fatalf("byzantine run judged %+v", sum)
	}
}
