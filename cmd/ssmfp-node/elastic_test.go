package main

import (
	"testing"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
)

// TestElasticChurnExactlyOnce runs the full churn scenario end to end:
// fork a base ring of -serve nodes over loopback TCP, join two nodes,
// gracefully cut a link and drain one member — all under sustained
// injected load — and require the exactly-once verdict. Children are
// this test binary re-executed via the TestMain marker (see
// spawn_test.go).
func TestElasticChurnExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process elastic test skipped in -short mode")
	}
	t.Setenv("SSMFP_NODE_CHILD", "1")
	cfg := config{
		spawn:   4,
		elastic: true,
		seed:    11,
		tick:    2 * time.Millisecond,
		timeout: 30 * time.Second,
	}
	if err := run(cfg); err != nil {
		t.Fatalf("elastic churn scenario failed: %v", err)
	}
}

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("0=http://a:1, 2=http://b:2")
	if err != nil {
		t.Fatalf("parseTargets: %v", err)
	}
	if len(got) != 2 || got[0] != "http://a:1" || got[2] != "http://b:2" {
		t.Fatalf("parseTargets = %v", got)
	}
	for _, bad := range []string{"", "0", "x=http://a", "0="} {
		if _, err := parseTargets(bad); err == nil {
			t.Fatalf("parseTargets(%q) accepted", bad)
		}
	}
}

// TestTopoFromStatus: the operator console's topology reconstruction
// (slot count + edge set, as NodeStatus reports them) reproduces the
// original graph, absent slots included.
func TestTopoFromStatus(t *testing.T) {
	orig := graph.Ring(5)
	topo, err := cluster.Topology(7, orig.Edges()) // slots 5 and 6 allocated but absent
	if err != nil {
		t.Fatalf("cluster.Topology: %v", err)
	}
	g, err := topo.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 7 {
		t.Fatalf("slot space %d, want 7", g.N())
	}
	if len(g.Edges()) != len(orig.Edges()) {
		t.Fatalf("edges %v, want %v", g.Edges(), orig.Edges())
	}
	for _, bad := range []struct {
		slots int
		edges [][2]graph.ProcessID
	}{
		{0, nil},
		{3, [][2]graph.ProcessID{{0, 3}}},
		{3, [][2]graph.ProcessID{{1, 1}}},
	} {
		if _, err := cluster.Topology(bad.slots, bad.edges); err == nil {
			t.Fatalf("cluster.Topology(%d, %v) accepted", bad.slots, bad.edges)
		}
	}
}
