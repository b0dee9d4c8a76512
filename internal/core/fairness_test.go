package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// served returns the candidate that choice_p(d) served in the move behind
// ev: R1 serves p itself (obs.KindGenerate at p), R3 the neighbor whose
// emission buffer it copied (obs.KindForward from it). The event's Proc
// is p and its Dest is d.
func served(ev sm.Event) (graph.ProcessID, bool) {
	switch ev.Kind {
	case obs.KindGenerate:
		return ev.Proc, true
	case obs.KindForward:
		return ev.From, true
	}
	return 0, false
}

// TestPassingBoundDeltaPlusOne verifies the fairness lemma behind
// Propositions 5 and 6 at the system level: once a processor q becomes
// (and remains) a candidate for choice_p(d), at most Δ other serves of
// bufR_p(d) can happen before q itself is served — "at most Δ messages
// can pass m at each hop". The test saturates a star center and tracks,
// for every candidacy interval of every leaf, how many other candidates
// were served in between.
func TestPassingBoundDeltaPlusOne(t *testing.T) {
	g := graph.Star(6) // center 0, Δ = 5
	const center = graph.ProcessID(0)
	cfg := core.CleanConfig(g)
	// Heavy sustained load: every leaf sends 8 messages to the center.
	for leaf := graph.ProcessID(1); leaf < 6; leaf++ {
		for k := 0; k < 8; k++ {
			cfg[leaf].(*core.Node).FW.Enqueue(fmt.Sprintf("m%d-%d", leaf, k), center)
		}
	}
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewCentralRandom(11), cfg)

	// passedSince[q] counts serves of bufR_center(center) since q became a
	// continuous candidate; reset when q is served or stops being one.
	passedSince := make(map[graph.ProcessID]int)
	delta := g.MaxDegree()

	isCandidate := func(q graph.ProcessID) bool {
		n := e.StateOf(q).(*core.Node)
		return n.FW.Dests[center].BufE != nil && n.RT.NextHop(center) == center
	}
	var violation string
	e.Subscribe(func(ev sm.Event) {
		s, ok := served(ev)
		if !ok || ev.Proc != center || ev.Dest != center {
			return
		}
		for q := range passedSince {
			if q == s {
				continue
			}
			passedSince[q]++
			if passedSince[q] > delta && violation == "" {
				violation = fmt.Sprintf("candidate %d was passed %d times (Δ = %d) at step %d",
					q, passedSince[q], delta, ev.Step)
			}
		}
		delete(passedSince, s)
	})

	for i := 0; i < 1_000_000; i++ {
		// Refresh the candidacy set before the step: entering candidates
		// start their passing counter; lapsed ones are dropped.
		for leaf := graph.ProcessID(1); leaf < 6; leaf++ {
			if isCandidate(leaf) {
				if _, ok := passedSince[leaf]; !ok {
					passedSince[leaf] = 0
				}
			} else {
				delete(passedSince, leaf)
			}
		}
		if !e.Step() {
			break
		}
		if violation != "" {
			t.Fatal(violation)
		}
	}
	if !e.Terminal() {
		t.Fatal("did not terminate")
	}
}

// TestPassingBoundHoldsOnRandomGraphs repeats the check on random
// topologies and random destinations under corrupted starts (after the
// tables stabilize, the bound applies at every processor).
func TestPassingBoundHoldsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(5+rng.Intn(4), 12, rng)
		cfg := core.RandomConfig(g, rng, core.DefaultCorrupt)
		for k := 0; k < 10; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			cfg[src].(*core.Node).FW.Enqueue(fmt.Sprintf("t%d-%d", trial, k), dst)
		}
		e := sm.NewEngine(g, core.FullProgram(g), daemon.NewCentralRandom(rng.Int63()), cfg)
		delta := g.MaxDegree()

		// One passing counter per (p, d, candidate q).
		type key struct{ p, d, q graph.ProcessID }
		passed := make(map[key]int)
		candidateOf := func(p, d, q graph.ProcessID) bool {
			if q == p {
				n := e.StateOf(p).(*core.Node)
				nd, ok := n.FW.NextDestination()
				return n.FW.Request && ok && nd == d
			}
			n := e.StateOf(q).(*core.Node)
			return n.FW.Dests[d].BufE != nil && n.RT.NextHop(d) == p
		}
		var violation string
		e.Subscribe(func(ev sm.Event) {
			s, ok := served(ev)
			if !ok {
				return
			}
			for k := range passed {
				if k.p != ev.Proc || k.d != ev.Dest || k.q == s {
					continue
				}
				passed[k]++
				if passed[k] > delta && violation == "" {
					violation = fmt.Sprintf("trial candidate %+v passed %d times (Δ=%d)", k, passed[k], delta)
				}
			}
			delete(passed, key{ev.Proc, ev.Dest, s})
		})
		for i := 0; i < 2_000_000; i++ {
			for p := graph.ProcessID(0); int(p) < g.N(); p++ {
				for d := graph.ProcessID(0); int(d) < g.N(); d++ {
					nbrs := append([]graph.ProcessID(nil), g.Neighbors(p)...)
					for _, q := range append(nbrs, p) {
						k := key{p, d, q}
						if candidateOf(p, d, q) {
							if _, ok := passed[k]; !ok {
								passed[k] = 0
							}
						} else {
							delete(passed, k)
						}
					}
				}
			}
			if !e.Step() {
				break
			}
			if violation != "" {
				t.Fatal(violation)
			}
		}
		if !e.Terminal() {
			t.Fatalf("trial %d did not terminate", trial)
		}
	}
}

// TestPassingBoundIsAttained constructs the worst case of the fairness
// queue: all Δ neighbors of a star center already hold messages routed to
// it when the center's own generation request arrives, so the request is
// served exactly after Δ other serves — the "Δ messages can pass m" the
// Δ^D bound of Proposition 5 compounds per hop.
func TestPassingBoundIsAttained(t *testing.T) {
	g := graph.Star(5) // center 0, leaves 1..4; Δ = 4
	const center = graph.ProcessID(0)
	cfg := core.CleanConfig(g)
	for leaf := graph.ProcessID(1); leaf < 5; leaf++ {
		cfg[leaf].(*core.Node).FW.Dests[center].BufE = &core.Message{
			Payload: fmt.Sprintf("ahead-%d", leaf), LastHop: leaf, Color: 0,
			UID: uint64(leaf), Valid: true, Dest: center,
		}
	}
	cfg[center].(*core.Node).FW.Enqueue("probe", center)

	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewCentralRandom(3), cfg)
	var serves []graph.ProcessID
	e.Subscribe(func(ev sm.Event) {
		if s, ok := served(ev); ok && ev.Proc == center && ev.Dest == center {
			serves = append(serves, s)
		}
	})
	if _, terminal := e.Run(1_000_000, nil); !terminal {
		t.Fatal("did not terminate")
	}
	// The probe (served == center, via R1) must be the 5th serve: exactly
	// Δ = 4 messages passed it.
	if len(serves) < 5 {
		t.Fatalf("serves = %v", serves)
	}
	for i := 0; i < 4; i++ {
		if serves[i] == center {
			t.Fatalf("probe served at position %d; the queue should make it wait out Δ serves: %v", i, serves)
		}
	}
	if serves[4] != center {
		t.Fatalf("probe not served 5th: %v", serves)
	}
}
