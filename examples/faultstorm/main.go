// Faultstorm: snap-stabilization under repeated mid-run transient faults.
//
// A 3×3 grid carries continuous traffic while waves of transient faults
// strike live state: routing tables scrambled, in-flight messages dropped,
// overwritten, cloned or recolored, queues shuffled, request bits flipped.
// Messages that a fault could have touched are exempted (the fault made
// them "invalid" in the paper's sense); everything generated after the
// last strike must still be delivered exactly once — which is what
// snap-stabilization means when faults happen mid-run instead of at a
// corrupted time zero.
//
//	go run ./examples/faultstorm
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssmfp/internal/checker"
	"ssmfp/internal/core"
	"ssmfp/internal/daemon"
	"ssmfp/internal/faults"
	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

func main() {
	const seed = 4
	rng := rand.New(rand.NewSource(seed))
	g := graph.Grid(3, 3)
	cfg := core.CleanConfig(g)
	e := sm.NewEngine(g, core.FullProgram(g), daemon.NewCentralRandom(seed), cfg)
	tr := checker.New(g)
	tr.Attach(e)
	injector := faults.NewInjector(g, seed, nil)

	fmt.Printf("network %v under a storm of transient faults\n\n", g)
	for wave := 1; wave <= 5; wave++ {
		for k := 0; k < 4; k++ {
			src := graph.ProcessID(rng.Intn(g.N()))
			dst := graph.ProcessID(rng.Intn(g.N()))
			e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("wave%d-msg%d", wave, k), dst)
		}
		for i := 0; i < 15; i++ {
			e.Step()
		}
		inFlight := faults.InFlightValid(e, g)
		tr.MarkCompromised(inFlight...)
		tr.MarkCompromised(injector.Strike(e, 4)...)
		faults.RearmRequests(e, g)
		fmt.Printf("wave %d: struck 4 faults at step %d; %d messages were in flight (exempted)\n",
			wave, e.Steps(), len(inFlight))
	}

	fmt.Println("\nfinal wave of guaranteed traffic after the last fault:")
	for k := 0; k < 5; k++ {
		src := graph.ProcessID(rng.Intn(g.N()))
		dst := graph.ProcessID(rng.Intn(g.N()))
		e.StateOf(src).(*core.Node).FW.Enqueue(fmt.Sprintf("guaranteed-%d", k), dst)
	}
	if _, terminal := e.Run(4_000_000, nil); !terminal {
		log.Fatal("system did not quiesce")
	}

	fmt.Printf("\ngenerated %d messages total, %d compromised by faults\n",
		tr.GeneratedCount(), tr.Compromised())
	if v := tr.Violations(); len(v) > 0 {
		log.Fatalf("violations: %v", v)
	}
	if !tr.AllValidDelivered() {
		log.Fatalf("undelivered guaranteed messages: %v", tr.UndeliveredValid())
	}
	fmt.Println("every non-compromised message delivered exactly once — SP holds through the storm")
}
