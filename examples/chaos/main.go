// Chaos: the protocol riding out a network partition.
//
// A 5-ring runs over the chaos transport: 10% loss, duplication, 1ms
// jitter — and a scheduled partition that cuts both links of processor 0
// mid-run, isolating it completely for half a second. Messages addressed
// to and from the isolated node cannot move while the cut holds; the
// offer/accept handshake just keeps retransmitting into the void. The
// moment the partition heals, the pending offers land and every message
// is delivered exactly once — no protocol-level recovery action is
// needed, because snap-stabilization never depended on the wire being
// reliable in the first place.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/transport"
)

func main() {
	g := graph.Ring(5)
	cut := transport.PartitionWindow{
		Start:    100 * time.Millisecond,
		Duration: 500 * time.Millisecond,
		Edges:    [][2]graph.ProcessID{{0, 1}, {0, 4}}, // isolate processor 0
	}

	for _, e := range cut.Edges {
		fmt.Printf("  partition: link %d-%d cut from %v to %v\n", e[0], e[1], cut.Start, cut.Start+cut.Duration)
	}

	tr := transport.NewChaos(transport.NewChan(g, 64), transport.ChaosOptions{
		Seed:       42,
		LossRate:   0.10,
		DupRate:    0.10,
		Jitter:     time.Millisecond,
		Partitions: []transport.PartitionWindow{cut},
	})
	nw := msgpass.New(g, msgpass.Options{Seed: 42, Transport: tr})
	nw.Start()
	defer func() {
		nw.Stop()
		tr.Close()
	}()

	// Two messages that must cross the cut (one each way), sent while the
	// partition holds, plus one that routes entirely inside the connected
	// side.
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	nw.Send(0, "out-of-the-island", 2)
	nw.Send(3, "into-the-island", 0)
	nw.Send(2, "around-the-cut", 4)
	fmt.Println("3 messages sent while processor 0 is partitioned off...")

	// The message confined to the connected side lands immediately; the
	// two that must cross the cut arrive only after the heal.
	if !nw.WaitDelivered(1, 10*time.Second) {
		log.Fatal("in-island delivery missing")
	}
	d := nw.Deliveries()[0]
	fmt.Printf("  delivered %q at %d after %v (unaffected side)\n",
		d.Msg.Payload, d.At, time.Since(start).Round(time.Millisecond))
	if !nw.WaitDelivered(3, 10*time.Second) {
		log.Fatal("deliveries missing after heal")
	}
	for _, d := range nw.Deliveries()[1:] {
		fmt.Printf("  delivered %q at %d after %v (waited out the cut)\n",
			d.Msg.Payload, d.At, time.Since(start).Round(10*time.Millisecond))
	}
	s := nw.Stats()
	fmt.Printf("offers sent: %d (retransmissions waited out the cut); frames impaired: %d\n",
		s.OffersSent, s.LostInjected)
}
