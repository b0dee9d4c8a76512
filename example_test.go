package ssmfp_test

import (
	"fmt"
	"log"
	"time"

	"ssmfp"
)

// The basic flow: build a topology, send, run to quiescence, inspect.
func ExampleNewNetwork() {
	net := ssmfp.NewNetwork(ssmfp.Line(4))
	net.Send(0, 3, "hello")
	report := net.Run()
	fmt.Println(report.OK(), report.Generated, report.Delivered)
	// Output: true 1 1
}

// Snap-stabilization: the initial configuration is fully corrupted, yet
// messages are accepted immediately and delivered exactly once.
func ExampleWithCorruptStart() {
	net := ssmfp.NewNetwork(ssmfp.Ring(6), ssmfp.WithCorruptStart(7))
	net.Send(1, 4, "through the rubble")
	report := net.Run()
	fmt.Println(report.OK())
	// Output: true
}

// Deliveries carry the payload, endpoints and validity; initial garbage
// surfacing from corrupted buffers is marked invalid.
func ExampleNetwork_Deliveries() {
	net := ssmfp.NewNetwork(ssmfp.Line(3))
	net.Send(2, 0, "west-bound")
	net.Run()
	for _, d := range net.Deliveries() {
		fmt.Println(d.Payload, d.From, "→", d.To, d.Valid)
	}
	// Output: west-bound 2 → 0 true
}

// The weakly fair adversarial daemon of the paper's proofs is available
// alongside synchronous, central and distributed schedulers.
func ExampleWithDaemon() {
	net := ssmfp.NewNetwork(ssmfp.Star(5), ssmfp.WithDaemon("weakly-fair-lifo"))
	net.Send(1, 4, "via the center")
	fmt.Println(net.Run().OK())
	// Output: true
}

// The same guarantee on a live asynchronous network (README's snippet):
// lossy channel links, a corrupted start whose garbage may be delivered.
func ExampleLiveNetwork() {
	live := ssmfp.NewLiveNetwork(ssmfp.Grid(3, 4), ssmfp.LiveOptions{
		CorruptStart: true,
		LossRate:     0.15,
	})
	defer live.Close()
	id, err := live.Send(0, 11, "exactly once, even here")
	if err != nil {
		log.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !live.DeliveredExactlyOnce(id) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	fmt.Println(live.DeliveredExactlyOnce(id))
	// Output: true
}
