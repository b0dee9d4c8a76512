package msgpass_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// embeddingDecorator wraps a transport the way a tracing decorator does:
// it embeds transport.Transport and overrides Link only, so the arrival
// hook reaches the backend only as an interface method.
type embeddingDecorator struct{ transport.Transport }

func (d embeddingDecorator) Link(from, to graph.ProcessID) transport.Link {
	return passLink{d.Transport.Link(from, to)}
}

type passLink struct{ transport.Link }

// TestLoopNoLostWakeup runs a closed loop of 10,000 messages on
// grid-3x3, 8 in flight, at GOMAXPROCS 1 and 2, over a bare Chan and over
// an embedding decorator. A frame whose arrival does not wake its worker
// waits for the sender's retransmission, so with two workers a lost
// wakeup shows as retransmits (one worker serves both ends of a hop in
// the turn its timer starts, before the retransmission is due); a healthy
// loop retransmits at most 1% of its offers.
func TestLoopNoLostWakeup(t *testing.T) {
	const messages, inFlight = 10000, 8
	for _, procs := range []int{1, 2} {
		for _, wrap := range []bool{false, true} {
			name := fmt.Sprintf("gomaxprocs=%d/decorated=%v", procs, wrap)
			t.Run(name, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				g := graph.Grid(3, 3)
				var tr transport.Transport = transport.NewChan(g, transport.DefaultDepth)
				defer tr.Close()
				if wrap {
					tr = embeddingDecorator{tr}
				}
				done := make(chan struct{}, inFlight)
				nw := msgpass.New(g, msgpass.Options{
					Seed:              1,
					Transport:         tr,
					DiscardDeliveries: true,
					OnDeliver:         func(msgpass.Delivery) { done <- struct{}{} },
				})
				nw.Start()
				defer nw.Stop()
				// One source at the highest processor, one destination at
				// the lowest: a Send wakes only the source's worker, so the
				// frames of every other hop move on arrival wakes alone.
				send := func(int) { mustSend(t, nw, graph.ProcessID(g.N()-1), "w", 0) }
				sent := 0
				for ; sent < inFlight; sent++ {
					send(sent)
				}
				deadline := time.After(60 * time.Second)
				for got := 0; got < messages; got++ {
					select {
					case <-done:
					case <-deadline:
						t.Fatalf("%d/%d messages delivered within 60s", got, messages)
					}
					if sent < messages {
						send(sent)
						sent++
					}
				}
				retx, _ := nw.Telemetry().Value(telemetry.SeriesRetransmits)
				offers := nw.Stats().OffersSent
				if 100*retx > int64(offers) {
					t.Fatalf("%d retransmits for %d offers, want at most 1%%: arrivals are not waking their workers", retx, offers)
				}
			})
		}
	}
}
