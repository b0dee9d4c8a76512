package load

import (
	"sync"
	"time"

	"ssmfp/internal/graph"
)

// Sender is one injection path into a running deployment: count messages
// src→dst under payload, returning the UIDs the network accepted. The
// cluster operator plane's Inject (local or over HTTP) adapts to this
// directly; so does a bare msgpass.Network.Send in a loop.
type Sender func(src, dst graph.ProcessID, count int, payload string) ([]uint64, error)

// SustainedStream is one traffic stream that must keep flowing across
// membership churn: a fixed (src, dst) pair injected at a steady cadence
// under a stream-distinguishing payload. The payload doubles as the
// exactly-once namespace — UID streams restart with a node's
// incarnation, so churn-era oracles key deliveries on (payload, uid) and
// every stream needs its own payload.
type SustainedStream struct {
	Src, Dst graph.ProcessID
	Payload  string
	// Period is the injection cadence; 0 selects 2ms.
	Period time.Duration
}

// Sustain starts one goroutine per stream, each injecting a message
// every Period until the returned stop function is called (it blocks
// until all streams have wound down). A refused or failed injection —
// a node mid-reconfiguration, an admin endpoint briefly unreachable —
// is simply skipped: the next beat retries, which is what "sustained
// across churn" means; only messages the network actually accepted are
// recorded, each with the stream that injected it. record is called from
// the stream goroutines and must be safe for concurrent use.
func Sustain(send Sender, streams []SustainedStream, record func(s SustainedStream, uids []uint64)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range streams {
		period := s.Period
		if period <= 0 {
			period = 2 * time.Millisecond
		}
		wg.Add(1)
		go func(s SustainedStream, period time.Duration) {
			defer wg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
				}
				uids, err := send(s.Src, s.Dst, 1, s.Payload)
				if err != nil {
					continue
				}
				record(s, uids)
			}
		}(s, period)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
