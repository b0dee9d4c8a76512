package checker

import (
	"slices"

	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
)

// Hop is one buffer-to-buffer advance of a message: an R3 (obs.KindForward)
// move copied it from From's emission buffer into To's reception buffer.
type Hop struct {
	From  graph.ProcessID `json:"from"`
	To    graph.ProcessID `json:"to"`
	Step  int             `json:"step"`
	Round int             `json:"round"`
}

// Timeline is the reconstructed lifecycle of one message, keyed by its
// UID: where and when it was generated, every hop it took, and when it
// was delivered.
type Timeline struct {
	UID          uint64          `json:"uid"`
	Src          graph.ProcessID `json:"src"`
	Dest         graph.ProcessID `json:"dest"`
	Payload      string          `json:"payload"`
	GenStep      int             `json:"genStep"`
	GenRound     int             `json:"genRound"`
	Hops         []Hop           `json:"hops,omitempty"`
	Delivered    bool            `json:"delivered"`
	DeliverStep  int             `json:"deliverStep,omitempty"`
	DeliverRound int             `json:"deliverRound,omitempty"`
	Deliveries   int             `json:"deliveries"`
}

// Report aggregates the timelines into the per-message quantities the
// paper's Propositions 5-7 bound, all in rounds:
//
//   - delivery time (Prop. 5): generation round → delivery round, per
//     delivered message;
//   - delay (Prop. 6): rounds until a source's first R1 execution;
//   - waiting time (Prop. 6): rounds between a source's consecutive R1
//     executions;
//   - amortized rounds per delivery (Prop. 7): rounds elapsed at the last
//     delivery divided by the number of deliveries;
//   - hop transit: rounds a message spends per forwarding hop.
type Report struct {
	Messages  int `json:"messages"`
	Delivered int `json:"delivered"`

	DeliveryRounds metrics.Summary `json:"deliveryRounds"`
	DelayRounds    metrics.Summary `json:"delayRounds"`
	WaitingRounds  metrics.Summary `json:"waitingRounds"`
	HopRounds      metrics.Summary `json:"hopRounds"`

	AmortizedRoundsPerDelivery float64 `json:"amortizedRoundsPerDelivery"`

	Timelines []*Timeline `json:"timelines,omitempty"`
}

// Report aggregates the current timelines. Its timelines share the
// tracker's state; call it after the run.
func (t *Tracker) Report() Report {
	r := Report{Messages: len(t.order)}
	var delivery, hops []float64
	lastDeliveryRound := 0
	for _, tl := range t.order {
		r.Timelines = append(r.Timelines, tl)
		prev := tl.GenRound
		for _, h := range tl.Hops {
			hops = append(hops, float64(h.Round-prev))
			prev = h.Round
		}
		if tl.Delivered {
			r.Delivered++
			delivery = append(delivery, float64(tl.DeliverRound-tl.GenRound))
			if tl.DeliverRound > lastDeliveryRound {
				lastDeliveryRound = tl.DeliverRound
			}
		}
	}
	var delays, waits []float64
	genRounds := t.GenerationRoundsBySource()
	srcs := make([]graph.ProcessID, 0, len(genRounds))
	for src := range genRounds {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	for _, src := range srcs {
		rounds := genRounds[src]
		delays = append(delays, float64(rounds[0]))
		for i := 1; i < len(rounds); i++ {
			waits = append(waits, float64(rounds[i]-rounds[i-1]))
		}
	}
	r.DeliveryRounds = metrics.Summarize(delivery)
	r.DelayRounds = metrics.Summarize(delays)
	r.WaitingRounds = metrics.Summarize(waits)
	r.HopRounds = metrics.Summarize(hops)
	if r.Delivered > 0 {
		r.AmortizedRoundsPerDelivery = float64(lastDeliveryRound) / float64(r.Delivered)
	}
	return r
}
