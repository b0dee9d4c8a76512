package sim

import (
	"fmt"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
)

// x3Case is one regime of the message-passing experiment; display is
// its table label. The opts constructor keeps the seed offsets (seed,
// seed+1, seed+2) so the regimes stay independent of which subset runs.
type x3Case struct {
	Variant
	display string
	opts    func(seed int64) msgpass.Options
}

// x3Cases runs the port in three regimes: clean, corrupted initial
// state, and corrupted + 20% frame loss.
var x3Cases = []x3Case{
	{Variant{Name: "clean"}, "clean", func(s int64) msgpass.Options { return msgpass.Options{Seed: s} }},
	{Variant{Name: "corrupt"}, "corrupted init", func(s int64) msgpass.Options { return msgpass.Options{Seed: s + 1, CorruptInit: true} }},
	{Variant{Name: "corrupt-loss20"}, "corrupted + 20% loss", func(s int64) msgpass.Options {
		return msgpass.Options{Seed: s + 2, CorruptInit: true, LossRate: 0.2}
	}},
}

// x3Cell exercises the message-passing port (the paper's open problem,
// §4) in one regime on a 3x3 grid: the same exactly-once guarantee on
// real asynchronous channels. The delivery log is judged by a
// spec.Ledger — destination included — that allows no invalid delivery
// from a clean start and Proposition 4's 2n per destination from a
// corrupted one. Wall time is inherently nondeterministic (real
// goroutines and channels); the deterministic part of the measure is the
// delivery accounting.
func x3Cell(o Options, idx int) CellResult {
	c := x3Cases[idx]
	g := graph.Grid(3, 3)
	opts := c.opts(o.Seed)
	bound := 0
	if opts.CorruptInit {
		bound = 2 * g.N()
	}
	ledger := spec.New(bound)
	nw := msgpass.New(g, opts)
	nw.Start()
	sent := g.N()
	for src := 0; src < sent; src++ {
		dst := graph.ProcessID((src + 4) % g.N())
		uid, _ := nw.Send(graph.ProcessID(src), fmt.Sprintf("x3-%s-%d", c.display, src), dst)
		ledger.Sent(spec.Key{UID: uid}, dst)
	}
	start := time.Now()
	// Wait for all valid deliveries (invalid planted junk also flows).
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if o.cancelled() {
			break
		}
		valid := 0
		nw.EachDelivery(func(d *msgpass.Delivery) {
			if d.Msg.Valid {
				valid++
			}
		})
		if valid >= sent {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	wall := time.Since(start)
	nw.Stop()
	duplicates, invalid := 0, 0
	nw.EachDelivery(func(d *msgpass.Delivery) {
		if ledger.Delivered(spec.Key{UID: d.Msg.UID}, d.At, d.Msg.Valid) > 1 {
			duplicates++
		}
	})
	v := ledger.Verdict()
	for _, n := range v.Invalid {
		invalid = max(invalid, n)
	}
	return CellResult{
		OK: v.OK(),
		Rows: [][]any{{c.display, sent, v.Delivered, duplicates, fmt.Sprintf("%d/%d", invalid, bound),
			wall.Round(time.Millisecond).String(), v.OK()}},
		Measure: CellMeasure{
			Generated:      sent,
			DeliveredValid: v.Delivered,
			Extra:          map[string]float64{"duplicates": float64(duplicates)},
		},
	}
}
