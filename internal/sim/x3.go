package sim

import (
	"fmt"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
	"ssmfp/internal/transport"
)

// x3Case is one regime of the message-passing experiment; display is
// its table label. The regimes run at seed+seedOff (seed, seed+1,
// seed+2) so they stay independent of which subset runs; loss is the
// frame-loss rate of the chaos transport under the run.
type x3Case struct {
	Variant
	display string
	seedOff int64
	corrupt bool
	loss    float64
}

// x3Cases runs the port in three regimes: clean, corrupted initial
// state, and corrupted + 20% frame loss.
var x3Cases = []x3Case{
	{Variant{Name: "clean"}, "clean", 0, false, 0},
	{Variant{Name: "corrupt"}, "corrupted init", 1, true, 0},
	{Variant{Name: "corrupt-loss20"}, "corrupted + 20% loss", 2, true, 0.2},
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
	seed := o.Seed + c.seedOff
	bound := 0
	if c.corrupt {
		bound = 2 * g.N()
	}
	ledger := spec.New(bound)
	tr := transport.Impair(transport.NewChan(g, transport.DefaultDepth), transport.ChaosOptions{Seed: seed, LossRate: c.loss})
	nw := msgpass.New(g, msgpass.Options{Seed: seed, CorruptInit: c.corrupt, Transport: tr})
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
	tr.Close()
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
