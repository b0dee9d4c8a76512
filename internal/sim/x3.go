package sim

import (
	"fmt"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
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
// real asynchronous channels. Wall time is inherently nondeterministic
// (real goroutines and channels); the deterministic part of the measure
// is the delivery accounting.
func x3Cell(o Options, idx int) CellResult {
	c := x3Cases[idx]
	g := graph.Grid(3, 3)
	nw := msgpass.New(g, c.opts(o.Seed))
	nw.Start()
	want := make(map[uint64]graph.ProcessID)
	for src := 0; src < g.N(); src++ {
		dst := graph.ProcessID((src + 4) % g.N())
		uid, _ := nw.Send(graph.ProcessID(src), fmt.Sprintf("x3-%s-%d", c.display, src), dst)
		want[uid] = dst
	}
	start := time.Now()
	// Wait for all valid deliveries (invalid planted junk also flows).
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if o.cancelled() {
			break
		}
		valid := 0
		for _, d := range nw.Deliveries() {
			if d.Msg.Valid {
				valid++
			}
		}
		if valid >= len(want) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	wall := time.Since(start)
	counts := make(map[uint64]int)
	for _, d := range nw.Deliveries() {
		if d.Msg.Valid {
			counts[d.Msg.UID]++
		}
	}
	nw.Stop()

	delivered, duplicates := 0, 0
	for uid := range want {
		if counts[uid] >= 1 {
			delivered++
		}
		if counts[uid] > 1 {
			duplicates += counts[uid] - 1
		}
	}
	exactlyOnce := delivered == len(want) && duplicates == 0
	return CellResult{
		OK:   exactlyOnce,
		Rows: [][]any{{c.display, len(want), delivered, duplicates, wall.Round(time.Millisecond).String(), exactlyOnce}},
		Measure: CellMeasure{
			Generated:      len(want),
			DeliveredValid: delivered,
			Extra:          map[string]float64{"duplicates": float64(duplicates)},
		},
	}
}
