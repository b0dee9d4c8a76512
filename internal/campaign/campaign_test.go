package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ssmfp/internal/sim"
)

// TestGridUnique guards the campaign's addressing: every cell key is
// unique, and the grid covers every experiment ID the bench CLI accepts.
func TestGridUnique(t *testing.T) {
	grid := sim.CellGrid()
	seen := map[string]bool{}
	exps := map[string]bool{}
	for _, s := range grid {
		k := s.Key()
		if seen[k] {
			t.Errorf("duplicate cell key %q", k)
		}
		seen[k] = true
		exps[s.Exp] = true
	}
	for _, e := range []string{"f1", "f2", "f3", "f4", "p4", "p5", "p6", "p7",
		"x1", "x2", "x3", "x4", "x5", "x6", "ra", "mc", "ep"} {
		if !exps[e] {
			t.Errorf("experiment %q missing from the grid", e)
		}
	}
	if len(grid) < 40 {
		t.Errorf("grid has %d cells, want >= 40", len(grid))
	}
}

func TestCellSeed(t *testing.T) {
	if got := CellSeed(2009, "p5/line-3", 0); got != 2009 {
		t.Errorf("rep 0 must pass the campaign seed through, got %d", got)
	}
	a := CellSeed(2009, "p5/line-3", 1)
	b := CellSeed(2009, "p5/line-5", 1)
	c := CellSeed(2009, "p5/line-3", 2)
	if a == 2009 || a == b || a == c {
		t.Errorf("derived seeds must differ per (key, rep): %d %d %d", a, b, c)
	}
	if again := CellSeed(2009, "p5/line-3", 1); again != a {
		t.Errorf("CellSeed not deterministic: %d vs %d", a, again)
	}
}

// mustSelect is Select for configurations that match cells.
func mustSelect(t *testing.T, cfg Config) []sim.CellSpec {
	t.Helper()
	specs, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestSelect(t *testing.T) {
	all := mustSelect(t, Config{})
	quick := mustSelect(t, Config{Quick: true})
	if len(quick) >= len(all) {
		t.Errorf("quick did not drop heavy cells: %d vs %d", len(quick), len(all))
	}
	for _, s := range quick {
		if s.Heavy {
			t.Errorf("quick selected heavy cell %s", s.Key())
		}
	}
	p5 := mustSelect(t, Config{Filter: "p5"})
	if len(p5) == 0 {
		t.Fatal("filter p5 selected nothing")
	}
	for _, s := range p5 {
		if s.Exp != "p5" {
			t.Errorf("filter p5 selected %s", s.Key())
		}
	}
	multi := mustSelect(t, Config{Filter: "f1, x2/ring"})
	var keys []string
	for _, s := range multi {
		keys = append(keys, s.Key())
	}
	if strings.Join(keys, " ") != "f1 x2/ring-8" {
		t.Errorf("multi filter selected %v", keys)
	}
}

// TestUnmatchedFilterIsAnError: a filter that selects no cell — a typo,
// or only heavy cells under Quick — fails the run and names the filter
// instead of producing an empty report that passes.
func TestUnmatchedFilterIsAnError(t *testing.T) {
	for _, cfg := range []Config{
		{Filter: "nope"},
		{Filter: "f1/x"},
		{Filter: "mc", Quick: true},
	} {
		rep, _, err := Run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), cfg.Filter) {
			t.Errorf("Run(filter %q, quick %v) = %v, want an error naming the filter", cfg.Filter, cfg.Quick, err)
		}
		if rep != nil {
			t.Errorf("Run(filter %q) returned a report", cfg.Filter)
		}
		if _, err := Select(cfg); err == nil {
			t.Errorf("Select(filter %q, quick %v) succeeded", cfg.Filter, cfg.Quick)
		}
	}
}

// determinismFilter is a small but representative slice of the grid:
// engine-driven sweeps, single-cell experiments, and multi-engine
// comparisons. (x3 is excluded only for speed — it runs real goroutines
// with wall-clock waits; its measures are deterministic too.)
const determinismFilter = "f1,f2,f3,p4/n4,p5/line-3,p5/star-4,p6/star-6,p7/d2,x2/ring-8,x5,x6/w1,ep/grid-5x5"

// TestDeterminism is the campaign's core contract: the normalized report
// is byte-identical no matter the worker count, and repetitions > 0 stay
// deterministic as well.
func TestDeterminism(t *testing.T) {
	run := func(parallel int) []byte {
		rep, _, err := Run(context.Background(), Config{
			Seed: 42, Seeds: 2, Parallel: parallel, Filter: determinismFilter,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		b, err := rep.Normalize().Marshal()
		if err != nil {
			t.Fatalf("parallel=%d: marshal: %v", parallel, err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("normalized reports differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunPublishesProgress checks the progress contract of OnResult: one
// serialized call per finished cell, counting completions up to the total.
func TestRunPublishesProgress(t *testing.T) {
	calls := 0
	seen := map[string]bool{}
	rep, results, err := Run(context.Background(), Config{
		Seed: 7, Parallel: 4, Filter: "f1,f2,p7/d2",
		OnResult: func(done, total int, cr CellReport, res sim.CellResult) {
			calls++
			if done != calls {
				t.Errorf("OnResult not serialized: done=%d after %d calls", done, calls)
			}
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			if seen[cr.Key] {
				t.Errorf("cell %s reported twice", cr.Key)
			}
			seen[cr.Key] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 || len(results) != 3 {
		t.Fatalf("got %d cells, %d results, want 3", len(rep.Cells), len(results))
	}
	if len(seen) != 3 {
		t.Errorf("OnResult reported %d distinct cells, want 3", len(seen))
	}
	if rep.Totals.Cells != 3 || rep.Totals.Failed != 0 {
		t.Errorf("totals = %+v", rep.Totals)
	}
}

// TestCancellation checks that a cancelled campaign returns the context
// error instead of hanging.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, Config{Seed: 1, Filter: "f1,f2"})
	if err == nil {
		t.Error("cancelled campaign returned nil error")
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep, _, err := Run(context.Background(), Config{Seed: 5, Filter: "f1,p7/d2"})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/r.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Cells) != len(rep.Cells) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Run.WallNS == 0 {
		t.Error("run info lost in round trip")
	}
	// A wrong schema must be rejected.
	bad := *back
	bad.Schema = "ssmfp-campaign-report/v0"
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted a mismatched schema")
	}
}
