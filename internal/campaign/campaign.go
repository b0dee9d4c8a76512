package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ssmfp/internal/sim"
)

// Config parameterizes one campaign run.
type Config struct {
	// Seed is the campaign seed. Repetition 0 of every cell runs it
	// directly (matching a plain ssmfp-bench run); higher repetitions
	// derive per-cell seeds via CellSeed.
	Seed int64

	// Seeds is the number of repetitions per cell (default 1).
	Seeds int

	// Parallel is the worker count (default runtime.NumCPU()). Any value
	// yields the same normalized report; it only changes wall time.
	Parallel int

	// Filter restricts the grid to cells whose key has one of the given
	// comma-separated prefixes ("p5", "ep/grid", "f3,x1").
	Filter string

	// Quick skips the cells marked Heavy in the grid.
	Quick bool

	// Paranoid threads the engine differential self-check into every cell.
	Paranoid bool

	// OnResult, when non-nil, is called serially (from the aggregation
	// loop, in completion order) after each cell finishes.
	OnResult func(done, total int, cr CellReport, res sim.CellResult)
}

// CellSeed derives the seed of one (cell, repetition). Repetition 0
// passes the campaign seed through unchanged — cells already decorrelate
// their cases by canonical case index, so every cell at repetition 0
// runs sim.RunCell with exactly the seed ssmfp-bench -seed names, and a
// cell's numbers do not depend on the filter. Higher repetitions hash
// (key, rep, seed) so each repetition of each cell explores an
// independent point.
func CellSeed(campaignSeed int64, key string, rep int) int64 {
	if rep == 0 {
		return campaignSeed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d#%d", key, rep, campaignSeed)
	return int64(h.Sum64() & (1<<63 - 1))
}

// Select applies Filter and Quick to the canonical grid. A selection
// with no cell is an error naming the filter, so a mistyped filter
// cannot pass for a clean run.
func Select(cfg Config) ([]sim.CellSpec, error) {
	var prefixes []string
	if cfg.Filter != "" {
		for _, f := range strings.Split(cfg.Filter, ",") {
			if f = strings.TrimSpace(f); f != "" {
				prefixes = append(prefixes, f)
			}
		}
	}
	var out []sim.CellSpec
	for _, s := range sim.CellGrid() {
		if cfg.Quick && s.Heavy {
			continue
		}
		if len(prefixes) > 0 {
			hit := false
			for _, p := range prefixes {
				if strings.HasPrefix(s.Key(), p) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		kept := ""
		if cfg.Quick {
			kept = " outside the heavy cells Quick skips"
		}
		return nil, fmt.Errorf("campaign: filter %q matches no cell%s", cfg.Filter, kept)
	}
	return out, nil
}

// job is one unit of work: a cell repetition with its canonical report
// index.
type job struct {
	idx  int
	spec sim.CellSpec
	rep  int
	seed int64
}

// Run executes the campaign: it expands the selected grid by the
// repetition count, fans the cells across the worker pool, aggregates
// incrementally as cells complete (no barrier until the final report),
// and returns the report plus the per-cell results (tables, trace text)
// in canonical order. On context cancellation it returns the partial
// report together with the context's error; a selection with no cell
// returns Select's error and no report.
func Run(ctx context.Context, cfg Config) (*Report, []sim.CellResult, error) {
	seeds := cfg.Seeds
	if seeds < 1 {
		seeds = 1
	}
	par := cfg.Parallel
	if par < 1 {
		par = runtime.NumCPU()
	}
	specs, err := Select(cfg)
	if err != nil {
		return nil, nil, err
	}

	var jobs []job
	for _, s := range specs {
		for rep := 0; rep < seeds; rep++ {
			jobs = append(jobs, job{idx: len(jobs), spec: s, rep: rep, seed: CellSeed(cfg.Seed, s.Key(), rep)})
		}
	}

	rep := &Report{
		Schema: Schema, Seed: cfg.Seed, Seeds: seeds,
		Quick: cfg.Quick, Paranoid: cfg.Paranoid, Filter: cfg.Filter,
		Cells: make([]CellReport, len(jobs)),
	}
	results := make([]sim.CellResult, len(jobs))
	// Prefill the identity fields in canonical order so a cancelled run
	// still yields a structurally complete (if partly empty) report.
	for _, j := range jobs {
		rep.Cells[j.idx] = CellReport{
			Key: j.spec.Key(), Exp: j.spec.Exp, Variant: j.spec.Variant,
			Rep: j.rep, Seed: j.seed, Heavy: j.spec.Heavy,
		}
	}

	// Schedule heavy cells first (stable within each class): the longest
	// cell bounds campaign wall time, so it must not start last.
	order := make([]job, len(jobs))
	copy(order, jobs)
	sort.SliceStable(order, func(i, k int) bool { return order[i].spec.Heavy && !order[k].spec.Heavy })

	start := time.Now()
	jobCh := make(chan job)
	doneCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				rep.Cells[j.idx], results[j.idx] = runOne(ctx, cfg, j)
				doneCh <- j.idx
			}
		}()
	}
	go func() {
		defer close(jobCh)
		for _, j := range order {
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	completed := 0
	for idx := range doneCh {
		completed++
		if cfg.OnResult != nil {
			cfg.OnResult(completed, len(jobs), rep.Cells[idx], results[idx])
		}
	}

	for _, c := range rep.Cells {
		rep.Totals.Cells++
		if !c.OK {
			rep.Totals.Failed++
		}
		rep.Totals.Steps += int64(c.Measure.Steps)
		rep.Totals.Rounds += int64(c.Measure.Rounds)
		rep.Totals.GuardEvals += c.Measure.GuardEvals
		rep.Totals.Generated += int64(c.Measure.Generated)
		rep.Totals.DeliveredValid += int64(c.Measure.DeliveredValid)
		rep.Totals.DeliveredInvalid += int64(c.Measure.DeliveredInvalid)
	}
	rep.Run = RunInfo{
		Parallel: par, WallNS: time.Since(start).Nanoseconds(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		StartedAt: start.UTC().Format(time.RFC3339),
	}
	return rep, results, ctx.Err()
}

// runOne executes a single cell, measuring wall time and (global, hence
// only meaningful at -parallel 1) allocation deltas.
func runOne(ctx context.Context, cfg Config, j job) (CellReport, sim.CellResult) {
	cr := CellReport{
		Key: j.spec.Key(), Exp: j.spec.Exp, Variant: j.spec.Variant,
		Rep: j.rep, Seed: j.seed, Heavy: j.spec.Heavy,
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sim.RunCell(j.spec, sim.Options{Seed: j.seed, Paranoid: cfg.Paranoid, Ctx: ctx})
	cr.WallNS = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	cr.Allocs = int64(m1.Mallocs - m0.Mallocs)
	cr.AllocBytes = int64(m1.TotalAlloc - m0.TotalAlloc)
	cr.OK = err == nil && res.OK
	if err != nil {
		cr.Err = err.Error()
	} else if ctx.Err() != nil {
		cr.Err = "interrupted: " + ctx.Err().Error()
		cr.OK = false
	}
	cr.Measure = res.Measure
	return cr, res
}
