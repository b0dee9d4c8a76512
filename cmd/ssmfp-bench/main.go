// Command ssmfp-bench regenerates the experiments of the reproduction —
// the figures and propositions of the paper plus the comparison and
// message-passing extensions — as a parallel campaign over the experiment
// cell grid, printing the familiar tables and optionally writing a
// versioned machine-readable report.
//
// Usage:
//
//	ssmfp-bench [-seed N] [-seeds K] [-parallel W] [-shards S]
//	            [-filter p5,ep/grid] [-quick] [-paranoid]
//	            [-json BENCH.json] [-normalize] [-cells]
//	            [-progress] [-trace-out f3.jsonl]
//	ssmfp-bench compare BASELINE.json CURRENT.json
//	            [-wall-pct 25] [-alloc-pct 10] [-guard-pct 1]
//
// The campaign is deterministic: the normalized report (wall-clock,
// allocation and host fields excluded) is byte-identical for any
// -parallel and any -shards value; -normalize writes the -json report
// pre-normalized so reports from different shard/worker counts can be
// diffed byte-for-byte. compare exits 1 on a regression against the
// baseline and 2 on usage or I/O errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ssmfp/internal/campaign"
	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/obs"
	"ssmfp/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("ssmfp-bench", flag.ExitOnError)
	seed := fs.Int64("seed", 2009, "campaign seed (repetition 0 of every cell runs it directly)")
	seeds := fs.Int("seeds", 1, "repetitions per cell (rep > 0 uses derived seeds)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker count (any value yields the same normalized report)")
	shards := fs.Int("shards", 1, "run every engine on the sharded parallel step engine with this many shards (any value yields the same normalized report)")
	filter := fs.String("filter", "", "comma-separated cell-key prefixes (p5, ep/grid, f3)")
	quick := fs.Bool("quick", false, "skip the heavy cells")
	paranoid := fs.Bool("paranoid", false, "run every engine with the incremental self-check enabled (naive rescan cross-checks each step)")
	jsonOut := fs.String("json", "", "write the machine-readable campaign report to this file")
	normalize := fs.Bool("normalize", false, "normalize the -json report (zero volatile wall/alloc/host fields) for byte-for-byte diffing")
	listCells := fs.Bool("cells", false, "list the selected cells and exit without running")
	progress := fs.Bool("progress", false, "print per-cell progress to stderr")
	traceOut := fs.String("trace-out", "", "write the f3 replay as a JSONL event trace to this file")
	fs.Parse(args)

	cfg := campaign.Config{
		Seed: *seed, Seeds: *seeds, Parallel: *parallel, Shards: *shards,
		Filter: *filter, Quick: *quick, Paranoid: *paranoid,
	}
	if *listCells {
		specs, err := campaign.Select(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-bench:", err)
			return 2
		}
		for _, s := range specs {
			heavy := ""
			if s.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%s%s\n", s.Key(), heavy)
		}
		return 0
	}
	if *progress {
		cfg.OnResult = func(done, total int, cr campaign.CellReport, _ sim.CellResult) {
			verdict := "ok"
			if !cr.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s#%d %s (%s)\n",
				done, total, cr.Key, cr.Rep, verdict, time.Duration(cr.WallNS).Round(time.Millisecond))
		}
	}

	if *traceOut != "" {
		if err := writeF3Trace(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-bench: trace:", err)
			return 2
		}
	}

	rep, results, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench:", err)
		return 2
	}
	render(rep, results)
	if *jsonOut != "" {
		if *normalize {
			rep.Normalize()
		}
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "ssmfp-bench:", err)
			return 2
		}
		fmt.Printf("campaign report: %d cells -> %s\n", rep.Totals.Cells, *jsonOut)
	}
	if rep.Totals.Failed > 0 {
		return 1
	}
	return 0
}

// render prints one table per experiment, in registry order, from the
// registry's title and header and the repetition-0 rows of its cells (f3
// prints its rendered trace), then E-P7's amortized-vs-D linear fit
// across its cells.
func render(rep *campaign.Report, results []sim.CellResult) {
	var p7xs, p7ys []float64
	for _, e := range sim.Experiments {
		t := metrics.NewTable(e.Title, e.Header...)
		ran := false
		for i, res := range results {
			cr := rep.Cells[i]
			if cr.Rep != 0 || cr.Exp != e.ID || cr.Err != "" {
				continue
			}
			ran = true
			for _, row := range res.Rows {
				t.AddRow(row...)
			}
			if res.Text != "" {
				fmt.Printf("== %s ==\n%s\n", e.Title, res.Text)
			}
			if e.ID == "p7" {
				p7xs = append(p7xs, cr.Measure.Extra["d"])
				p7ys = append(p7ys, cr.Measure.Extra["amortized"])
			}
		}
		if ran && e.Header != nil {
			fmt.Println(t)
		}
	}
	if len(p7xs) >= 2 {
		fit := metrics.LinearFit(p7xs, p7ys)
		fmt.Printf("amortized-vs-D linear fit: slope=%.3f intercept=%.3f R²=%.3f\n\n", fit.Slope, fit.Intercept, fit.R2)
	}
	for _, cr := range rep.Cells {
		if cr.Err != "" {
			fmt.Printf("!! cell %s#%d ERROR: %s\n", cr.Key, cr.Rep, cr.Err)
		} else if !cr.OK {
			fmt.Printf("!! cell %s#%d FAILED its acceptance check\n", cr.Key, cr.Rep)
		}
	}
}

// writeF3Trace records the Figure 3 replay's JSONL event trace (the
// golden round-trip input of ssmfp-trace -replay).
func writeF3Trace(path string) error {
	_, hdr, events := sim.ExperimentF3Recorded()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.WriteJSONL(f, hdr, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("f3 trace: %d events -> %s\n", len(events), path)
	}
	return err
}

// sniffSchema peeks at a report file's "schema" field so compare can
// dispatch between campaign reports and load reports.
func sniffSchema(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &hdr); err != nil {
		return "", fmt.Errorf("%s: %v", path, err)
	}
	return hdr.Schema, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("ssmfp-bench compare", flag.ExitOnError)
	th := campaign.DefaultThresholds()
	fs.Float64Var(&th.WallPct, "wall-pct", th.WallPct, "wall-clock regression threshold (%%; host-dependent, keep generous)")
	fs.Float64Var(&th.AllocPct, "alloc-pct", th.AllocPct, "allocation-count regression threshold (%%)")
	fs.Float64Var(&th.GuardPct, "guard-pct", th.GuardPct, "guard-evaluation regression threshold (%%; deterministic)")
	var lth load.Thresholds
	fs.Float64Var(&lth.P99Pct, "p99-pct", 0, "load reports: allowed p99 latency growth (%%; default 75)")
	fs.Float64Var(&lth.RatePct, "rate-pct", 0, "load reports: allowed achieved-rate drop (%%; default 25)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ssmfp-bench compare [flags] BASELINE.json CURRENT.json")
		return 2
	}
	schema, err := sniffSchema(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench compare:", err)
		return 2
	}
	if schema == load.Schema {
		return compareLoad(fs.Arg(0), fs.Arg(1), lth)
	}
	base, err := campaign.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench compare:", err)
		return 2
	}
	cur, err := campaign.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench compare:", err)
		return 2
	}
	r := campaign.Compare(base, cur, th)
	for _, d := range r.Regressions {
		fmt.Printf("REGRESSION %s\n", d)
	}
	for _, id := range r.Missing {
		fmt.Printf("MISSING %s (in baseline, absent from current)\n", id)
	}
	for _, d := range r.Improvements {
		fmt.Printf("improvement %s\n", d)
	}
	for _, id := range r.Added {
		fmt.Printf("added %s (not in baseline)\n", id)
	}
	if !r.Clean() {
		fmt.Printf("compare: %d regression(s), %d missing cell(s)\n", len(r.Regressions), len(r.Missing))
		return 1
	}
	fmt.Printf("compare: clean (%d cells, %d improvement(s), %d added)\n", len(base.Cells), len(r.Improvements), len(r.Added))
	return 0
}

// compareLoad gates a load report against a load baseline.
func compareLoad(basePath, curPath string, th load.Thresholds) int {
	base, err := load.Load(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench compare:", err)
		return 2
	}
	cur, err := load.Load(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmfp-bench compare:", err)
		return 2
	}
	r := load.Compare(base, cur, th)
	for _, b := range r.Broken {
		fmt.Printf("BROKEN %s\n", b)
	}
	for _, d := range r.Regressions {
		fmt.Printf("REGRESSION %s\n", d)
	}
	for _, d := range r.Improvements {
		fmt.Printf("improvement %s\n", d)
	}
	if !r.Clean() {
		fmt.Printf("compare: %d broken, %d regression(s)\n", len(r.Broken), len(r.Regressions))
		return 1
	}
	fmt.Printf("compare: clean (%d steps, %d improvement(s))\n", len(base.Steps), len(r.Improvements))
	return 0
}
