// Package campaign fans the experiment cell grid (sim.CellGrid) across a
// worker pool and aggregates the outcomes into a versioned,
// machine-readable report. Determinism contract: every cell derives its
// seed from (campaign seed, cell key, repetition) alone, and the report
// lists cells in canonical grid order — so the deterministic part of the
// report (everything except wall-clock, allocation and host fields, see
// Report.Normalize) is byte-identical no matter how many workers ran or
// how the scheduler interleaved them.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"

	"ssmfp/internal/sim"
)

// Schema is the report format version. Bump it on any field change that
// is not strictly additive; compare refuses mismatched schemas.
const Schema = "ssmfp-campaign-report/v1"

// CellReport is one cell's outcome and cost.
type CellReport struct {
	// Key is "exp" or "exp/variant"; Rep distinguishes repetitions of the
	// same cell under derived seeds (rep 0 runs the campaign seed itself,
	// so its numbers match a plain ssmfp-bench run).
	Key     string `json:"key"`
	Exp     string `json:"exp"`
	Variant string `json:"variant,omitempty"`
	Rep     int    `json:"rep"`
	Seed    int64  `json:"seed"`
	Heavy   bool   `json:"heavy,omitempty"`

	// OK is the cell's acceptance verdict (the experiment's own criterion
	// restricted to this cell); Err reports a run error (unknown cell,
	// cancellation).
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// Measure holds the deterministic, paper-facing quantities.
	Measure sim.CellMeasure `json:"measure"`

	// WallNS, Allocs and AllocBytes are volatile cost measurements
	// (zeroed by Normalize). Allocation deltas come from global
	// runtime.MemStats, so they are precise only at -parallel 1;
	// concurrent workers bleed into each other's deltas.
	WallNS     int64 `json:"wall_ns,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// Totals are integer sums over all cells. Sums (not means) keep the
// deterministic section free of floating-point merge-order effects.
type Totals struct {
	Cells            int   `json:"cells"`
	Failed           int   `json:"failed"`
	Steps            int64 `json:"steps"`
	Rounds           int64 `json:"rounds"`
	GuardEvals       int64 `json:"guard_evals"`
	Generated        int64 `json:"generated"`
	DeliveredValid   int64 `json:"delivered_valid"`
	DeliveredInvalid int64 `json:"delivered_invalid"`
}

// RunInfo describes the host and the schedule of one campaign run. All of
// it is volatile: two runs of the same campaign differ here and nowhere
// else.
type RunInfo struct {
	Parallel  int    `json:"parallel,omitempty"`
	WallNS    int64  `json:"wall_ns,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	StartedAt string `json:"started_at,omitempty"`
}

// Report is the campaign's machine-readable output.
type Report struct {
	Schema   string       `json:"schema"`
	Seed     int64        `json:"seed"`
	Seeds    int          `json:"seeds"`
	Quick    bool         `json:"quick,omitempty"`
	Paranoid bool         `json:"paranoid,omitempty"`
	Filter   string       `json:"filter,omitempty"`
	Cells    []CellReport `json:"cells"`
	Totals   Totals       `json:"totals"`
	Run      RunInfo      `json:"run"`
}

// Normalize zeroes the volatile fields (wall clock, allocations, host
// info) in place and returns the report. Two normalized reports of the
// same campaign configuration marshal to identical bytes regardless of
// worker count or scheduling.
func (r *Report) Normalize() *Report {
	r.Run = RunInfo{}
	for i := range r.Cells {
		r.Cells[i].WallNS = 0
		r.Cells[i].Allocs = 0
		r.Cells[i].AllocBytes = 0
	}
	return r
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a report from path and validates its schema.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
