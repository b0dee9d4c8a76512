// Package metrics provides the small statistics toolkit the experiment
// harness reports with: summary statistics, histograms, linear regression
// for scaling checks (e.g. "amortized rounds per delivery grow linearly in
// D", Proposition 7), and aligned ASCII tables for the paper-style output
// of cmd/ssmfp-bench.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, Stddev  float64
	P50, P90, P99 float64
}

// Summarize computes a Summary; it returns a zero Summary for an empty
// sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(varsum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (nearest-rank) of a sorted
// sample. It trusts the caller: the input is never verified and an
// unsorted sample silently yields the wrong order statistic, not a panic.
// An empty sample returns 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// IntsToFloats converts a sample of ints.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Fit is a least-squares line y = Slope*x + Intercept with goodness R2.
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits a least-squares line through (x, y). It panics on
// mismatched lengths and returns a zero fit for fewer than two points.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("metrics: LinearFit length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Intercept: sy / n}
	}
	f := Fit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		f.R2 = 1
	} else {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (f.Slope*xs[i] + f.Intercept)
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/ssTot
	}
	return f
}

// Histogram counts samples into equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram builds a histogram with the given bin count over the sample
// range (a single degenerate bin if all values are equal).
func NewHistogram(xs []float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	h := &Histogram{Counts: make([]int, bins)}
	if len(xs) == 0 {
		return h
	}
	h.Min, h.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	span := h.Max - h.Min
	for _, x := range xs {
		i := 0
		if span > 0 {
			i = int((x - h.Min) / span * float64(bins))
			if i >= bins {
				i = bins - 1
			}
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// Render draws the histogram as ASCII bars of at most width characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	span := h.Max - h.Min
	for i, c := range h.Counts {
		lo := h.Min + span*float64(i)/float64(len(h.Counts))
		hi := h.Min + span*float64(i+1)/float64(len(h.Counts))
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		fmt.Fprintf(&sb, "[%8.1f, %8.1f) %6d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return sb.String()
}

// Table renders aligned ASCII tables, the output format of the experiment
// harness.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
