package metrics

import (
	"math"
	"testing"
)

// TestAggMerge: merging shards must reproduce the single-stream
// aggregate (exactly for count/min/max/sum, to rounding for variance).
func TestAggMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	var whole Agg
	for _, x := range xs {
		whole.Add(x)
	}
	var a, b Agg
	for i, x := range xs {
		if i < 5 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count != whole.Count || a.Min != whole.Min || a.Max != whole.Max {
		t.Errorf("merged = %+v, whole = %+v", a, whole)
	}
	if math.Abs(a.Sum()-whole.Sum()) > 1e-9 {
		t.Errorf("sum: merged %v, whole %v", a.Sum(), whole.Sum())
	}
	if math.Abs(a.Stddev()-whole.Stddev()) > 1e-9 {
		t.Errorf("stddev: merged %v, whole %v", a.Stddev(), whole.Stddev())
	}
}

func TestAggEmpty(t *testing.T) {
	var a, b Agg
	a.Merge(b)
	if a.Count != 0 || a.Sum() != 0 || a.Stddev() != 0 {
		t.Errorf("empty merge not empty: %+v", a)
	}
	b.Add(2)
	a.Merge(b)
	if a.Count != 1 || a.Mean != 2 || a.Min != 2 || a.Max != 2 {
		t.Errorf("merge into empty: %+v", a)
	}
}
