package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

func TestHistBucketLayout(t *testing.T) {
	// Every bucket's bounds must round-trip through bucketOf, and
	// consecutive buckets must tile the value range without gaps.
	prevHi := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi <= lo && i != histBuckets-1 {
			t.Fatalf("bucket %d empty range [%d,%d)", i, lo, hi)
		}
		if got := histBucketOf(lo); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo, got, i)
		}
		if hi-1 > lo {
			if got := histBucketOf(hi - 1); got != i {
				t.Fatalf("bucketOf(%d) = %d, want %d", hi-1, got, i)
			}
		}
		prevHi = hi
	}
}

func TestHistQuantileBoundedError(t *testing.T) {
	// Against a sorted sample, every quantile must land within one bucket
	// width (≤ 12.5% relative) of the exact order statistic.
	rng := rand.New(rand.NewSource(42))
	var h LatencyHist
	xs := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e6) // exponential latencies around 1ms
		xs = append(xs, v)
		h.Add(v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(xs))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact := xs[rank]
		got := h.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Fatalf("q%.3f = %d, exact %d: outside sanity band", q, got, exact)
		}
		lo := float64(exact) * (1 - 2.0/histSub)
		hi := float64(exact)*(1+2.0/histSub) + 2
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q%.3f = %d, exact %d: outside bucket-width band [%.0f, %.0f]", q, got, exact, lo, hi)
		}
	}
}

func TestHistMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b LatencyHist
	for i := 0; i < 2000; i++ {
		v := int64(rng.Intn(1 << 20))
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged summary differs: %d/%d sum %d/%d", a.Count(), whole.Count(), a.Sum(), whole.Sum())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%.3f: merged %d != whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merge into empty adopts; merging empty is a no-op.
	var empty LatencyHist
	empty.Merge(&whole)
	if empty.Count() != whole.Count() {
		t.Fatal("merge into empty lost observations")
	}
	before := whole.Count()
	whole.Merge(&LatencyHist{})
	if whole.Count() != before {
		t.Fatal("merging an empty histogram changed the count")
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h LatencyHist
	for _, v := range []int64{0, 1, 7, 8, 1000, 123456789, -5} {
		h.Add(v)
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyHist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() ||
		back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("round trip summary mismatch: %+v vs %+v", back, h)
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Fatalf("round trip quantile %.2f mismatch", q)
		}
	}
	if len(back.Buckets()) != len(h.Buckets()) {
		t.Fatalf("bucket lists differ: %v vs %v", back.Buckets(), h.Buckets())
	}
}

func TestHistEmptyAndSingle(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read as all zeros")
	}
	h.Add(41)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 41 {
			t.Fatalf("single-observation quantile %.1f = %d, want 41", q, got)
		}
	}
}

// TestHistMatchesLatencyHist holds the shared-bucket contract: an
// AtomicHist fed the same observations as a LatencyHist snapshots to the
// identical histogram — buckets, summary and quantiles.
func TestHistMatchesLatencyHist(t *testing.T) {
	h := NewAtomicHist()
	var want LatencyHist
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		h.Observe(v)
		want.Add(v)
	}
	got := h.Snapshot()
	if got != want {
		t.Fatalf("snapshot differs from LatencyHist: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
			got.Count(), got.Sum(), got.Min(), got.Max(),
			want.Count(), want.Sum(), want.Min(), want.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%.3f: got %d want %d", q, got.Quantile(q), want.Quantile(q))
		}
	}
}
