package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket layout of LatencyHist: values below histSub land in
// exact unit buckets; above that, every power-of-two octave is split into
// histSub equal sub-buckets, so the relative bucket width — and therefore
// the worst-case quantile error — is bounded by 1/histSub (12.5%).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// LatencyHist is a mergeable log-bucketed histogram of non-negative int64
// observations (the load subsystem feeds it latencies in nanoseconds).
// Like Agg it never holds the sample: independent shards fold their own
// observations and combine associatively with Merge, and — unlike Agg's
// floating-point moments — every field is an integer, so merge order
// cannot perturb the result. Quantiles are read from bucket bounds and are
// exact up to the bucket width.
//
// The zero value is an empty, usable histogram.
type LatencyHist struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// histBucketOf maps a value to its bucket index. Negative values clamp to
// bucket 0 (the collector clamps clock skew the same way; counting it at
// zero beats dropping the sample).
func histBucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	frac := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(frac)
}

// histBucketBounds returns the half-open value range [lo, hi) of bucket i.
func histBucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	exp := i/histSub + histSubBits - 1
	width := int64(1) << (uint(exp) - histSubBits)
	lo = (histSub + int64(i%histSub)) << (uint(exp) - histSubBits)
	return lo, lo + width
}

// AtomicHist is a lock-free accumulator over the LatencyHist bucket
// layout, for hot paths that many goroutines update (the telemetry
// registry's histograms). Observe is atomics only and allocation-free;
// Snapshot reconstructs a LatencyHist, so concurrently accumulated
// histograms quantile and merge exactly like LatencyHist. Min/max are
// maintained with CAS loops, so a snapshot taken under concurrent
// Observe calls is a consistent-enough summary (counts may lag sum by
// in-flight observations; both are monotone). Build it with
// NewAtomicHist.
type AtomicHist struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // MaxInt64 until the first observation
	max    atomic.Int64
}

// NewAtomicHist returns an empty AtomicHist.
func NewAtomicHist() *AtomicHist {
	h := &AtomicHist{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe folds one observation (negative values clamp to 0, matching
// LatencyHist.Add).
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of observations so far.
func (h *AtomicHist) Count() int64 { return h.count.Load() }

// Snapshot reconstructs the accumulated state as a LatencyHist, ready for
// Quantile, Merge, and the sparse JSON encoding.
func (h *AtomicHist) Snapshot() LatencyHist {
	var out LatencyHist
	for i := range h.counts {
		out.counts[i] = h.counts[i].Load()
	}
	out.count, out.sum = h.count.Load(), h.sum.Load()
	if out.count > 0 {
		if out.min = h.min.Load(); out.min == math.MaxInt64 {
			out.min = 0
		}
		out.max = h.max.Load()
	}
	return out
}

// Add folds one observation into the histogram.
func (h *LatencyHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.counts[histBucketOf(v)]++
	h.count++
	h.sum += v
}

// Merge folds another histogram into h. Merging an empty histogram is a
// no-op; merge order never changes the result (all fields are integers).
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		*h = *o
		return
	}
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of folded observations.
func (h *LatencyHist) Count() int64 { return h.count }

// Sum returns the total of all folded observations.
func (h *LatencyHist) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *LatencyHist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *LatencyHist) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *LatencyHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (q in [0,1]) as the inclusive upper
// bound of the bucket holding the rank, clamped to the observed [min,
// max]. An empty histogram returns 0. Quantile(0.5) of one observation is
// that observation.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			_, hi := histBucketBounds(i)
			v := hi - 1
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max // unreachable: cum reaches count
}

// HistBucket is one non-empty bucket of a LatencyHist: the half-open
// value range [Lo, Hi) and its count.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets lists the non-empty buckets in increasing value order.
func (h *LatencyHist) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := histBucketBounds(i)
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// histJSON is the wire image of a LatencyHist: scalar summary plus the
// sparse [index, count] pairs of the non-empty buckets.
type histJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram sparsely (only non-empty buckets).
func (h *LatencyHist) MarshalJSON() ([]byte, error) {
	out := histJSON{Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.Max()}
	for i, c := range h.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the sparse form written by MarshalJSON.
func (h *LatencyHist) UnmarshalJSON(b []byte) error {
	var in histJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*h = LatencyHist{count: in.Count, sum: in.Sum, min: in.Min, max: in.Max}
	for _, p := range in.Buckets {
		if p[0] < 0 || p[0] >= histBuckets {
			return fmt.Errorf("metrics: histogram bucket index %d out of range", p[0])
		}
		h.counts[p[0]] = p[1]
	}
	return nil
}
