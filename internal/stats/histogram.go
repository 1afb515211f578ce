// Package stats provides the measurement primitives used by the
// experiment harness: log-bucketed latency histograms with percentile
// extraction, throughput meters, and time-series samplers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ghost/internal/sim"
)

// Histogram records durations in logarithmically spaced buckets. It is
// HDR-style: buckets grow by a fixed ratio so relative error is bounded
// (~5% with the default 64 buckets per decade) across nine decades,
// 1 ns .. 1000 s. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration

	// memoized bucketOf result: simulation latencies are modeled costs
	// that repeat the same handful of values, so this skips the Log10 on
	// the vast majority of records.
	memoVal    sim.Duration
	memoBucket int
}

const (
	bucketsPerDecade = 64
	histDecades      = 12
	histBuckets      = bucketsPerDecade*histDecades + 2
)

func bucketOf(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	b := int(math.Log10(float64(d))*bucketsPerDecade) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLow returns the smallest duration mapping to bucket b.
func bucketLow(b int) sim.Duration {
	if b <= 0 {
		return 0
	}
	return sim.Duration(math.Pow(10, float64(b-1)/bucketsPerDecade))
}

// Record adds one observation. The bucket array is part of the struct
// (~6 KB), so recording into a zero-value histogram allocates nothing.
func (h *Histogram) Record(d sim.Duration) {
	if h.total == 0 {
		h.min = math.MaxInt64
		h.memoVal = -1
	}
	if d != h.memoVal {
		h.memoVal, h.memoBucket = d, bucketOf(d)
	}
	h.counts[h.memoBucket]++
	h.total++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Min returns the smallest recorded value, 0 when empty.
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns the duration at quantile q in [0,1]. Exact min/max are
// returned at the extremes; interior quantiles carry the bucket's
// relative error.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for b, c := range h.counts[:] {
		seen += c
		if seen > rank {
			// Midpoint of bucket, clamped to observed range.
			lo, hi := bucketLow(b), bucketLow(b+1)
			mid := (lo + hi) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P50, P90, P99 and P999 are the percentile shorthands used by the
// paper's figures.
func (h *Histogram) P50() sim.Duration  { return h.Quantile(0.50) }
func (h *Histogram) P90() sim.Duration  { return h.Quantile(0.90) }
func (h *Histogram) P99() sim.Duration  { return h.Quantile(0.99) }
func (h *Histogram) P999() sim.Duration { return h.Quantile(0.999) }

// Merge adds all of other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 {
		h.min = math.MaxInt64
		h.memoVal = -1
	}
	for i, c := range other.counts[:] {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// HistogramState is a histogram's serialized form (snapshot/restore):
// non-zero buckets as parallel index/count arrays plus the scalar
// aggregates. The memoization fields are deliberately not part of the
// state — they are a cache and never affect recorded values.
type HistogramState struct {
	Idx   []int    `json:"idx,omitempty"`
	N     []uint64 `json:"n,omitempty"`
	Total uint64   `json:"total"`
	Sum   float64  `json:"sum"`
	Min   int64    `json:"min"`
	Max   int64    `json:"max"`
}

// State captures the histogram for serialization.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Total: h.total, Sum: h.sum, Min: int64(h.min), Max: int64(h.max)}
	for i, c := range h.counts[:] {
		if c != 0 {
			s.Idx = append(s.Idx, i)
			s.N = append(s.N, c)
		}
	}
	return s
}

// SetState overwrites the histogram with a previously captured state.
func (h *Histogram) SetState(s HistogramState) {
	h.Reset()
	for i, b := range s.Idx {
		if b >= 0 && b < histBuckets && i < len(s.N) {
			h.counts[b] = s.N[i]
		}
	}
	h.total = s.Total
	h.sum = s.Sum
	h.min = sim.Duration(s.Min)
	h.max = sim.Duration(s.Max)
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.counts = [histBuckets]uint64{}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarises the distribution for logs and test failures.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p99=%v p999=%v max=%v}",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}

// Percentiles formats the named percentile row used by Fig 7 style tables.
func (h *Histogram) Percentiles() string {
	var b strings.Builder
	for _, p := range []struct {
		name string
		q    float64
	}{{"50%", .5}, {"90%", .9}, {"99%", .99}, {"99.9%", .999}, {"99.99%", .9999}, {"99.999%", .99999}} {
		fmt.Fprintf(&b, "%s=%v ", p.name, h.Quantile(p.q))
	}
	return strings.TrimSpace(b.String())
}

// Exact is a small exact-percentile recorder for tests and low-volume
// series; it stores every observation.
type Exact struct {
	vals   []sim.Duration
	sorted bool
}

// Record adds one observation.
func (e *Exact) Record(d sim.Duration) {
	e.vals = append(e.vals, d)
	e.sorted = false
}

// Count returns the number of observations.
func (e *Exact) Count() int { return len(e.vals) }

// Quantile returns the exact q-quantile by nearest-rank.
func (e *Exact) Quantile(q float64) sim.Duration {
	if len(e.vals) == 0 {
		return 0
	}
	if !e.sorted {
		sort.Slice(e.vals, func(i, j int) bool { return e.vals[i] < e.vals[j] })
		e.sorted = true
	}
	idx := int(q * float64(len(e.vals)))
	if idx >= len(e.vals) {
		idx = len(e.vals) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return e.vals[idx]
}

// Mean returns the arithmetic mean.
func (e *Exact) Mean() sim.Duration {
	if len(e.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range e.vals {
		sum += float64(v)
	}
	return sim.Duration(sum / float64(len(e.vals)))
}
