package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with lock-free observation. Each
// Observe is one atomic add into a bucket plus a CAS-loop float add into
// the running sum — cheap enough for the single-writer apply loop. Bounds
// are upper bucket edges in ascending order; an implicit +Inf bucket
// catches overflow. Latency histograms store seconds.
//
// A concurrent Snapshot may observe a sample's bucket increment before its
// sum contribution (or vice versa); the drift is bounded by in-flight
// observations and irrelevant for monitoring.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records an elapsed duration, in seconds. It is a no-op while
// instrumentation is disabled, so callers that already guarded their
// time.Now pair with Enabled() pay nothing extra.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveValue(d.Seconds())
}

// ObserveValue records a raw sample (a run size, a byte count). No-op
// while instrumentation is disabled.
func (h *Histogram) ObserveValue(v float64) {
	if !enabled.Load() {
		return
	}
	h.buckets[h.bucketIdx(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// bucketIdx finds the first bound >= v by binary search.
func (h *Histogram) bucketIdx(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	Bounds []float64 // upper edges, ascending; +Inf implicit
	Counts []uint64  // per-bucket (non-cumulative); len(Bounds)+1
	Count  uint64    // total observations
	Sum    float64   // sum of observed values
}

// Snapshot copies the current bucket counts. Locked-API side: scrape
// handlers and reporting only.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket that contains the target rank, the same estimate a
// Prometheus histogram_quantile gives. Returns 0 when empty; samples in
// the +Inf bucket clamp to the largest finite bound.
func (s *HistSnapshot) Quantile(q float64) float64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				// +Inf bucket: clamp to the last finite edge.
				if len(s.Bounds) == 0 {
					return 0
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			if c == 0 {
				return upper
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lower + (upper-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// P50, P95, P99 are the quantiles the serving layer reports.
func (s *HistSnapshot) P50() float64 { return s.Quantile(0.50) }
func (s *HistSnapshot) P95() float64 { return s.Quantile(0.95) }
func (s *HistSnapshot) P99() float64 { return s.Quantile(0.99) }
