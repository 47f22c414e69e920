package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-bucket log-scale histogram of uint64 samples
// (latencies in nanoseconds, batch fills, queue depths — the unit is
// the caller's; the registry can attach a display scale for
// encoding, e.g. 1e-9 to publish nanoseconds as seconds).
//
// Bucketing is HDR-style: values below 16 are exact, and above that
// each power-of-two octave is split into 8 sub-buckets, bounding the
// relative error of any reconstructed quantile by 1/8 (12.5%). The
// whole uint64 range maps into 496 buckets, so a histogram is a flat
// ~4 KiB of atomics with no allocation after construction.
//
// Observe and ObserveN are two atomic adds (bucket, sum) plus a
// conditional CAS for the max; there is no lock anywhere, so concurrent
// writers scale and a scrape never blocks an observer.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// histBuckets covers bucketOf over all of uint64: the top value
// (64 significant bits) lands in bucket 60*8+15 = 495.
const histBuckets = 496

// bucketOf maps a sample to its bucket index. Values 0..15 map to
// themselves; larger values keep their top 4 significant bits as an
// 8..15 mantissa and the remaining shift as the octave.
func bucketOf(v uint64) int {
	if v < 16 {
		return int(v)
	}
	exp := bits.Len64(v) - 4
	mant := v >> uint(exp)
	return exp*8 + int(mant)
}

// bucketUB returns the largest sample value that lands in bucket b —
// the bucket's inclusive upper bound, used as the Prometheus `le`
// edge and as the quantile estimate.
func bucketUB(b int) uint64 {
	if b < 16 {
		return uint64(b)
	}
	exp := uint(b/8 - 1)
	mant := uint64(b - int(exp)*8)
	return (mant+1)<<exp - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// ObserveN records n samples of the same value v — what n calls of
// Observe(v) leave behind, for the price of one: a caller that times a
// run of operations with one clock pair (kvserve's read burst) books the
// whole run here. n = 0 records nothing.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.counts[bucketOf(v)].Add(n)
	h.sum.Add(v * n)
	h.raiseMax(v)
}

// raiseMax lifts the recorded maximum to v if v is above it.
func (h *Histogram) raiseMax(v uint64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Merge folds another histogram's samples into h, bucket-wise. Each
// side stays internally consistent under concurrent observers, but
// the fold is not atomic across buckets — use it for post-run
// aggregation (per-class histograms into a total), not live scraping.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read
// at leisure. Snapshots of a live histogram are not atomic across
// buckets — a scrape races individual observations — but every
// sample is counted exactly once, which is all a monitoring read
// needs.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    uint64
}

// Snapshot copies the current bucket counts, total count, sum, and
// max.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Sub returns the delta snapshot s−prev (per-bucket, count, sum) for
// interval reporting. Max is carried from s: a windowed max is not
// recoverable from cumulative state, so the caller gets the
// since-start max.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Sum: s.Sum - prev.Sum, Max: s.Max}
	for i := range s.Counts {
		c := s.Counts[i] - prev.Counts[i]
		d.Counts[i] = c
		d.Count += c
	}
	return d
}

// Quantile returns an upper-bound estimate of the q-quantile
// (0 < q ≤ 1) in the histogram's raw unit: the inclusive upper edge
// of the bucket holding the ceil(q·Count)-th smallest sample. Exact
// for values below 16, within 12.5% above. Returns 0 on an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if float64(target) < q*float64(s.Count) || target == 0 {
		target++
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			ub := bucketUB(i)
			if ub > s.Max && s.Max > 0 {
				return s.Max
			}
			return ub
		}
	}
	return s.Max
}

// Mean returns the mean sample value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
