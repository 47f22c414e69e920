package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// splitmix64 gives the tests a fixed, seedable input stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestBucketMapping(t *testing.T) {
	// Exact below 16, monotone everywhere, and every value within its
	// bucket's bounds.
	for v := uint64(0); v < 16; v++ {
		if bucketOf(v) != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact", v, bucketOf(v))
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		prev = b
		if v > bucketUB(b) {
			t.Fatalf("value %d above its bucket upper bound %d", v, bucketUB(b))
		}
		if b >= histBuckets {
			t.Fatalf("bucket %d out of range", b)
		}
	}
	if bucketOf(math.MaxUint64) != histBuckets-1 {
		t.Fatalf("max value bucket = %d, want %d", bucketOf(math.MaxUint64), histBuckets-1)
	}
}

// TestQuantileVsSorted checks p50/p90/p99/p999 against the exact
// sorted reference on fixed inputs. The histogram promises its
// estimate is an upper bound within one sub-bucket: at least the
// true quantile, and at most 12.5% above it.
func TestQuantileVsSorted(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(i int, s *uint64) uint64
	}{
		{"uniform", func(i int, s *uint64) uint64 { return splitmix64(s) % 1_000_000 }},
		{"heavy-tail", func(i int, s *uint64) uint64 {
			v := splitmix64(s) % 10_000
			if i%100 == 0 {
				v *= 1000
			}
			return v
		}},
		{"small-exact", func(i int, s *uint64) uint64 { return splitmix64(s) % 12 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 50_000
			seed := uint64(42)
			var h Histogram
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = tc.gen(i, &seed)
				h.Observe(vals[i])
			}
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			s := h.Snapshot()
			if s.Count != n {
				t.Fatalf("count = %d, want %d", s.Count, n)
			}
			for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
				idx := int(math.Ceil(q*n)) - 1
				exact := vals[idx]
				got := s.Quantile(q)
				if got < exact {
					t.Errorf("q%g = %d below exact %d", q, got, exact)
				}
				// Upper bound: one sub-bucket of slack (12.5%), +1 for the
				// integer edges of tiny values.
				if float64(got) > float64(exact)*1.125+1 {
					t.Errorf("q%g = %d, more than 12.5%% above exact %d", q, got, exact)
				}
			}
			if s.Max != vals[n-1] {
				t.Errorf("max = %d, want %d", s.Max, vals[n-1])
			}
		})
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Error("empty histogram quantile/mean not zero")
	}
}

// TestHistogramConcurrent hammers one histogram from many
// goroutines; count and sum must be exact. Run under -race in CI.
func TestHistogramConcurrent(t *testing.T) {
	const workers, perWorker = 8, 20_000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := uint64(w)
			for i := 0; i < perWorker; i++ {
				h.Observe(splitmix64(&seed) % 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var wantSum uint64
	for w := 0; w < workers; w++ {
		seed := uint64(w)
		for i := 0; i < perWorker; i++ {
			wantSum += splitmix64(&seed) % 1000
		}
	}
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestSnapshotSub(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(100)
	before := h.Snapshot()
	h.Observe(5)
	h.Observe(7)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 || d.Sum != 12 {
		t.Fatalf("delta count=%d sum=%d, want 2/12", d.Count, d.Sum)
	}
	if got := d.Quantile(1.0); got != 7 {
		t.Fatalf("delta p100 = %d, want 7", got)
	}
}

// TestObserveN: ObserveN(v, n) leaves what n calls of Observe(v) leave —
// compared as whole snapshots (every bucket, Count, Sum, Max) and through
// Quantile, Merge and Sub — for an exact value, both sides of a bucket
// edge and a large one; n = 0 records nothing.
func TestObserveN(t *testing.T) {
	for _, v := range []uint64{0, 7, 15, 16, bucketUB(40), bucketUB(40) + 1, 1<<40 + 12345} {
		for _, n := range []uint64{1, 64, 1000} {
			var one, many Histogram
			for _, h := range []*Histogram{&one, &many} {
				h.Observe(3) // something already there, below and above v
				h.Observe(1 << 50)
			}
			before := many.Snapshot()
			for i := uint64(0); i < n; i++ {
				one.Observe(v)
			}
			many.ObserveN(v, n)
			want, got := one.Snapshot(), many.Snapshot()
			if got != want {
				t.Fatalf("ObserveN(%d, %d): snapshot differs from %d × Observe: count %d/%d sum %d/%d max %d/%d",
					v, n, n, got.Count, want.Count, got.Sum, want.Sum, got.Max, want.Max)
			}
			for _, q := range []float64{0.5, 0.99, 1} {
				if got.Quantile(q) != want.Quantile(q) {
					t.Fatalf("ObserveN(%d, %d): q%g = %d, want %d", v, n, q, got.Quantile(q), want.Quantile(q))
				}
			}
			if d := got.Sub(before); d.Count != n || d.Sum != v*n || d.Counts[bucketOf(v)] != n {
				t.Fatalf("ObserveN(%d, %d): delta count=%d sum=%d bucket=%d", v, n, d.Count, d.Sum, d.Counts[bucketOf(v)])
			}
			var mOne, mMany Histogram
			mOne.Merge(&one)
			mMany.Merge(&many)
			if mOne.Snapshot() != mMany.Snapshot() {
				t.Fatalf("ObserveN(%d, %d): merged snapshots differ", v, n)
			}
		}
	}
	var h Histogram
	h.ObserveN(1<<30, 0)
	if s := h.Snapshot(); s != (HistSnapshot{}) {
		t.Fatalf("ObserveN(v, 0) recorded count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
}
