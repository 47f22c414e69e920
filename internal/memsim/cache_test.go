package memsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveCache is the reference model for cache: the same frame layout
// (set s at frames [s*ways, (s+1)*ways)), found by scanning the set
// every time, with LRU stamps kept beside the tags.
type naiveCache struct {
	sets, ways int
	tags       []Addr // la|1 when valid, 0 when free
	stamp      []uint64
	tick       uint64
}

func newNaiveCache(sets, ways int) *naiveCache {
	return &naiveCache{sets: sets, ways: ways,
		tags: make([]Addr, sets*ways), stamp: make([]uint64, sets*ways)}
}

func (n *naiveCache) frames(la Addr) (lo, hi int) {
	s := int(la>>LineShift) % n.sets
	return s * n.ways, (s + 1) * n.ways
}

func (n *naiveCache) lookup(la Addr) int {
	lo, hi := n.frames(la)
	for i := lo; i < hi; i++ {
		if n.tags[i] == la|1 {
			return i
		}
	}
	return -1
}

// victim is the first free frame of la's set, else the oldest stamp
// (the first of equals).
func (n *naiveCache) victim(la Addr) int {
	lo, hi := n.frames(la)
	v := lo
	for i := lo; i < hi; i++ {
		if n.tags[i] == 0 {
			return i
		}
		if n.stamp[i] < n.stamp[v] {
			v = i
		}
	}
	return v
}

func (n *naiveCache) touch(i int) {
	n.tick++
	n.stamp[i] = n.tick
}

func (n *naiveCache) reset() {
	clear(n.tags)
	clear(n.stamp)
	n.tick = 0
}

// TestCacheMatchesNaiveModel drives seeded random operation sequences
// through cache and the naive model and requires the same frame index
// from every probe. The line pool holds several lines per set, and
// lines that share a predictor entry, so predictions go stale: a
// prediction accepted without its tag check answers a probe with a
// frame that holds another line.
func TestCacheMatchesNaiveModel(t *testing.T) {
	for _, g := range []struct{ ways, sets int }{{8, 16}, {12, 8}} {
		t.Run(fmt.Sprintf("%dx%d", g.ways, g.sets), func(t *testing.T) {
			frames := g.ways * g.sets
			for seed := int64(1); seed <= 8; seed++ {
				c := newCache(frames*LineSize, g.ways)
				if n := len(c.pred); n&(n-1) != 0 || n < 4*frames {
					t.Fatalf("len(pred) = %d: want a power of two of at least %d", n, 4*frames)
				}
				ref := newNaiveCache(g.sets, g.ways)
				rng := rand.New(rand.NewSource(seed))
				// Three lines per frame, drawn from eight predictor spans.
				pool := make([]Addr, 3*frames)
				for i := range pool {
					pool[i] = Addr(1+rng.Intn(8*len(c.pred)-1)) << LineShift
				}
				for step := 0; step < 20000; step++ {
					la := pool[rng.Intn(len(pool))]
					where := fmt.Sprintf("seed %d step %d line %#x", seed, step, la)
					switch op := rng.Intn(100); {
					case op < 40:
						if got, want := c.lookup(la), ref.lookup(la); got != want {
							t.Fatalf("%s: lookup = %d, want %d", where, got, want)
						}
					case op < 80:
						got, hit := c.lookupOrVictim(la)
						want, wantHit := ref.lookup(la), true
						if want < 0 {
							want, wantHit = ref.victim(la), false
						}
						if got != want || hit != wantHit {
							t.Fatalf("%s: lookupOrVictim = %d,%v, want %d,%v", where, got, hit, want, wantHit)
						}
						if !hit {
							c.setTag(got, la)
							ref.tags[got] = la | 1
						}
						c.touch(got)
						ref.touch(got)
					case op < 90:
						if i := ref.lookup(la); i >= 0 {
							c.invalidate(i)
							ref.tags[i] = 0
						}
					case op < 99:
						i := rng.Intn(frames)
						c.touch(i)
						ref.touch(i)
					default:
						c.reset()
						ref.reset()
					}
				}
				for i := range ref.tags {
					if c.tags[i] != ref.tags[i] || c.lru[i] != ref.stamp[i] {
						t.Fatalf("seed %d: frame %d holds %#x stamp %d, want %#x stamp %d",
							seed, i, c.tags[i], c.lru[i], ref.tags[i], ref.stamp[i])
					}
				}
			}
		})
	}
}

// BenchmarkAccess prices one Hierarchy.Access on the default geometry
// (32 KB 8-way L1, 256 KB 8-way L2, prefetcher on), one core.
func BenchmarkAccess(b *testing.B) {
	const l1Span = (32 << 10) / 8 // bytes between lines of one L1 set
	cases := []struct {
		name string
		addr func(base Addr, i int) Addr
	}{
		// Every access hits the line the previous one hit.
		{"hit_one_line", func(base Addr, _ int) Addr { return base }},
		// Two resident lines of one L1 set, alternated.
		{"hit_two_lines_one_set", func(base Addr, i int) Addr { return base + Addr(i&1)*l1Span }},
		// A unit-stride stream of new lines: every access misses the
		// L1, and the prefetcher runs ahead of it into the L2.
		{"stream_miss", func(base Addr, i int) Addr { return base + Addr(i%(64<<10))*LineSize }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMemory(8 << 20)
			h := NewHierarchy(DefaultConfig(1), m)
			base := m.Alloc("x", (4<<20)+LineSize*16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(0, bc.addr(base, i), false, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
