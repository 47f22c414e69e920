package memsim

import (
	"fmt"
	"math/bits"
)

// lineState is the coherence/validity state of a cached line.
type lineState uint8

const (
	stateInvalid  lineState = iota
	stateShared             // valid, clean with respect to the level below
	stateModified           // valid, dirty with respect to the level below
)

// cacheLine is the coherence metadata for one line frame. The data
// itself lives in Memory's architectural backing array; the frame's
// identity and its LRU stamp live in the cache's tags and lru arrays.
type cacheLine struct {
	// dirtySince is the cycle the line last became dirty anywhere in
	// the hierarchy (an L2/directory field, like sharers/dirtyOwner;
	// unused in L1 frames).
	dirtySince int64
	sharers    uint32 // bitmask of cores with an L1 copy
	state      lineState
	dirtyOwner int8 // core holding the line Modified in its L1, or -1
}

// cache is a set-associative cache with true-LRU replacement. It stores
// metadata only; see the package comment.
//
// Frames are addressed by index into parallel arrays. tags[i] packs
// frame i's identity and validity into one word: the line address with
// bit 0 set (line addresses are LineSize-aligned, so the bit is free)
// when the frame is valid, 0 when it is invalid. lru[i] is its
// replacement stamp. A set scan — for a hit, or for a victim on a miss
// — therefore reads 8 bytes per way from one packed array.
//
// Most probes never scan: a way predictor, indexed by line-address
// bits, remembers the frame each line was last found or filled in, and
// a probe first checks that one frame's tag. The check makes any stale
// entry harmless — a line lives in at most one frame, so tags[pred] ==
// la|1 means the line is there, and a mismatch only falls back to the
// scan — and nothing that frees or refills a frame has to update it.
type cache struct {
	ways    int
	setMask Addr
	tags    []Addr      // sets*ways, frames of set s at [s*ways, (s+1)*ways)
	lru     []uint64    // per-frame LRU stamp, larger = more recently used
	lines   []cacheLine // per-frame coherence metadata

	// l2i, used only in L1 caches, memoizes the L2 frame index of each
	// valid line. Inclusion makes it stable: an L2 frame is never reused
	// without first recalling (invalidating) every L1 copy, so while an
	// L1 frame stays valid its line sits at the same L2 index. This
	// turns the L2 set scan on every S→M upgrade and every L1 eviction
	// into a direct index.
	l2i []int32

	// pred is the way predictor: a power of two of at least four
	// entries per frame, so lines of one set that a kernel alternates
	// between (A[i] and B[i] of one set) keep separate entries.
	pred     []int32
	predMask Addr

	tick uint64
}

// newCache builds a cache of the given total size in bytes and
// associativity. Size must be a multiple of ways*LineSize and the
// resulting set count must be a power of two.
func newCache(size, ways int) *cache {
	if size <= 0 || ways <= 0 || size%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("memsim: bad cache geometry size=%d ways=%d", size, ways))
	}
	sets := size / (ways * LineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsim: cache set count %d is not a power of two (size=%d ways=%d)", sets, size, ways))
	}
	frames := sets * ways
	npred := 1 << bits.Len(uint(4*frames-1))
	c := &cache{ways: ways, setMask: Addr(sets - 1), predMask: Addr(npred - 1)}
	c.tags = make([]Addr, frames)
	c.lru = make([]uint64, frames)
	c.lines = make([]cacheLine, frames)
	c.l2i = make([]int32, frames)
	c.pred = make([]int32, npred)
	for i := range c.lines {
		c.lines[i].dirtyOwner = -1
	}
	return c
}

// setOf returns the index of the set holding line address la.
func (c *cache) setOf(la Addr) int {
	return int((la >> LineShift) & c.setMask)
}

// predicted answers a lookup from the way predictor alone: the frame
// index if the predicted frame holds la, else -1 (which only means
// "scan", not "miss"). It is small enough to inline into the
// hierarchy's access fast path.
func (c *cache) predicted(la Addr) int {
	i := c.pred[(la>>LineShift)&c.predMask]
	if c.tags[i] == la|1 {
		return int(i)
	}
	return -1
}

// scan finds line la by scanning its set, records a hit in the
// predictor, and returns the frame index or -1 on a miss.
func (c *cache) scan(la Addr) int {
	want := la | 1
	base := c.setOf(la) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == want {
			c.pred[(la>>LineShift)&c.predMask] = int32(base + i)
			return base + i
		}
	}
	return -1
}

// lookup returns the index of the frame holding line la, or -1 on miss.
func (c *cache) lookup(la Addr) int {
	if i := c.predicted(la); i >= 0 {
		return i
	}
	return c.scan(la)
}

// addrOf returns the line address held by valid frame i.
func (c *cache) addrOf(i int) Addr { return c.tags[i] &^ 1 }

// valid reports whether frame i holds a line.
func (c *cache) valid(i int) bool { return c.tags[i] != 0 }

// setTag marks frame i as holding line la.
func (c *cache) setTag(i int, la Addr) {
	c.tags[i] = la | 1
	c.pred[(la>>LineShift)&c.predMask] = int32(i)
}

// invalidate frees frame i.
func (c *cache) invalidate(i int) {
	c.tags[i] = 0
	c.lines[i].state = stateInvalid
}

// touch marks frame i as most recently used.
func (c *cache) touch(i int) {
	c.tick++
	c.lru[i] = c.tick
}

// lookupOrVictim resolves line la for the L2 demand/prefetch path,
// where a miss is always followed immediately by a fill: on a hit it
// returns the frame index and true; on a miss it returns victim's
// choice for la and false.
func (c *cache) lookupOrVictim(la Addr) (int, bool) {
	if i := c.lookup(la); i >= 0 {
		return i, true
	}
	return c.victim(la), false
}

// victim returns the frame to fill for line la: the first invalid frame
// of the set if one exists, otherwise the least recently used frame. The
// caller must evict a valid victim before reusing the frame. The
// running minimum is kept beside its index, which lets the compiler
// pick both with conditional moves: the stamps' order is data, and a
// branch on it mispredicts.
func (c *cache) victim(la Addr) int {
	base := c.setOf(la) * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+len(tags)]
	v, oldest := 0, lru[0]
	for i, t := range tags {
		if t == 0 {
			return base + i
		}
		if s := lru[i]; s < oldest {
			v, oldest = i, s
		}
	}
	return base + v
}

// reset invalidates every frame (used after a crash). The predictor is
// left as it is: every entry is tag-checked before use.
func (c *cache) reset() {
	clear(c.tags)
	clear(c.lru)
	for i := range c.lines {
		c.lines[i] = cacheLine{dirtyOwner: -1}
	}
	c.tick = 0
}

// forEachValid calls fn for every valid frame with its index and the
// line address it holds.
func (c *cache) forEachValid(fn func(i int, la Addr, l *cacheLine)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(i, t&^1, &c.lines[i])
		}
	}
}
