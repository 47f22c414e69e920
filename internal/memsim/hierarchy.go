package memsim

import "fmt"

// Config describes the cache hierarchy geometry. The defaults follow the
// paper's gem5 configuration (Table II) scaled down proportionally to our
// smaller inputs; see DESIGN.md §4.
type Config struct {
	Cores  int
	L1Size int // bytes, per core
	L1Ways int
	L2Size int // bytes, shared, inclusive
	L2Ways int

	// PrefetchStreams and PrefetchDegree configure the per-core stride
	// prefetcher: up to PrefetchStreams concurrent unit-stride streams
	// are tracked per core; a stream hit prefetches the next
	// PrefetchDegree lines into the L2. Zero disables prefetching.
	PrefetchStreams int
	PrefetchDegree  int
}

// DefaultConfig returns the scaled default hierarchy: 32 KB 8-way L1s
// and a 256 KB 8-way shared L2 (the paper uses 64 KB L1 / 512 KB L2 for
// 1024×1024 inputs; we halve the caches and quarter the matrices,
// keeping the working set comfortably larger than the L2 so natural
// evictions — the mechanism Lazy Persistency rides on — stay exercised).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:  cores,
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		PrefetchStreams: 8, PrefetchDegree: 4,
	}
}

// AccessKind reports where an access was satisfied; the timing model in
// internal/sim converts it to latency.
type AccessKind uint8

const (
	// AccessL1 hit in the core's private L1.
	AccessL1 AccessKind = iota
	// AccessL2 missed L1 and hit the shared L2 (includes hits that
	// required an intervention from another core's L1).
	AccessL2
	// AccessMem missed both levels and filled from NVMM.
	AccessMem
)

// Stats aggregates hierarchy events. Writes to NVMM are counted on Memory
// (split by cause); everything here is cache-side.
type Stats struct {
	L1Hits        uint64
	L2Accesses    uint64
	L2Hits        uint64
	L2Misses      uint64
	Interventions uint64 // L1-to-L1 dirty transfers through the directory
	Invalidations uint64 // L1 lines invalidated by coherence or inclusion
	Upgrades      uint64 // S→M upgrades that consulted the directory

	// Volatility duration (§VI): cycles between a line becoming dirty in
	// the hierarchy and its content reaching NVMM.
	MaxVdur int64
	SumVdur int64
	NumVdur int64

	// Prefetches counts lines the stride prefetcher brought into L2.
	Prefetches uint64
}

// L2MissRate returns L2 misses / L2 accesses (0 when idle).
func (s *Stats) L2MissRate() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Accesses)
}

// Hierarchy is the multi-core cache hierarchy: one private L1 per core
// and one shared, inclusive L2 with an in-cache directory (a simplified
// MESI: lines are Invalid, Shared, or Modified; the directory tracks the
// sharer set and the single Modified owner).
type Hierarchy struct {
	cfg     Config
	mem     *Memory
	l1      []*cache
	l2      *cache
	streams [][]Addr // per-core stream heads (line addresses)
	nextRep []int    // per-core round-robin stream replacement cursor
	st      Stats
}

// NewHierarchy builds the hierarchy over mem.
func NewHierarchy(cfg Config, mem *Memory) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > 32 {
		panic(fmt.Sprintf("memsim: core count %d out of range [1,32]", cfg.Cores))
	}
	h := &Hierarchy{cfg: cfg, mem: mem, l2: newCache(cfg.L2Size, cfg.L2Ways)}
	h.l1 = make([]*cache, cfg.Cores)
	h.streams = make([][]Addr, cfg.Cores)
	h.nextRep = make([]int, cfg.Cores)
	for i := range h.l1 {
		h.l1[i] = newCache(cfg.L1Size, cfg.L1Ways)
		if cfg.PrefetchStreams > 0 {
			h.streams[i] = make([]Addr, cfg.PrefetchStreams)
		}
	}
	return h
}

// prefetch runs the per-core unit-stride stream detector on an L1 miss
// to line la and prefetches ahead into the L2. Prefetch fills are clean,
// charged as NVMM reads, and may evict like demand fills; no latency is
// charged to the requesting core (the stream runs ahead of demand).
func (h *Hierarchy) prefetch(core int, la Addr, now int64) {
	tbl := h.streams[core]
	if len(tbl) == 0 {
		return
	}
	for i, head := range tbl {
		if head != 0 && la == head+LineSize {
			tbl[i] = la
			for d := 1; d <= h.cfg.PrefetchDegree; d++ {
				pa := la + Addr(d*LineSize)
				if int(pa)+LineSize > h.mem.Size() {
					break
				}
				pi, hit := h.l2.lookupOrVictim(pa)
				if hit {
					continue
				}
				h.mem.FetchLine(pa)
				h.st.Prefetches++
				h.fillL2(pi, pa, now)
			}
			return
		}
	}
	// New stream head.
	tbl[h.nextRep[core]] = la
	if h.nextRep[core]++; h.nextRep[core] == len(tbl) {
		h.nextRep[core] = 0
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats { return h.st }

// Reset invalidates all caches without writing anything back — the state
// of the machine immediately after a crash and restart.
func (h *Hierarchy) Reset() {
	for _, c := range h.l1 {
		c.reset()
	}
	h.l2.reset()
}

// Access simulates core performing a load (write=false) or store
// (write=true) to address a at the given cycle, and returns where the
// access hit. Stores follow write-back/write-allocate: the line is
// brought into the core's L1 in Modified state; dirty data reaches NVMM
// only via eviction, flush, or cleanup.
//
// The body is just the L1 probe — the dominant outcome on every
// workload. The way predictor answers most hits with one tag compare
// and no call; a wrong or stale prediction scans the set, and
// everything past an L1 hit (a miss, an S→M upgrade) lives out of
// line.
func (h *Hierarchy) Access(core int, a Addr, write bool, now int64) AccessKind {
	la := LineOf(a)
	l1 := h.l1[core]
	i := l1.predicted(la)
	if i < 0 {
		if i = l1.scan(la); i < 0 {
			return h.accessSlow(core, la, write, now)
		}
	}
	l1.tick++
	l1.lru[i] = l1.tick
	h.st.L1Hits++
	if write && l1.lines[i].state != stateModified {
		h.upgrade(core, la, l1, i, now)
	}
	return AccessL1
}

// accessSlow resolves an L1 miss: consult the shared L2 / directory,
// fill from NVMM if needed, run coherence, train the prefetcher, and
// install the line in the requesting L1.
func (h *Hierarchy) accessSlow(core int, la Addr, write bool, now int64) AccessKind {
	// One scan resolves hit-or-victim; a miss fills the victim frame in
	// place.
	h.st.L2Accesses++
	l2i, hit := h.l2.lookupOrVictim(la)
	kind := AccessL2
	var l2l *cacheLine
	if !hit {
		kind = AccessMem
		h.st.L2Misses++
		h.mem.FetchLine(la)
		l2l = h.fillL2(l2i, la, now)
	} else {
		h.st.L2Hits++
		h.l2.touch(l2i)
		l2l = &h.l2.lines[l2i]
	}

	// Coherence actions on the existing copies.
	if own := l2l.dirtyOwner; own >= 0 && int(own) != core {
		// Another core holds the line Modified: a cache-to-cache
		// transfer (intervention). The line's dirtiness moves to the
		// L2 level; dirtySince is preserved.
		h.st.Interventions++
		oi := h.l1[own].lookup(la)
		if oi < 0 {
			panic("memsim: directory says Modified but owner L1 has no copy")
		}
		if write {
			h.l1[own].invalidate(oi)
			h.st.Invalidations++
			l2l.sharers &^= 1 << uint(own)
		} else {
			// Downgraded; dirty data now tracked at L2.
			h.l1[own].lines[oi].state = stateShared
		}
		l2l.state = stateModified
		l2l.dirtyOwner = -1
	}
	if write {
		// Invalidate all other sharers and take exclusive ownership.
		h.invalidateSharers(la, l2l, core)
		if l2l.state != stateModified && l2l.dirtyOwner < 0 {
			l2l.dirtySince = now
		}
		l2l.dirtyOwner = int8(core)
	}
	l2l.sharers |= 1 << uint(core)

	// Train the prefetcher and run ahead of the stream. This happens
	// after the demand line is resolved so prefetch fills cannot
	// invalidate the frame being accessed.
	h.prefetch(core, la, now)

	// Install in the requesting L1.
	h.installL1(core, la, write, l2i)
	return kind
}

// upgrade handles a store hitting a Shared line in the core's L1: the
// directory invalidates every other sharer and records the new owner.
// The L2 frame comes from the L1 frame's memoized index — no set scan.
func (h *Hierarchy) upgrade(core int, la Addr, l1 *cache, i int, now int64) {
	l2i := int(l1.l2i[i])
	if h.l2.addrOf(l2i) != la {
		panic("memsim: inclusion violation — L1 line missing from L2")
	}
	l2l := &h.l2.lines[l2i]
	h.st.Upgrades++
	h.invalidateSharers(la, l2l, core)
	if l2l.state != stateModified && l2l.dirtyOwner < 0 {
		l2l.dirtySince = now
	}
	l2l.dirtyOwner = int8(core)
	l1.lines[i].state = stateModified
}

// invalidateSharers removes every L1 copy of la except keep's.
func (h *Hierarchy) invalidateSharers(la Addr, l2l *cacheLine, keep int) {
	mask := l2l.sharers &^ (1 << uint(keep))
	for mask != 0 {
		for c := 0; c < h.cfg.Cores; c++ {
			if mask&(1<<uint(c)) == 0 {
				continue
			}
			if oi := h.l1[c].lookup(la); oi >= 0 {
				if h.l1[c].lines[oi].state == stateModified {
					// Merge dirtiness into L2 before dropping.
					l2l.state = stateModified
				}
				h.l1[c].invalidate(oi)
				h.st.Invalidations++
			}
		}
		mask = 0
	}
	l2l.sharers &= 1 << uint(keep)
	if l2l.dirtyOwner != int8(keep) {
		l2l.dirtyOwner = -1
	}
}

// installL1 places la into core's L1, evicting the LRU victim if
// needed, and memoizes la's L2 frame index l2i in the L1 frame.
func (h *Hierarchy) installL1(core int, la Addr, write bool, l2i int) {
	l1 := h.l1[core]
	vi := l1.victim(la)
	if l1.valid(vi) {
		h.evictL1(core, vi)
	}
	st := stateShared
	if write {
		st = stateModified
	}
	l1.lines[vi].state = st
	l1.setTag(vi, la)
	l1.l2i[vi] = int32(l2i)
	l1.touch(vi)
}

// evictL1 silently drops a clean L1 line or merges a dirty one into L2.
// The L2 frame comes from the memoized index — no set scan.
func (h *Hierarchy) evictL1(core, vi int) {
	l1 := h.l1[core]
	va := l1.addrOf(vi)
	l2i := int(l1.l2i[vi])
	if h.l2.addrOf(l2i) != va {
		panic("memsim: inclusion violation — evicting L1 line missing from L2")
	}
	l2l := &h.l2.lines[l2i]
	if l1.lines[vi].state == stateModified {
		l2l.state = stateModified
	}
	if l2l.dirtyOwner == int8(core) {
		l2l.dirtyOwner = -1
	}
	l2l.sharers &^= 1 << uint(core)
	l1.invalidate(vi)
}

// fillL2 installs la in the victim frame vi (chosen by lookupOrVictim),
// evicting (and if dirty, writing back) the previous occupant, honoring
// inclusion by recalling all L1 copies.
func (h *Hierarchy) fillL2(vi int, la Addr, now int64) *cacheLine {
	if h.l2.valid(vi) {
		h.evictL2(vi, now)
	}
	h.l2.lines[vi] = cacheLine{state: stateShared, dirtyOwner: -1}
	h.l2.setTag(vi, la)
	h.l2.touch(vi)
	return &h.l2.lines[vi]
}

// evictL2 removes the line in frame vi from the whole hierarchy
// (inclusive), writing it back to NVMM if it is dirty anywhere. This is
// the "natural eviction" that Lazy Persistency rides on.
func (h *Hierarchy) evictL2(vi int, now int64) {
	v := &h.l2.lines[vi]
	va := h.l2.addrOf(vi)
	dirty := v.state == stateModified
	for mask, c := v.sharers, 0; mask != 0; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		mask &^= 1 << uint(c)
		if oi := h.l1[c].lookup(va); oi >= 0 {
			if h.l1[c].lines[oi].state == stateModified {
				dirty = true
			}
			h.l1[c].invalidate(oi)
			h.st.Invalidations++
		}
	}
	if dirty {
		h.mem.WriteBackLine(va, CauseEvict)
		h.recordVdur(now - v.dirtySince)
	}
	h.l2.invalidate(vi)
	v.sharers = 0
	v.dirtyOwner = -1
}

// Flush simulates clflushopt: the line is invalidated from every cache
// and, if dirty anywhere, written back to NVMM. It returns true when a
// write-back happened (the flush had to move data). Flushing an uncached
// or clean line performs no NVMM write.
func (h *Hierarchy) Flush(core int, a Addr, now int64) bool {
	la := LineOf(a)
	l2i := h.l2.lookup(la)
	if l2i < 0 {
		// Not cached at any level (inclusive hierarchy) — nothing to do.
		return false
	}
	l2l := &h.l2.lines[l2i]
	dirty := l2l.state == stateModified
	for mask, c := l2l.sharers, 0; mask != 0; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		mask &^= 1 << uint(c)
		if oi := h.l1[c].lookup(la); oi >= 0 {
			if h.l1[c].lines[oi].state == stateModified {
				dirty = true
			}
			h.l1[c].invalidate(oi)
			h.st.Invalidations++
		}
	}
	if dirty {
		h.mem.WriteBackLine(la, CauseFlush)
		h.recordVdur(now - l2l.dirtySince)
	}
	h.l2.invalidate(l2i)
	l2l.sharers = 0
	l2l.dirtyOwner = -1
	return dirty
}

// CleanOlder is the spaced form of the periodic cleanup the paper
// describes ("the hardware cache cleanup logic can space out write backs
// to avoid bursty writeback traffic"): only lines that have been dirty
// for at least age cycles are written back. With age equal to the
// configured flush period, a line is persisted roughly one period after
// it was written — bounding recovery work — while lines still in active
// use are left alone. The paper argues the background write-backs are
// off the critical path, so no latency is charged.
func (h *Hierarchy) CleanOlder(now, age int64) int {
	n := 0
	h.l2.forEachValid(func(_ int, la Addr, l2l *cacheLine) {
		dirty := l2l.state == stateModified
		own := l2l.dirtyOwner
		if own >= 0 {
			if oi := h.l1[own].lookup(la); oi >= 0 && h.l1[own].lines[oi].state == stateModified {
				dirty = true
			}
		}
		if !dirty || now-l2l.dirtySince < age {
			return
		}
		if own >= 0 {
			if oi := h.l1[own].lookup(la); oi >= 0 && h.l1[own].lines[oi].state == stateModified {
				h.l1[own].lines[oi].state = stateShared // keep resident, now clean
			}
			l2l.dirtyOwner = -1
		}
		h.mem.WriteBackLine(la, CauseClean)
		h.recordVdur(now - l2l.dirtySince)
		l2l.state = stateShared
		n++
	})
	return n
}

// DrainDirty writes back every dirty line (eviction-cause accounting) and
// leaves the caches clean. Used at the end of an un-crashed run when an
// experiment needs the final durable image (e.g. to verify outputs), and
// by tests. Unlike CleanOlder it counts as natural eviction traffic only
// when countWrites is true.
func (h *Hierarchy) DrainDirty(now int64, countWrites bool) int {
	n := 0
	h.l2.forEachValid(func(_ int, la Addr, l2l *cacheLine) {
		dirty := l2l.state == stateModified
		if own := l2l.dirtyOwner; own >= 0 {
			if oi := h.l1[own].lookup(la); oi >= 0 && h.l1[own].lines[oi].state == stateModified {
				dirty = true
				h.l1[own].lines[oi].state = stateShared
			}
			l2l.dirtyOwner = -1
		}
		if dirty {
			if countWrites {
				h.mem.WriteBackLine(la, CauseEvict)
				h.recordVdur(now - l2l.dirtySince)
			} else {
				h.mem.copyLine(la)
			}
			l2l.state = stateShared
			n++
		}
	})
	return n
}

func (h *Hierarchy) recordVdur(d int64) {
	if d < 0 {
		d = 0
	}
	if d > h.st.MaxVdur {
		h.st.MaxVdur = d
	}
	h.st.SumVdur += d
	h.st.NumVdur++
}
