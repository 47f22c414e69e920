package kvserve

import (
	"math"

	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// fileCtx is the deployment's pmem.Ctx: loads and stores hit the heap
// image (the "cache"), Flush marks a line for write-back, and Fence
// persists every flushed line into the Memory's durable image — the
// mapped backing file (the "NVMM"; see pmemFile). Running the existing
// lpstore/ep/wal code over it prices each discipline's ordering points
// in real work: EP pays a line write set (and an fsync, if priced) per
// put, WAL several, while LP's plain stores cost nothing until the
// owner commits a batch.
//
// Stores go through Memory.AtomicStore64: the shard table is read
// lock-free by connection goroutines (Store.SeqGet), so every word the
// single-owner writer mutates must be stored atomically for the reads
// to be data-race-free. Loads stay plain — only the owner loads
// through the ctx, and it cannot race its own stores.
//
// A fileCtx is single-goroutine (one per shard owner, plus one for the
// startup/recovery path); it also tracks every line dirtied by plain
// stores since the last takeDirty, which the owner feeds to the
// background write-back queue — the "natural evictions" that leak
// unacknowledged state into the durable image. The dirty and pending
// sets are lineSets: a put run dirties a few dozen lines, which a scan
// dedups without allocating, and RecoverLP's rebuild stores to every
// table line before anyone drains, which the set's map absorbs.
type fileCtx struct {
	mem *memsim.Memory
	pf  *pmemFile
	id  int

	dirty     lineSet
	pend      lineSet
	persisted int   // lines persistLines has written (recovery's share is the boot record's)
	err       error // first fsync error; surfaced at commit points
}

var _ pmem.Ctx = (*fileCtx)(nil)

func newFileCtx(mem *memsim.Memory, pf *pmemFile, id int) *fileCtx {
	return &fileCtx{
		mem:   mem,
		pf:    pf,
		id:    id,
		dirty: lineSet{order: make([]memsim.Addr, 0, 64)},
		pend:  lineSet{order: make([]memsim.Addr, 0, 64)},
	}
}

// lineSetScanMax is the most lines a lineSet dedups by scanning its
// order; a run of 64 puts dirties about 85, so the put path stays here.
const lineSetScanMax = 256

// lineSet is an exact set of line addresses kept in first-added order.
// Up to lineSetScanMax lines a duplicate is found by scanning order,
// which never allocates once the backing array has grown; past that,
// membership moves into a map, so a set that grows to every table line
// (a repairing restart) costs O(1) per add instead of a scan. take
// drops the map: a set grows that far once, at recovery, where
// ep.LineSet keeps its map for regions that grow every time.
type lineSet struct {
	order []memsim.Addr
	index map[memsim.Addr]struct{} // nil while len(order) <= lineSetScanMax
}

// add puts la in the set if it is absent.
func (s *lineSet) add(la memsim.Addr) {
	if s.index != nil {
		if _, ok := s.index[la]; !ok {
			s.index[la] = struct{}{}
			s.order = append(s.order, la)
		}
		return
	}
	for _, x := range s.order {
		if x == la {
			return
		}
	}
	s.order = append(s.order, la)
	if len(s.order) > lineSetScanMax {
		s.index = make(map[memsim.Addr]struct{}, 2*len(s.order))
		for _, x := range s.order {
			s.index[x] = struct{}{}
		}
	}
}

// take returns the lines in first-added order and empties the set,
// dropping its map. The slice aliases the set's buffer: it is valid
// only until the next add.
func (s *lineSet) take() []memsim.Addr {
	out := s.order
	s.order = s.order[:0]
	s.index = nil
	return out
}

// Load64 implements pmem.Ctx.
func (c *fileCtx) Load64(a memsim.Addr) uint64 { return c.mem.Load64(a) }

// Store64 implements pmem.Ctx: an atomic store mutates only the heap
// image and remembers the dirty line.
func (c *fileCtx) Store64(a memsim.Addr, v uint64) {
	c.mem.AtomicStore64(a, v)
	c.dirty.add(memsim.LineOf(a))
}

// LoadF implements pmem.Ctx.
func (c *fileCtx) LoadF(a memsim.Addr) float64 { return math.Float64frombits(c.mem.Load64(a)) }

// StoreF implements pmem.Ctx.
func (c *fileCtx) StoreF(a memsim.Addr, v float64) { c.Store64(a, math.Float64bits(v)) }

// Flush implements pmem.Ctx: the line joins the set Fence will write.
func (c *fileCtx) Flush(a memsim.Addr) {
	c.pend.add(memsim.LineOf(a))
}

// Fence implements pmem.Ctx: every flushed line is persisted, then the
// list resets; with Config.Fsync the set is also fsynced. This is the
// cost of an EP or WAL ordering point.
func (c *fileCtx) Fence() {
	if err := c.persistLines(c.pend.take()); err != nil && c.err == nil {
		c.err = err
	}
}

// Compute implements pmem.Ctx (no accounting natively).
func (c *fileCtx) Compute(int) {}

// ThreadID implements pmem.Ctx.
func (c *fileCtx) ThreadID() int { return c.id }

// persistLines makes the given lines durable now, from the heap image
// — Fence's work, and the recovery tail-zeroing's, which bypasses
// Flush/Fence. Only the goroutine owning the lines may call this (the
// shard owner; the startup path before owners exist). Persisting cannot
// fail; the error is the priced fsync's. (The LP group commit goes
// through the shard flusher's snapshot buffers instead; see commit.go.)
func (c *fileCtx) persistLines(lines []memsim.Addr) error {
	for _, la := range lines {
		c.mem.Persist(la, memsim.LineSize)
	}
	c.persisted += len(lines)
	if c.pf.fsync {
		return c.pf.sync()
	}
	return nil
}

// takeDirty returns and resets the lines plain-stored since the last
// call, in first-dirtied order. The returned slice aliases the ctx's
// reusable buffer: it is valid only until the next Store64 on this
// ctx, and callers must finish with it before mutating again.
func (c *fileCtx) takeDirty() []memsim.Addr { return c.dirty.take() }

// takeErr returns and clears the first deferred fsync error.
func (c *fileCtx) takeErr() error {
	err := c.err
	c.err = nil
	return err
}
