package lp

import (
	"math"

	"lazyp/internal/checksum"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// mathFloat64bits is a tiny indirection so lp.go needs no math import of
// its own call sites.
func mathFloat64bits(v float64) uint64 { return math.Float64bits(v) }

// Table is the standalone persistent checksum structure of §III-D
// (Figure 7(b)): one 64-bit slot per LP region, indexed by a
// collision-free key the workload computes (GetHashIndex in the paper's
// Figure 8). Keeping checksums out of the protected data structures
// avoids layout changes and, with collision-free keying, each slot has a
// single writer, so no locks are needed even with many threads.
//
// Every slot is durably initialized to checksum.Invalid so that recovery
// can distinguish "region never executed" from "region executed" (§IV:
// initialize each checksum to a value real checksums cannot take).
type Table struct {
	slots  pmem.U64
	n      int
	stride int // words between consecutive slots (1 = dense)
}

// NewTable allocates a dense table with the given number of slots,
// durably initialized to Invalid. Allocate tables before measured
// execution.
func NewTable(m *memsim.Memory, name string, slots int) *Table {
	return NewTableStrided(m, name, slots, 1)
}

// NewTableStrided allocates a table whose consecutive slots are
// strideWords words apart. It models the *embedded* checksum
// organization of the paper's Figure 7(a) — checksum columns living
// inside the protected data structure's rows — whose scattered layout
// the paper rejects in favor of the dense standalone table: with a
// stride equal to the matrix row pitch, each checksum occupies its own
// cache line inside the data's address range, reproducing the embedded
// organization's cache behavior and space overhead (N²P/bsize).
func NewTableStrided(m *memsim.Memory, name string, slots, strideWords int) *Table {
	if strideWords < 1 {
		panic("lp: table stride must be at least one word")
	}
	t := &Table{
		slots:  pmem.AllocU64(m, name, slots*strideWords),
		n:      slots,
		stride: strideWords,
	}
	t.Format(m)
	return t
}

// LayoutTable is NewTable without the format: it allocates the dense
// table's addresses and writes nothing, for a caller that lays out an
// image before knowing whether it is blank (then Format) or holds a
// prior run (then not — kvserve's restart).
func LayoutTable(m *memsim.Memory, name string, slots int) *Table {
	return &Table{slots: pmem.AllocU64(m, name, slots), n: slots, stride: 1}
}

// Format durably initializes every slot to Invalid, in both images, and
// returns the bytes it persisted.
func (t *Table) Format(m *memsim.Memory) int { return t.slots.Fill(m, checksum.Invalid) }

// Slots returns the table capacity.
func (t *Table) Slots() int { return t.n }

// idx maps a region key to the backing word index.
func (t *Table) idx(key int) int { return key * t.stride }

// SlotAddr returns the persistent address of slot key (for eager
// flushing during recovery or ablations).
func (t *Table) SlotAddr(key int) memsim.Addr { return t.slots.Addr(t.idx(key)) }

// StoreSum writes the checksum for region key. The store is plain —
// lazy, like the data it protects.
func (t *Table) StoreSum(c pmem.Ctx, key int, sum uint64) {
	t.slots.Store(c, t.idx(key), sum)
}

// StoreSumEager writes, flushes, and fences the checksum — used by
// recovery code (which must be eager for forward progress) and by the
// eager-checksum ablation.
func (t *Table) StoreSumEager(c pmem.Ctx, key int, sum uint64) {
	t.slots.Store(c, t.idx(key), sum)
	c.Flush(t.SlotAddr(key))
	c.Fence()
}

// LoadSum reads the stored checksum for region key.
func (t *Table) LoadSum(c pmem.Ctx, key int) uint64 {
	return t.slots.Load(c, t.idx(key))
}

// Written reports whether region key ever committed a checksum that
// reached this image of memory (false means the slot still holds the
// Invalid sentinel).
func (t *Table) Written(c pmem.Ctx, key int) bool {
	return t.slots.Load(c, t.idx(key)) != checksum.Invalid
}

// Matches reports whether the stored checksum for key equals the
// checksum recomputed from the (post-crash durable) data. A never-
// written slot never matches: the region did not complete, so it is
// inconsistent by definition.
func (t *Table) Matches(c pmem.Ctx, key int, recomputed uint64) bool {
	v := t.slots.Load(c, t.idx(key))
	return v != checksum.Invalid && v == recomputed
}

// Invalidate durably resets the slot to Invalid with eager persistence.
// Recovery code uses it to mark regions it is about to recompute, so a
// second failure during recovery re-triggers their repair.
func (t *Table) Invalidate(c pmem.Ctx, key int) {
	t.slots.Store(c, t.idx(key), checksum.Invalid)
	c.Flush(t.SlotAddr(key))
	c.Fence()
}
