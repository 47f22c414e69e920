package kvserve

import (
	"math"

	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// fileCtx is the deployment's pmem.Ctx over the server's one image, the
// mapped backing file (see pmemFile): a store lands in the page cache as
// it executes, which is durable under the contract's crash (process
// death), so Flush has nothing to write back and Fence is the priced
// fsync — the only work an ordering point adds. Running the existing
// lpstore/ep/wal code over it prices each discipline's ordering points in
// real work: with Config.Fsync, EP pays an fsync per put and WAL several,
// while LP's plain stores cost nothing until the flusher syncs a batch.
//
// Stores go through Memory.AtomicStore64: the shard table is read
// lock-free by connection goroutines (Store.SeqGet), so every word the
// single-owner writer mutates must be stored atomically for the reads
// to be data-race-free. Loads stay plain — only the owner loads
// through the ctx, and it cannot race its own stores.
//
// A fileCtx is single-goroutine: one per shard owner, also used by the
// startup/recovery path before owners exist.
type fileCtx struct {
	mem *memsim.Memory
	pf  *pmemFile
	id  int
	err error // first fsync error; surfaced at commit points
}

var _ pmem.Ctx = (*fileCtx)(nil)

func newFileCtx(mem *memsim.Memory, pf *pmemFile, id int) *fileCtx {
	return &fileCtx{mem: mem, pf: pf, id: id}
}

// Load64 implements pmem.Ctx.
func (c *fileCtx) Load64(a memsim.Addr) uint64 { return c.mem.Load64(a) }

// Store64 implements pmem.Ctx with an atomic store into the image.
func (c *fileCtx) Store64(a memsim.Addr, v uint64) { c.mem.AtomicStore64(a, v) }

// LoadF implements pmem.Ctx.
func (c *fileCtx) LoadF(a memsim.Addr) float64 { return math.Float64frombits(c.mem.Load64(a)) }

// StoreF implements pmem.Ctx.
func (c *fileCtx) StoreF(a memsim.Addr, v float64) { c.Store64(a, math.Float64bits(v)) }

// Flush implements pmem.Ctx: the line is in the file already.
func (c *fileCtx) Flush(memsim.Addr) {}

// Fence implements pmem.Ctx: with Config.Fsync, the file is fsynced —
// the cost of an EP or WAL ordering point; otherwise nothing.
func (c *fileCtx) Fence() {
	if !c.pf.fsync {
		return
	}
	if err := c.pf.sync(); err != nil && c.err == nil {
		c.err = err
	}
}

// Compute implements pmem.Ctx (no accounting natively).
func (c *fileCtx) Compute(int) {}

// ThreadID implements pmem.Ctx.
func (c *fileCtx) ThreadID() int { return c.id }

// takeErr returns and clears the first deferred fsync error.
func (c *fileCtx) takeErr() error {
	err := c.err
	c.err = nil
	return err
}
