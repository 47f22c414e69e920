// Package lp implements Lazy Persistency, the paper's primary
// contribution (§III–§IV).
//
// A program adopting Lazy Persistency divides its stores to persistent
// memory into LP regions, the units of failure detection and recovery.
// Inside a region no cache-line flushes, fences, or logs are issued:
// dirty lines drift to NVMM through natural cache evictions. Instead,
// the region folds every stored value into a running software checksum
// (package checksum) and, on region exit, stores the checksum into a
// persistent standalone hash table (Table) — itself written lazily, as
// §III-D argues (a not-yet-persistent checksum only causes a benign,
// unnecessary recomputation, never corruption).
//
// After a failure, recovery walks the checksum table: for each region it
// recomputes the checksum from the data that survived in NVMM and
// compares. A mismatch (or a never-written slot) marks the region
// inconsistent; workload-specific recovery code recomputes it using
// Eager Persistency so that recovery itself makes forward progress
// (§III-E). Package ep provides the eager primitives.
//
// A region may be committed more than once: End stores the running
// checksum and does not reset it (Begin does), so a caller that appends
// to one region over time — lpstore's journal windows under kvserve's
// group commit — calls End after each append it wants acknowledged, each
// time over a longer prefix of the region's stores, and recovery accepts
// whichever prefix the durable slot sums.
//
// The package also defines the Strategy interface under which the same
// kernel source runs without failure safety (Base), with Lazy
// Persistency (LP), or with the eager baselines in package ep — the four
// variants compared in the paper's Figure 10.
package lp

import (
	"lazyp/internal/checksum"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// Strategy is a persistence discipline applied to a kernel. A Strategy
// is instantiated once per run and hands out one ThreadStrategy per
// simulated thread (threads never share mutable strategy state — the
// paper's design keeps checksums thread-private and the hash table
// collision-free, so no locks are needed).
type Strategy interface {
	// Name identifies the variant ("base", "lp", "ep", "wal").
	Name() string
	// Thread returns the per-thread strategy instance for tid.
	Thread(tid int) ThreadStrategy
}

// ThreadStrategy receives a thread's region boundaries and data stores.
type ThreadStrategy interface {
	// Begin enters the LP region identified by key. Keys are the
	// workload's collision-free hash-table indices (§III-D: e.g.
	// a combination of ii, kk and thread id for tiled matmul).
	Begin(c pmem.Ctx, key int)
	// Store64 performs a tracked data store inside the region.
	Store64(c pmem.Ctx, a memsim.Addr, v uint64)
	// StoreF is Store64 for float64 values.
	StoreF(c pmem.Ctx, a memsim.Addr, v float64)
	// End leaves the region, emitting whatever failure-detection
	// metadata the discipline requires.
	End(c pmem.Ctx)
}

// Base is the no-failure-safety strategy: plain stores only. It is the
// "base" bar of Figure 10 and the normalization denominator everywhere.
type Base struct{}

// Name implements Strategy.
func (Base) Name() string { return "base" }

// Thread implements Strategy.
func (Base) Thread(int) ThreadStrategy { return baseTS{} }

type baseTS struct{}

func (baseTS) Begin(pmem.Ctx, int) {}
func (baseTS) Store64(c pmem.Ctx, a memsim.Addr, v uint64) {
	c.Store64(a, v)
}
func (baseTS) StoreF(c pmem.Ctx, a memsim.Addr, v float64) {
	c.StoreF(a, v)
}
func (baseTS) End(pmem.Ctx) {}

// LP is the Lazy Persistency strategy.
type LP struct {
	// Table receives one checksum per region key.
	Table *Table
	// Kind selects the error-detection code (default Modular, the
	// paper's choice).
	Kind checksum.Kind
	// EagerChecksum, when set, persists each checksum immediately with
	// flush+fence instead of lazily — the design alternative §III-D
	// discusses and rejects; kept for the ablation benchmarks.
	EagerChecksum bool

	threads []*lpTS
}

// NewLP builds the Lazy Persistency strategy over table for nthreads
// threads using the given checksum code.
func NewLP(table *Table, kind checksum.Kind, nthreads int) *LP {
	s := &LP{Table: table, Kind: kind}
	s.threads = make([]*lpTS, nthreads)
	for i := range s.threads {
		s.threads[i] = &lpTS{parent: s, state: checksum.New(kind), cost: kind.CostPerAdd()}
	}
	return s
}

// Name implements Strategy.
func (s *LP) Name() string { return "lp" }

// Thread implements Strategy.
func (s *LP) Thread(tid int) ThreadStrategy { return s.threads[tid] }

// lpTS is the thread-private running checksum (the paper makes the
// checksum variable thread-private; §IV).
type lpTS struct {
	parent *LP
	state  checksum.State
	cost   int
	key    int
}

func (t *lpTS) Begin(c pmem.Ctx, key int) {
	t.key = key
	t.state.Reset()
	c.Compute(1)
}

func (t *lpTS) Store64(c pmem.Ctx, a memsim.Addr, v uint64) {
	c.Store64(a, v)
	t.state.Add(v)
	c.Compute(t.cost)
}

func (t *lpTS) StoreF(c pmem.Ctx, a memsim.Addr, v float64) {
	t.Store64(c, a, mathFloat64bits(v))
}

func (t *lpTS) End(c pmem.Ctx) {
	sum := t.state.Sum()
	c.Compute(2) // finalize + index arithmetic
	t.parent.Table.StoreSum(c, t.key, sum)
	if t.parent.EagerChecksum {
		c.Flush(t.parent.Table.SlotAddr(t.key))
		c.Fence()
	}
}
