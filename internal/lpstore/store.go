// Package lpstore is an LP-persisted concurrent key-value store: the
// first workload class beyond the paper's loop-nest HPC kernels (§VII
// names "other data structures" as the open direction).
//
// The store is a fixed-capacity open-addressing (linear-probe) hash
// table whose slots live in pmem views over the simulated persistent
// memory. A shared-nothing shard layer assigns one shard — one table,
// one journal — to each simulated thread, with keys hash-partitioned by
// the workload generator, so the store scales across the engine's 1–16
// threads without locks (the same collision-free single-writer
// discipline the paper uses for its checksum table, §III-D).
//
// Three interchangeable persistence disciplines share one mutation code
// path (Store.Put issuing slot stores through an lp.ThreadStrategy):
//
//   - LP  — mutations are batched into LP regions of K puts; each put
//     appends an op record to a per-shard journal with plain (lazy)
//     stores, and the region end lazily commits a checksum over the
//     batch's journal words into an lp.Table. No flush or fence is ever
//     issued on the fast path. Recovery takes the longest journal
//     prefix whose batch checksums verify as the durably-acknowledged
//     op prefix, verifies the table against a replay of that prefix,
//     and rebuilds the shard with Eager Persistency on any mismatch
//     (see recovery.go for why repair is shard-wide).
//   - EP  — flush+fence per mutation plus a durable per-thread progress
//     marker (ep.Recompute), the EagerRecompute discipline.
//   - WAL — one durable undo-logged transaction per mutation
//     (ep.WAL), the paper's Figure 2 protocol.
//
// Base (no failure safety) runs the same code path with plain stores
// and is the normalization denominator, exactly as in Figure 10.
package lpstore

import (
	"runtime"
	"sync/atomic"

	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// yield gives up the processor inside a seqlock spin; indirected for
// clarity at the call site.
func yield() { runtime.Gosched() }

// Store is one shard's open-addressing hash table. Slot i occupies two
// adjacent words — (key, value) — of a single pmem.U64 array, so every
// mutation touches exactly one cache line (four slots per 64-byte
// line): an EP put needs one clflushopt, and in the crash model a put's
// key and value persist atomically (lines reach NVMM whole).
//
// Key 0 is the empty sentinel; callers must use nonzero keys (the
// workload generator's key encoding guarantees this).
//
// A store is single-writer by construction. With EnableSeqlock it
// additionally supports lock-free concurrent readers (SeqGet): every
// table line carries a volatile epoch the writer bumps to odd before
// mutating the line and back to even after, and readers retry a slot
// whose line epoch is odd or changed across the read. See SeqGet for
// why this makes a torn read impossible.
type Store struct {
	kv  pmem.U64 // 2*cap words: slot i = (key at 2i, value at 2i+1)
	cap int      // slot count, a power of two

	// epochs, when non-nil, holds one seqlock epoch per table line
	// (four slots). Volatile server-side state, never persisted:
	// after a restart all epochs are zero (even — unlocked), which is
	// correct because recovery runs before any reader exists.
	epochs []atomic.Uint32
}

// NewStore allocates a table with at least the given capacity (rounded
// up to a power of two). It writes nothing: all slots are empty because
// fresh memory is durably zero (memsim.Alloc).
func NewStore(m *memsim.Memory, name string, capacity int) *Store {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Store{kv: pmem.AllocU64(m, name, 2*c), cap: c}
}

// Cap returns the slot capacity.
func (s *Store) Cap() int { return s.cap }

// KeyAddr returns the persistent address of slot i's key word.
func (s *Store) KeyAddr(i int) memsim.Addr { return s.kv.Addr(2 * i) }

// ValAddr returns the persistent address of slot i's value word.
func (s *Store) ValAddr(i int) memsim.Addr { return s.kv.Addr(2*i + 1) }

// mix64 is the splitmix64 finalizer, used as the slot hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// probe walks the linear-probe chain for k through c and returns the
// slot holding k (found=true) or the first empty slot (found=false).
// When the table is completely full and k is absent the probe visits
// every slot exactly once and returns slot = -1: fixed-capacity stores
// must be sized for their workload, but a full table degrades to a
// rejected operation, never an unbounded probe.
func (s *Store) probe(c pmem.Ctx, k uint64) (slot int, found bool) {
	if k == 0 {
		panic("lpstore: key 0 is the empty sentinel")
	}
	c.Compute(6) // hash + masking
	i := int(mix64(k)) & (s.cap - 1)
	for n := 0; n < s.cap; n++ {
		got := c.Load64(s.KeyAddr(i))
		c.Compute(2) // compare + branch
		if got == k {
			return i, true
		}
		if got == 0 {
			return i, false
		}
		i = (i + 1) & (s.cap - 1)
	}
	return -1, false
}

// Get returns the value stored under k.
func (s *Store) Get(c pmem.Ctx, k uint64) (uint64, bool) {
	i, ok := s.probe(c, k)
	if !ok {
		return 0, false
	}
	return c.Load64(s.ValAddr(i)), true
}

// Put inserts or updates k through ts, the persistence discipline's
// store interceptor. The caller owns region boundaries (Begin/End on
// ts); Put only issues the slot stores. It reports whether the put
// inserted a new key. Inserting into a completely full table stores
// nothing and returns inserted=false (the probe terminates after one
// pass); callers that must distinguish a full-table drop from an update
// keep their own occupancy watermark (kvserve rejects puts before this
// point is ever reached).
//
// With the seqlock enabled, the slot stores are bracketed by the
// odd/even epoch bumps on the slot's line, so concurrent SeqGet readers
// never observe the insert's key word without its value word.
func (s *Store) Put(c pmem.Ctx, ts lp.ThreadStrategy, k, v uint64) (inserted bool) {
	i, ok := s.probe(c, k)
	if i < 0 {
		return false
	}
	var ep *atomic.Uint32
	if s.epochs != nil {
		ep = &s.epochs[i>>2]
		ep.Add(1) // even → odd: line is being mutated
	}
	if !ok {
		ts.Store64(c, s.KeyAddr(i), k)
	}
	ts.Store64(c, s.ValAddr(i), v)
	if ep != nil {
		ep.Add(1) // odd → even: line consistent again
	}
	return !ok
}

// EnableSeqlock allocates the per-line epoch array, turning on support
// for lock-free concurrent readers via SeqGet. Call before any
// concurrent access begins; the single writer must then issue all slot
// stores through a Ctx whose Store64 is atomic (kvserve's fileCtx),
// so readers never race a plain word store.
func (s *Store) EnableSeqlock() {
	if s.epochs == nil {
		s.epochs = make([]atomic.Uint32, (s.cap+slotsPerLine-1)/slotsPerLine)
	}
}

// slotsPerLine is the number of (key, value) slot pairs per cache
// line: 64 bytes / 16 bytes per slot.
const slotsPerLine = memsim.LineSize / (2 * pmem.WordSize)

// SeqGet returns the value stored under k, reading the table directly
// with atomic loads and no Ctx — the lock-free read path concurrent
// server connections use while the single writer keeps mutating.
// retries counts seqlock validation failures (odd or moved epochs),
// the contention signal kvserve exports as a counter.
//
// Correctness: linear-probe tables never move or delete keys, so the
// probe chain for k is append-only. Each visited slot is validated
// against its line epoch — read even epoch, atomically load the key
// and value words, re-read the epoch — so a slot observed mid-insert
// (key word stored, value word not yet) is retried rather than
// returned; every returned value was the slot's complete committed
// value at some instant during the call. A concurrent insert past the
// reader's probe point can make SeqGet report a miss for a key whose
// put has not been acknowledged yet — the same answer a request
// ordered just before that put would get.
func (s *Store) SeqGet(m *memsim.Memory, k uint64) (v uint64, ok bool, retries uint64) {
	if k == 0 {
		panic("lpstore: key 0 is the empty sentinel")
	}
	i := int(mix64(k)) & (s.cap - 1)
	for n := 0; n < s.cap; n++ {
		ep := &s.epochs[i>>2]
		var key, val uint64
		for spin := 0; ; spin++ {
			e1 := ep.Load()
			if e1&1 == 0 {
				key = m.AtomicLoad64(s.KeyAddr(i))
				val = m.AtomicLoad64(s.ValAddr(i))
				if ep.Load() == e1 {
					break
				}
			}
			retries++
			if spin&63 == 63 {
				// The writer holds a line epoch only across two word
				// stores, but EP/WAL interpose flush bookkeeping; yield
				// rather than burn the core if we keep losing.
				yield()
			}
		}
		if key == k {
			return val, true, retries
		}
		if key == 0 {
			return 0, false, retries
		}
		i = (i + 1) & (s.cap - 1)
	}
	return 0, false, retries
}

// Contents returns the architectural key→value contents. After
// Memory.Crash the architectural image equals the durable one, so the
// same call reads the post-crash NVMM state.
func (s *Store) Contents(m *memsim.Memory) map[uint64]uint64 {
	words := s.kv.Snapshot(m)
	out := make(map[uint64]uint64)
	for i := 0; i < s.cap; i++ {
		if k := words[2*i]; k != 0 {
			out[k] = words[2*i+1]
		}
	}
	return out
}

// Occupied returns the architectural number of occupied slots.
func (s *Store) Occupied(m *memsim.Memory) int {
	n := 0
	for i := 0; i < s.cap; i++ {
		if m.Load64(s.KeyAddr(i)) != 0 {
			n++
		}
	}
	return n
}
