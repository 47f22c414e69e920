package memsim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory is the simulated physical memory: the current architectural
// contents (what a running program observes through the caches) and the
// durable NVMM contents (what survives a crash). The two arrays diverge
// exactly on the lines that are dirty somewhere in the cache hierarchy;
// WriteBackLine reconciles one line and accounts one NVMM write. The
// images are heap arrays (NewMemory) or the caller's (NewMemoryOver —
// kvserve: an anonymous mapping and the mapped backing file, so "durable"
// means what survives there), who calls Detach before unmapping them.
//
// Memory also embeds a trivial bump allocator so that workloads can carve
// named, line-aligned regions out of the address space. Address 0 is never
// handed out, so Addr(0) can serve as a nil address.
type Memory struct {
	backing []byte
	durable []byte

	next   Addr
	allocs []Allocation

	// NVMM traffic counters, in line-sized units.
	nvmmReads       uint64
	nvmmWrites      uint64
	writesFromEvict uint64
	writesFromFlush uint64
	writesFromClean uint64

	// wbHook observes write-backs when set; see SetWriteBackHook.
	wbHook func(Addr, WriteBackCause)
}

// Allocation records one named region handed out by Alloc.
type Allocation struct {
	Name string
	Base Addr
	Size int
}

// NewMemory creates a memory of the given capacity in bytes. The capacity
// is rounded up to a whole number of lines.
func NewMemory(capacity int) *Memory {
	if capacity <= 0 {
		panic("memsim: non-positive memory capacity")
	}
	capacity = (capacity + LineMask) &^ LineMask
	checkEndianness()
	return &Memory{
		// The architectural image is 8-byte aligned so AtomicLoad64/
		// AtomicStore64 (atomic.go) are legal on any word address.
		backing: alignedBytes(capacity),
		durable: make([]byte, capacity),
		next:    LineSize, // keep line 0 unused so Addr(0) means "nil"
	}
}

// NewMemoryOver creates a memory over the caller's images as they are:
// nothing is copied or written, so a fresh pair must be zero (Alloc's
// promise) and a durable image holding a prior run is followed by Crash.
// Both are the same whole number of lines; backing is 8-byte aligned.
func NewMemoryOver(backing, durable []byte) *Memory {
	if len(backing) == 0 || len(backing)&LineMask != 0 || len(durable) != len(backing) {
		panic(fmt.Sprintf("memsim: NewMemoryOver: images of %d and %d bytes", len(backing), len(durable)))
	}
	checkEndianness()
	return &Memory{backing: backing, durable: durable, next: LineSize}
}

// Detach drops both images, so that any later access panics like an
// index out of range instead of touching memory the owner has unmapped.
func (m *Memory) Detach() { m.backing, m.durable = nil, nil }

// Size returns the capacity of the memory in bytes.
func (m *Memory) Size() int { return len(m.backing) }

// Alloc reserves size bytes, line-aligned, and returns the base address.
// Initial contents are zero in both the architectural and durable images
// (i.e. freshly allocated persistent memory is durably zero, so no
// constructor zero-fills) — unless images handed to NewMemoryOver say
// otherwise; Alloc writes to neither.
func (m *Memory) Alloc(name string, size int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%q, %d): non-positive size", name, size))
	}
	base := m.next
	m.next += Addr((size + LineMask) &^ LineMask)
	if int(m.next) > len(m.backing) {
		panic(fmt.Sprintf("memsim: out of simulated memory allocating %q (%d bytes, have %d of %d used)",
			name, size, base, len(m.backing)))
	}
	m.allocs = append(m.allocs, Allocation{Name: name, Base: base, Size: size})
	return base
}

// Allocations returns the allocation table (for debugging and tooling).
func (m *Memory) Allocations() []Allocation { return m.allocs }

// Load64 returns the current architectural value of the 8-byte word at a.
// It performs no cache simulation or accounting; the cache hierarchy and
// timing live in internal/sim.
func (m *Memory) Load64(a Addr) uint64 {
	return binary.LittleEndian.Uint64(m.backing[a:])
}

// Store64 sets the current architectural value of the 8-byte word at a.
func (m *Memory) Store64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(m.backing[a:], v)
}

// LoadFloat64 returns the architectural float64 at a.
func (m *Memory) LoadFloat64(a Addr) float64 { return math.Float64frombits(m.Load64(a)) }

// StoreFloat64 sets the architectural float64 at a.
func (m *Memory) StoreFloat64(a Addr, v float64) { m.Store64(a, math.Float64bits(v)) }

// DurableLoad64 returns the durable (NVMM) value of the word at a — the
// value that would survive a crash right now. An inspection helper, so
// it can afford to name itself on a detached memory.
func (m *Memory) DurableLoad64(a Addr) uint64 {
	if m.durable == nil {
		panic("memsim: DurableLoad64 on a detached memory")
	}
	return binary.LittleEndian.Uint64(m.durable[a:])
}

// WriteBackCause says why a line was written to NVMM; the paper's write
// amplification analysis distinguishes natural evictions, explicit
// cache-line flushes, and periodic hardware cleanup.
type WriteBackCause uint8

const (
	// CauseEvict is a natural write-back of a dirty line evicted from
	// the last-level cache.
	CauseEvict WriteBackCause = iota
	// CauseFlush is an explicit clflushopt/clwb issued by the program.
	CauseFlush
	// CauseClean is the periodic background cleanup of §III-E.1.
	CauseClean
)

// copyLine reconciles one line: the architectural content of the line at
// la is copied into the durable image. The fixed-size array assignment
// beats both the copy builtin and a hand-unrolled word loop here — this
// runs on every NVMM write, so the shape matters.
func (m *Memory) copyLine(la Addr) {
	*(*[LineSize]byte)(m.durable[la:]) = *(*[LineSize]byte)(m.backing[la:])
}

// LoadLine returns the architectural content of the line containing a.
func (m *Memory) LoadLine(a Addr) [LineSize]byte {
	return *(*[LineSize]byte)(m.backing[LineOf(a):])
}

// PersistLine stores buf — a LoadLine snapshot taken earlier — as the
// durable content of the line at la. Like Persist it counts no NVMM
// traffic and touches no field of m, so goroutines persisting disjoint
// lines need no coordination.
func (m *Memory) PersistLine(la Addr, buf *[LineSize]byte) {
	*(*[LineSize]byte)(m.durable[la:]) = *buf
}

// SetWriteBackHook installs an observer called on every NVMM line
// write with the line address and cause (nil uninstalls). The hook is
// purely observational — it must not touch memory or timing state —
// and the nil check is the only cost the write-back path pays for it.
func (m *Memory) SetWriteBackHook(h func(Addr, WriteBackCause)) { m.wbHook = h }

// WriteBackLine copies the architectural content of the line containing a
// into the durable image and accounts one NVMM write.
func (m *Memory) WriteBackLine(a Addr, cause WriteBackCause) {
	la := LineOf(a)
	m.copyLine(la)
	m.nvmmWrites++
	switch cause {
	case CauseEvict:
		m.writesFromEvict++
	case CauseFlush:
		m.writesFromFlush++
	case CauseClean:
		m.writesFromClean++
	}
	if m.wbHook != nil {
		m.wbHook(la, cause)
	}
}

// FetchLine accounts one NVMM line read (a last-level-cache miss fill).
// No data movement is needed because the architectural image is already
// current for clean lines.
func (m *Memory) FetchLine(Addr) { m.nvmmReads++ }

// Persist copies the architectural content of [a, a+size) straight into
// the durable image without counting NVMM traffic. It models initial
// state — e.g. input matrices that are already durably resident in NVMM
// before the measured computation starts — and is also used by test
// fixtures. It must not be called while simulated threads are running.
func (m *Memory) Persist(a Addr, size int) {
	copy(m.durable[a:int(a)+size], m.backing[a:int(a)+size])
}

// Crash models a power failure: every value that had not been written
// back to NVMM is lost. The architectural image is reset to the durable
// image; the caller must also discard all cache state (Hierarchy.Reset).
func (m *Memory) Crash() {
	copy(m.backing, m.durable)
}

// NVMMWrites returns the total number of line writes to NVMM and the
// split by cause (evictions, flushes, cleanup).
func (m *Memory) NVMMWrites() (total, evict, flush, clean uint64) {
	return m.nvmmWrites, m.writesFromEvict, m.writesFromFlush, m.writesFromClean
}

// NVMMWriteTotal returns just the total line-write count. The timing
// model samples it around every load and store to detect write-backs the
// access caused, so it must stay a trivial accessor.
func (m *Memory) NVMMWriteTotal() uint64 { return m.nvmmWrites }

// NVMMReads returns the total number of line reads from NVMM.
func (m *Memory) NVMMReads() uint64 { return m.nvmmReads }

// ResetCounters zeroes the NVMM traffic counters. Experiments call this
// after warm-up or input initialization so that only the measured window
// is counted, mirroring the paper's methodology.
func (m *Memory) ResetCounters() {
	m.nvmmReads = 0
	m.nvmmWrites = 0
	m.writesFromEvict = 0
	m.writesFromFlush = 0
	m.writesFromClean = 0
}
