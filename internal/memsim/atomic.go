package memsim

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// Atomic word access over the architectural image, for deployments
// (kvserve) where concurrent goroutines share the backing array: a
// single-owner writer mutates table words with AtomicStore64 while
// lock-free readers observe them with AtomicLoad64 under a seqlock.
// The simulator never uses these — its threads are time-multiplexed
// onto one goroutine at a time, so plain accesses stay on its hot path.
//
// The atomic operations use the host's native byte order while the
// plain Load64/Store64 accessors encode little-endian; NewMemory
// verifies at construction that the two agree (i.e. the host is
// little-endian), so the same word can be written atomically and read
// plainly — which kvserve's line snapshots and persists rely on.

// AtomicLoad64 atomically returns the architectural value of the
// 8-byte word at a. a must be 8-byte aligned (every pmem.U64 word is).
func (m *Memory) AtomicLoad64(a Addr) uint64 {
	return atomic.LoadUint64((*uint64)(unsafe.Pointer(&m.backing[a])))
}

// AtomicStore64 atomically sets the architectural value of the 8-byte
// word at a. a must be 8-byte aligned.
func (m *Memory) AtomicStore64(a Addr, v uint64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&m.backing[a])), v)
}

// alignedBytes allocates an 8-byte-aligned byte slice of n bytes (n a
// multiple of 8). A plain make([]byte) only guarantees byte alignment
// in principle; backing the slice with []uint64 makes the alignment
// the atomic accessors need explicit instead of an allocator accident.
func alignedBytes(n int) []byte {
	words := make([]uint64, n/8)
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// checkEndianness panics unless native and little-endian word encodings
// agree, the precondition for mixing atomic and plain word access.
func checkEndianness() {
	var probe [8]byte
	binary.LittleEndian.PutUint64(probe[:], 0x0102030405060708)
	if *(*uint64)(unsafe.Pointer(&probe[0])) != 0x0102030405060708 {
		panic("memsim: atomic word access requires a little-endian host")
	}
}
