package pmem

import (
	"fmt"

	"lazyp/internal/memsim"
)

// WordSize is the size of every element type in this package.
const WordSize = 8

// F64 is a persistent vector of float64.
type F64 struct {
	Base memsim.Addr
	N    int
}

// AllocF64 reserves a float64 vector of length n.
func AllocF64(m *memsim.Memory, name string, n int) F64 {
	return F64{Base: m.Alloc(name, n*WordSize), N: n}
}

// Addr returns the address of element i.
func (v F64) Addr(i int) memsim.Addr {
	return v.Base + memsim.Addr(i*WordSize)
}

// Load reads element i through ctx.
func (v F64) Load(c Ctx, i int) float64 { return c.LoadF(v.Addr(i)) }

// Store writes element i through ctx.
func (v F64) Store(c Ctx, i int, x float64) { c.StoreF(v.Addr(i), x) }

// Fill initializes the vector directly in memory — architectural and
// durable images both — without simulation. Use it only for input setup
// before measured execution.
func (v F64) Fill(m *memsim.Memory, f func(i int) float64) {
	for i := 0; i < v.N; i++ {
		m.StoreFloat64(v.Addr(i), f(i))
	}
	m.Persist(v.Base, v.N*WordSize)
}

// Snapshot copies the architectural contents into a Go slice.
func (v F64) Snapshot(m *memsim.Memory) []float64 {
	out := make([]float64, v.N)
	for i := range out {
		out[i] = m.LoadFloat64(v.Addr(i))
	}
	return out
}

// Matrix is a persistent row-major n×n matrix of float64. (The paper's
// kernels all use square matrices; rows are line-aligned when n*8 is a
// multiple of the 64-byte line, which holds for all our configurations.)
type Matrix struct {
	Base memsim.Addr
	N    int
}

// AllocMatrix reserves an n×n matrix.
func AllocMatrix(m *memsim.Memory, name string, n int) Matrix {
	return Matrix{Base: m.Alloc(name, n*n*WordSize), N: n}
}

// Addr returns the address of element (i, j).
func (mx Matrix) Addr(i, j int) memsim.Addr {
	return mx.Base + memsim.Addr((i*mx.N+j)*WordSize)
}

// Load reads element (i, j) through ctx.
func (mx Matrix) Load(c Ctx, i, j int) float64 { return c.LoadF(mx.Addr(i, j)) }

// Store writes element (i, j) through ctx.
func (mx Matrix) Store(c Ctx, i, j int, x float64) { c.StoreF(mx.Addr(i, j), x) }

// Fill initializes the matrix directly (architectural + durable).
func (mx Matrix) Fill(m *memsim.Memory, f func(i, j int) float64) {
	for i := 0; i < mx.N; i++ {
		for j := 0; j < mx.N; j++ {
			m.StoreFloat64(mx.Addr(i, j), f(i, j))
		}
	}
	m.Persist(mx.Base, mx.N*mx.N*WordSize)
}

// Snapshot copies the architectural contents into a Go slice (row-major).
func (mx Matrix) Snapshot(m *memsim.Memory) []float64 {
	out := make([]float64, mx.N*mx.N)
	for i := 0; i < mx.N; i++ {
		for j := 0; j < mx.N; j++ {
			out[i*mx.N+j] = m.LoadFloat64(mx.Addr(i, j))
		}
	}
	return out
}

// U64 is a persistent vector of raw 64-bit words (used for checksum
// tables, logs, and progress markers).
type U64 struct {
	Base memsim.Addr
	N    int
}

// AllocU64 reserves a word vector of length n.
func AllocU64(m *memsim.Memory, name string, n int) U64 {
	return U64{Base: m.Alloc(name, n*WordSize), N: n}
}

// Addr returns the address of word i.
func (v U64) Addr(i int) memsim.Addr {
	// The panic lives out of line so Addr stays inlinable — it runs on
	// every simulated log/marker/checksum word access.
	if uint(i) >= uint(v.N) {
		v.badIndex(i)
	}
	return v.Base + memsim.Addr(i*WordSize)
}

func (v U64) badIndex(i int) {
	panic(fmt.Sprintf("pmem: U64 index %d out of range [0,%d)", i, v.N))
}

// Load reads word i through ctx.
func (v U64) Load(c Ctx, i int) uint64 { return c.Load64(v.Addr(i)) }

// Store writes word i through ctx.
func (v U64) Store(c Ctx, i int, x uint64) { c.Store64(v.Addr(i), x) }

// Snapshot copies the architectural contents into a Go slice.
func (v U64) Snapshot(m *memsim.Memory) []uint64 {
	out := make([]uint64, v.N)
	for i := range out {
		out[i] = m.Load64(v.Addr(i))
	}
	return out
}

// Fill initializes every word to x directly (architectural + durable)
// and returns the bytes it persisted.
func (v U64) Fill(m *memsim.Memory, x uint64) int {
	for i := 0; i < v.N; i++ {
		m.Store64(v.Addr(i), x)
	}
	m.Persist(v.Base, v.N*WordSize)
	return v.N * WordSize
}
