package memsim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := NewMemory(1 << 20)
	a := m.Alloc("a", 10)
	b := m.Alloc("b", 64)
	c := m.Alloc("c", 65)
	d := m.Alloc("d", 1)
	for _, addr := range []Addr{a, b, c, d} {
		if addr%LineSize != 0 {
			t.Fatalf("allocation %#x not line aligned", addr)
		}
		if addr == 0 {
			t.Fatal("allocator handed out address 0")
		}
	}
	if b != a+64 {
		t.Fatalf("10-byte allocation should consume one line: a=%#x b=%#x", a, b)
	}
	if d != c+128 {
		t.Fatalf("65-byte allocation should consume two lines: c=%#x d=%#x", c, d)
	}
	if got := len(m.Allocations()); got != 4 {
		t.Fatalf("allocation table has %d entries, want 4", got)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := NewMemory(256)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-memory")
		}
	}()
	m.Alloc("too-big", 1<<20)
}

func TestAllocBadSizePanics(t *testing.T) {
	m := NewMemory(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive size")
		}
	}()
	m.Alloc("zero", 0)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 64)
	m.Store64(a, 0xdeadbeefcafef00d)
	if got := m.Load64(a); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load64 = %#x", got)
	}
	m.StoreFloat64(a+8, 3.25)
	if got := m.LoadFloat64(a + 8); got != 3.25 {
		t.Fatalf("LoadFloat64 = %v", got)
	}
}

func TestDurabilityIsExplicit(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 64)
	m.Store64(a, 42)
	if got := m.DurableLoad64(a); got != 0 {
		t.Fatalf("store reached NVMM without write-back: durable=%d", got)
	}
	m.WriteBackLine(a, CauseEvict)
	if got := m.DurableLoad64(a); got != 42 {
		t.Fatalf("durable after write-back = %d, want 42", got)
	}
	total, evict, flush, clean := m.NVMMWrites()
	if total != 1 || evict != 1 || flush != 0 || clean != 0 {
		t.Fatalf("write accounting = %d/%d/%d/%d", total, evict, flush, clean)
	}
}

func TestCrashDiscardsUnpersistedStores(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 128)
	m.Store64(a, 1)
	m.WriteBackLine(a, CauseFlush)
	m.Store64(a, 2)    // newer value, not written back
	m.Store64(a+64, 3) // different line, never written back
	m.Crash()
	if got := m.Load64(a); got != 1 {
		t.Fatalf("after crash, line with write-back should hold 1, got %d", got)
	}
	if got := m.Load64(a + 64); got != 0 {
		t.Fatalf("after crash, never-persisted line should be zero, got %d", got)
	}
}

func TestPersistInitializesDurable(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 64)
	m.Store64(a, 7)
	m.Persist(a, 64)
	before, _, _, _ := m.NVMMWrites()
	if before != 0 {
		t.Fatal("Persist must not count NVMM traffic")
	}
	m.Crash()
	if got := m.Load64(a); got != 7 {
		t.Fatalf("Persist did not reach durable image: %d", got)
	}
}

// TestMemoryOverImages: a memory built over the caller's two images
// copies nothing, every way of making a line durable lands in the durable
// slice (and nowhere else), stores land in the backing slice, Crash loads
// from the durable one, and Detach turns late use into an ordinary panic —
// one that names the call, for the inspection helper.
func TestMemoryOverImages(t *testing.T) {
	const size = 1 << 12
	backing, img := alignedBytes(size), make([]byte, size)
	binary.LittleEndian.PutUint64(img[LineSize:], 5) // a prior run's bytes
	m := NewMemoryOver(backing, img)
	a := m.Alloc("x", 4*LineSize)
	if a != LineSize || m.Size() != size {
		t.Fatalf("first allocation at %#x of %d bytes", a, m.Size())
	}
	if m.Load64(a) != 0 || m.DurableLoad64(a) != 5 {
		t.Fatalf("construction copied between the images: ram=%d durable=%d", m.Load64(a), m.DurableLoad64(a))
	}
	word := func(b []byte, off Addr) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

	m.Store64(a, 11)
	m.Persist(a, LineSize)
	m.Store64(a+LineSize, 22)
	m.WriteBackLine(a+LineSize, CauseFlush)
	m.Store64(a+2*LineSize+8, 33)
	snap := m.LoadLine(a + 2*LineSize + 8)
	m.Store64(a+2*LineSize+8, 99) // after the snapshot: must not persist
	m.PersistLine(a+2*LineSize, &snap)
	for _, c := range []struct {
		off  Addr
		want uint64
	}{{a, 11}, {a + LineSize, 22}, {a + 2*LineSize + 8, 33}} {
		if got := word(img, c.off); got != c.want || m.DurableLoad64(c.off) != c.want {
			t.Fatalf("durable image at %#x = %d (DurableLoad64 %d), want %d", c.off, got, m.DurableLoad64(c.off), c.want)
		}
	}
	if got := word(backing, a+2*LineSize+8); got != 99 {
		t.Fatalf("a store did not land in the caller's backing image: %d", got)
	}
	if total, _, flush, _ := m.NVMMWrites(); total != 1 || flush != 1 {
		t.Fatalf("only WriteBackLine counts NVMM traffic: total %d flush %d", total, flush)
	}

	binary.LittleEndian.PutUint64(img[a+3*LineSize:], 44)
	m.Crash()
	if got := m.Load64(a + 3*LineSize); got != 44 {
		t.Fatalf("Crash did not load the durable image: %d", got)
	}
	if got := m.Load64(a + 2*LineSize + 8); got != 33 {
		t.Fatalf("Crash kept an unpersisted store: %d", got)
	}

	m.Detach()
	for name, use := range map[string]func(){
		"Persist":       func() { m.Persist(a, LineSize) },
		"Load64":        func() { m.Load64(a) },
		"AtomicStore64": func() { m.AtomicStore64(a, 1) },
		"DurableLoad64": func() { m.DurableLoad64(a) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s after Detach did not panic", name)
				}
				if name == "DurableLoad64" && !strings.Contains(fmt.Sprint(r), name) {
					t.Fatalf("DurableLoad64 after Detach panicked without naming itself: %v", r)
				}
			}()
			use()
		}()
	}
	if word(backing, a) != 11 || word(img, a) != 11 {
		t.Fatal("Detach disturbed the caller's images")
	}
}

func TestMemoryOverSizeMismatchPanics(t *testing.T) {
	for _, sizes := range [][2]int{{1 << 12, 1<<12 - LineSize}, {1<<12 + 8, 1<<12 + 8}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on images of %d and %d bytes", sizes[0], sizes[1])
				}
			}()
			NewMemoryOver(make([]byte, sizes[0]), make([]byte, sizes[1]))
		}()
	}
}

// TestAllocIsZeroInBothImages pins the promise that lets constructors
// skip zero-filling: whatever was allocated, stored and persisted before,
// a fresh allocation reads zero architecturally and durably.
func TestAllocIsZeroInBothImages(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("used", 3*LineSize+8)
	for off := Addr(0); off < 3*LineSize+8; off += 8 {
		m.Store64(a+off, ^uint64(0))
	}
	m.Persist(a, 3*LineSize+8)
	b := m.Alloc("fresh", 1<<12)
	if b != a+4*LineSize {
		t.Fatalf("fresh allocation at %#x, want the next whole line %#x", b, a+4*LineSize)
	}
	for off := Addr(0); off < 1<<12; off += 8 {
		if m.Load64(b+off) != 0 || m.DurableLoad64(b+off) != 0 {
			t.Fatalf("fresh allocation holds %#x / %#x at +%d", m.Load64(b+off), m.DurableLoad64(b+off), off)
		}
	}
}

func TestWriteBackCauseSplit(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 64*3)
	m.WriteBackLine(a, CauseEvict)
	m.WriteBackLine(a+64, CauseFlush)
	m.WriteBackLine(a+128, CauseClean)
	total, evict, flush, clean := m.NVMMWrites()
	if total != 3 || evict != 1 || flush != 1 || clean != 1 {
		t.Fatalf("cause split = %d/%d/%d/%d", total, evict, flush, clean)
	}
	m.ResetCounters()
	total, _, _, _ = m.NVMMWrites()
	if total != 0 || m.NVMMReads() != 0 {
		t.Fatal("ResetCounters did not zero counters")
	}
}

func TestLineOfProperty(t *testing.T) {
	f := func(a uint64) bool {
		la := LineOf(Addr(a))
		return la%LineSize == 0 && la <= Addr(a) && Addr(a)-la < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a word's durable value is always the value it had at its most
// recent write-back (or its initial value), regardless of the
// architectural churn in between.
func TestDurableTracksLastWriteBackProperty(t *testing.T) {
	type op struct {
		Line  uint8
		Val   uint64
		Flush bool
	}
	f := func(ops []op) bool {
		m := NewMemory(1 << 12)
		base := m.Alloc("arr", 16*LineSize)
		shadow := make(map[Addr]uint64) // expected durable values
		for _, o := range ops {
			a := base + Addr(int(o.Line)%16)*LineSize
			m.Store64(a, o.Val)
			if o.Flush {
				m.WriteBackLine(a, CauseFlush)
				shadow[a] = o.Val
			}
		}
		m.Crash()
		for i := 0; i < 16; i++ {
			a := base + Addr(i)*LineSize
			if m.Load64(a) != shadow[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
