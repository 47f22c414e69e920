package memsim

import (
	"encoding/binary"
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

// TestAttachDurable: after attaching a caller-supplied image, every way
// of making a line durable lands in that slice (and nowhere else),
// Crash loads from it, nothing is copied at attach time, and detaching
// turns a late persist into an ordinary panic.
func TestAttachDurable(t *testing.T) {
	m := NewMemory(1 << 12)
	a := m.Alloc("x", 4*LineSize)
	m.Store64(a, 1)
	m.Persist(a, LineSize) // reaches the heap image only
	img := make([]byte, m.Size())
	m.AttachDurable(img)
	if got := m.DurableLoad64(a); got != 0 {
		t.Fatalf("attach copied the old durable image: durable=%d", got)
	}
	word := func(off Addr) uint64 { return binary.LittleEndian.Uint64(img[off:]) }

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
		if got := word(c.off); got != c.want || m.DurableLoad64(c.off) != c.want {
			t.Fatalf("attached image at %#x = %d (DurableLoad64 %d), want %d", c.off, got, m.DurableLoad64(c.off), c.want)
		}
	}
	if total, _, flush, _ := m.NVMMWrites(); total != 1 || flush != 1 {
		t.Fatalf("only WriteBackLine counts NVMM traffic: total %d flush %d", total, flush)
	}

	binary.LittleEndian.PutUint64(img[a+3*LineSize:], 44) // a prior run's bytes
	m.Crash()
	if got := m.Load64(a + 3*LineSize); got != 44 {
		t.Fatalf("Crash did not load the attached image: %d", got)
	}
	if got := m.Load64(a + 2*LineSize + 8); got != 33 {
		t.Fatalf("Crash kept an unpersisted store: %d", got)
	}

	m.AttachDurable(nil)
	if got := m.Load64(a); got != 11 {
		t.Fatalf("detach disturbed the architectural image: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Persist after detach did not panic")
		}
	}()
	m.Persist(a, LineSize)
}

func TestAttachDurableSizeMismatchPanics(t *testing.T) {
	m := NewMemory(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a short image")
		}
	}()
	m.AttachDurable(make([]byte, m.Size()-LineSize))
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
