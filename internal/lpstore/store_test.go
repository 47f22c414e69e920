package lpstore

import (
	"sync"
	"testing"

	"lazyp/internal/checksum"
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

func newTestStore(t *testing.T, capacity int) (*Store, *memsim.Memory, pmem.Ctx) {
	t.Helper()
	m := memsim.NewMemory(1 << 20)
	return NewStore(m, "t", capacity), m, &pmem.Native{Mem: m}
}

func TestStorePutGetUpdate(t *testing.T) {
	s, m, c := newTestStore(t, 64)
	ts := lp.Base{}.Thread(0)

	if _, ok := s.Get(c, 42); ok {
		t.Fatal("empty store returned a value")
	}
	if !s.Put(c, ts, 42, 100) {
		t.Fatal("first put did not report insert")
	}
	if v, ok := s.Get(c, 42); !ok || v != 100 {
		t.Fatalf("Get(42) = %d,%v want 100,true", v, ok)
	}
	if s.Put(c, ts, 42, 200) {
		t.Fatal("update reported insert")
	}
	if v, _ := s.Get(c, 42); v != 200 {
		t.Fatalf("update lost: got %d", v)
	}
	if s.Occupied(m) != 1 {
		t.Fatalf("Occupied = %d, want 1", s.Occupied(m))
	}
}

func TestStoreCollisionsAndContents(t *testing.T) {
	// Load a small table past half full so probe chains form.
	s, m, c := newTestStore(t, 32)
	ts := lp.Base{}.Thread(0)
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 24; i++ {
		s.Put(c, ts, i, i*i)
		want[i] = i * i
	}
	for k, v := range want {
		if got, ok := s.Get(c, k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	got := s.Contents(m)
	if len(got) != len(want) {
		t.Fatalf("Contents has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Contents[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestStoreCapacityRounding(t *testing.T) {
	s, _, _ := newTestStore(t, 33)
	if s.Cap() != 64 {
		t.Fatalf("Cap = %d, want 64", s.Cap())
	}
}

func TestStoreKeyZeroPanics(t *testing.T) {
	s, _, c := newTestStore(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("key 0 should panic")
		}
	}()
	s.Get(c, 0)
}

// TestStoreFullTable: a completely full table terminates the probe
// after one pass — Get misses, Put rejects the insert without storing,
// and updates of present keys still work.
func TestStoreFullTable(t *testing.T) {
	s, m, c := newTestStore(t, 4)
	ts := lp.Base{}.Thread(0)
	for i := uint64(1); i <= 4; i++ {
		if !s.Put(c, ts, i, i) {
			t.Fatalf("insert %d into non-full table rejected", i)
		}
	}
	if s.Occupied(m) != 4 {
		t.Fatalf("Occupied = %d, want 4", s.Occupied(m))
	}
	if v, ok := s.Get(c, 99); ok {
		t.Fatalf("Get(99) on a full table = %d,true, want miss", v)
	}
	if s.Put(c, ts, 99, 9900) {
		t.Fatal("insert into a full table reported inserted=true")
	}
	if _, ok := s.Get(c, 99); ok {
		t.Fatal("rejected insert mutated the table")
	}
	if s.Occupied(m) != 4 {
		t.Fatalf("Occupied after rejected insert = %d, want 4", s.Occupied(m))
	}
	// Updates of resident keys are still accepted when full.
	if s.Put(c, ts, 2, 222) {
		t.Fatal("update reported insert")
	}
	if v, _ := s.Get(c, 2); v != 222 {
		t.Fatalf("update on full table lost: got %d", v)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeBase: "base", ModeLP: "lp", ModeEP: "ep", ModeWAL: "wal",
	} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m, want)
		}
	}
}

// TestShardLPJournalAndAck drives an LP writer natively and checks the
// journal contents and acknowledged prefix against what was written.
func TestShardLPJournalAndAck(t *testing.T) {
	m := memsim.NewMemory(1 << 20)
	c := &pmem.Native{Mem: m}
	sh := NewShardLP(m, "s", 0, 64, 20, 4, checksum.Modular)
	w := sh.NewLPWriter()

	for i := uint64(1); i <= 10; i++ {
		w.Put(c, i, 1000+i)
	}
	w.Seal(c)

	// Native stores hit the durable image directly, so the full prefix
	// (2 full batches + a sealed half batch) must acknowledge.
	puts, batches := sh.AckedPrefix(c)
	if puts != 10 || batches != 3 {
		t.Fatalf("AckedPrefix = %d puts / %d batches, want 10/3", puts, batches)
	}
	for i := 0; i < 10; i++ {
		k := sh.Jrn.Load(c, 2*i)
		v := sh.Jrn.Load(c, 2*i+1)
		if k != uint64(i+1) || v != 1000+uint64(i+1) {
			t.Fatalf("journal[%d] = (%d,%d), want (%d,%d)", i, k, v, i+1, 1001+i)
		}
	}

	st := sh.RecoverLP(c, 0, nil)
	if !st.Verified || st.AckedPuts != 10 {
		t.Fatalf("RecoverLP = %+v, want verified with 10 acked", st)
	}
}

// TestShardLPRecoverRepairsGhost simulates a leaked unacknowledged put:
// the table holds a value whose journal batch never acknowledged.
// Recovery must rebuild the shard to the acknowledged prefix.
func TestShardLPRecoverRepairsGhost(t *testing.T) {
	m := memsim.NewMemory(1 << 20)
	c := &pmem.Native{Mem: m}
	sh := NewShardLP(m, "s", 0, 64, 20, 4, checksum.Modular)
	w := sh.NewLPWriter()

	for i := uint64(1); i <= 4; i++ { // one full acknowledged batch
		w.Put(c, i, 100+i)
	}
	// A leaked insert from a batch that never sealed: table mutated,
	// journal words present but checksum slot never written.
	sh.Tab.Put(c, lp.Base{}.Thread(0), 99, 9999)

	st := sh.RecoverLP(c, 0, nil)
	if st.Verified {
		t.Fatal("ghost insert went undetected")
	}
	if st.AckedPuts != 4 {
		t.Fatalf("acked %d puts, want 4", st.AckedPuts)
	}
	if _, ok := sh.Tab.Get(c, 99); ok {
		t.Fatal("ghost key survived recovery")
	}
	for i := uint64(1); i <= 4; i++ {
		if v, ok := sh.Tab.Get(c, i); !ok || v != 100+i {
			t.Fatalf("acknowledged put %d lost by rebuild: %d,%v", i, v, ok)
		}
	}
	// Idempotence: a second pass finds the rebuilt table verified.
	if st2 := sh.RecoverLP(c, 0, nil); !st2.Verified || st2.AckedPuts != 4 {
		t.Fatalf("second RecoverLP = %+v, want verified/4", st2)
	}
}

// TestShardLPRecoverKeepsBaseline: preloaded pairs are part of the
// expected contents; a rebuild must reconstruct them, not wipe them.
func TestShardLPRecoverKeepsBaseline(t *testing.T) {
	m := memsim.NewMemory(1 << 20)
	c := &pmem.Native{Mem: m}
	sh := NewShardLP(m, "s", 0, 64, 20, 4, checksum.Modular)
	basePair := func(i int) (uint64, uint64) { return uint64(i + 1), uint64(10 * (i + 1)) }
	sh.Preload(m, 8, basePair)
	w := sh.NewLPWriter()
	w.Put(c, 3, 777) // acknowledged update of a baseline key
	w.Put(c, 50, 555)
	w.Seal(c)
	sh.Tab.Put(c, lp.Base{}.Thread(0), 60, 666) // ghost — forces rebuild

	st := sh.RecoverLP(c, 8, basePair)
	if st.Verified {
		t.Fatal("ghost insert went undetected")
	}
	want := map[uint64]uint64{1: 10, 2: 20, 3: 777, 4: 40, 5: 50, 6: 60, 7: 70, 8: 80, 50: 555}
	got := sh.Tab.Contents(m)
	if len(got) != len(want) {
		t.Fatalf("rebuilt contents: %d keys, want %d (%v)", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("rebuilt[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestNewWriterPanicsForLP(t *testing.T) {
	m := memsim.NewMemory(1 << 20)
	sh := NewShard(m, "s", 0, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriter(ModeLP, ...) should panic")
		}
	}()
	sh.NewWriter(ModeLP, lp.Base{}.Thread(0))
}

// atomicCtx stores the way kvserve's fileCtx does: every word the single
// writer mutates goes through Memory.AtomicStore64.
type atomicCtx struct{ pmem.Native }

func (c *atomicCtx) Store64(a memsim.Addr, v uint64) { c.Mem.AtomicStore64(a, v) }

// TestSeqGetAgainstWriterRace is the -race witness for the seqlock over
// an image the detector can see. kvserve's heap image is an anonymous
// mapping, outside the race detector's shadow memory, so its
// TestSeqlockStress still checks that no get is torn but no longer that
// the table words are free of data races; here the same Put and SeqGet
// run over memsim.NewMemory's Go-heap image. Readers assert the
// contract: a value returned for a key is one the writer stored for it.
func TestSeqGetAgainstWriterRace(t *testing.T) {
	m := memsim.NewMemory(1 << 16)
	s := NewStore(m, "t", 256)
	s.EnableSeqlock()
	c := &atomicCtx{pmem.Native{Mem: m}}
	base := lp.Base{}.Thread(0)
	const keys, rounds = 96, 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(i%keys + 1)
				if v, ok, _ := s.SeqGet(m, k); ok && (v%keys+1 != k || v/keys >= rounds) {
					t.Errorf("SeqGet(%d) = %d: not a value the writer stored under that key", k, v)
					return
				}
			}
		}(r)
	}
	for round := 0; round < rounds; round++ {
		for k := uint64(1); k <= keys; k++ {
			s.Put(c, base, k, uint64(round)*keys+k-1)
		}
	}
	close(stop)
	wg.Wait()
}
