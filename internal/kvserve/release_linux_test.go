package kvserve

import (
	"bufio"
	"encoding/binary"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/workloads"
)

// mappingRss is the Rss /proc/self/smaps reports for the file mapping m:
// the pages of m mapped into the process. smaps reports whole VMAs, so m
// is first given a VMA of its own by advice it already has (MADV_RANDOM,
// see storeByLine), and a VMA reaching past m fails the test.
func mappingRss(t *testing.T, m []byte) int {
	t.Helper()
	if err := syscall.Madvise(m, syscall.MADV_RANDOM); err != nil {
		t.Fatalf("madvise: %v", err)
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatalf("smaps: %v", err)
	}
	defer f.Close()
	lo := uint64(uintptr(unsafe.Pointer(&m[0])))
	hi := lo + uint64(len(m)+pageSize-1)&^uint64(pageSize-1)
	rss, in := 0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		head, _, _ := strings.Cut(line, " ")
		if from, to, ok := strings.Cut(head, "-"); ok {
			a, errA := strconv.ParseUint(from, 16, 64)
			b, errB := strconv.ParseUint(to, 16, 64)
			if errA == nil && errB == nil {
				if in = a < hi && b > lo; in && (a < lo || b > hi) {
					t.Fatalf("smaps: VMA %#x-%#x reaches past the mapping %#x-%#x", a, b, lo, hi)
				}
				continue
			}
		}
		if kb, ok := strings.CutPrefix(line, "Rss:"); ok && in {
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(kb), " kB"))
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", line, err)
			}
			rss += n << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("smaps: %v", err)
	}
	return rss
}

// driveJournal journals n puts through sd by hand, as the stage benchmarks
// do (apply seals every BatchK, flushItem acks and releases); it records
// each put in model and returns the largest Rss the file mapping reached,
// sampled every releaseStep of journal.
func driveJournal(t *testing.T, s *Server, sd *shardState, n int, model map[uint64]uint64) (peak int) {
	t.Helper()
	cn := absorbConn()
	run := make([]request, 4*s.cfg.BatchK)
	sample := releaseStep / 16 / len(run) // runs per releaseStep of records
	for r := 0; r*len(run) < n; r++ {
		for j := range run {
			i := r*len(run) + j
			run[j] = request{key: workloads.KVKey(0, i%(2*s.cfg.Keys)), val: uint64(i)<<1 | 1, enq: time.Now(), cn: cn}
			model[run[j].key] = run[j].val
		}
		s.apply(sd, run)
		for len(sd.commitCh) > 0 {
			it := <-sd.commitCh
			s.flushItem(sd, it)
			sd.freeCh <- it
		}
		if r%sample == 0 {
			peak = max(peak, mappingRss(t, s.pf.img))
		}
	}
	if len(sd.pending) != 0 {
		t.Fatalf("%d puts left unsealed: n must be a multiple of the run", len(sd.pending))
	}
	return max(peak, mappingRss(t, s.pf.img))
}

// TestCommittedJournalReleased: as a shard's journal grows past 3 MiB, the
// committed part leaves the file mapping in steps of releaseStep, so its
// Rss does not grow with it; the file still holds every record; and a
// restart brings every acked put back with a clean re-verification.
func TestCommittedJournalReleased(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards, cfg.Streams, cfg.MaxOps = 1, 1, 1<<18 // a 4 MiB journal
	cfg.BatchWait = time.Hour                         // apply seals by count only
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sd := s.shards[0]
	model := map[uint64]uint64{}
	for _, kv := range sd.baseline {
		model[kv[0]] = kv[1]
	}
	const puts = 240 << 10 // 3.75 MiB of records
	peak := driveJournal(t, s, sd, puts, model)
	budget := 2*releaseStep + 16*sd.sh.Tab.Cap() + 8*sd.sh.Ack.Slots()
	t.Logf("peak Rss of the file mapping %d bytes, budget %d, journal %d", peak, budget, 16*puts)
	if peak >= budget {
		t.Errorf("the file mapping's Rss reached %d bytes over a %d-byte journal, budget %d", peak, 16*puts, budget)
	}

	first := (sd.sh.Jrn.Base + memsim.Addr(pageSize-1)) &^ memsim.Addr(pageSize-1)
	if got, want := s.ctReleased.Load(), uint64(sd.released-first); got != want || got < 2*releaseStep {
		t.Fatalf("kvserve_journal_released_bytes_total = %d, the cursor moved %d: want them equal and at least %d", got, want, 2*releaseStep)
	}
	for i := 0; i < puts; i++ {
		if d, key := s.mem.DurableLoad64(sd.sh.Jrn.Addr(2*i)), workloads.KVKey(0, i%(2*cfg.Keys)); d != key {
			t.Fatalf("record %d: the file holds key %#x, want %#x", i, d, key)
		}
	}

	if err := s.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if err := s.VerifyRecovered(); err != nil {
		t.Fatalf("VerifyRecovered: %v", err)
	}
	if st := s.RecoveryStats()[0]; st.AckedPuts != puts || st.Repaired != 0 {
		t.Fatalf("recovery acked %d puts with %d repairs, want %d and 0", st.AckedPuts, st.Repaired, puts)
	}
	got := s.Contents()
	if len(got) != len(model) {
		t.Fatalf("%d keys recovered, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %#x = %d after the restart, want %d", k, got[k], v)
		}
	}
}

// TestRestoredLoadMatchesImage: a restart maps the file as it is and
// copies nothing: the file mapping is barely touched — recovery reads the
// acked journal, the tables and the ack slots — and the unsealed tail
// left in the file is repaired away.
func TestRestoredLoadMatchesImage(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards, cfg.Streams, cfg.MaxOps = 2, 2, 1<<20 // a 32 MiB journal, a few written
	cfg.BatchWait = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	model := map[uint64]uint64{}
	driveJournal(t, s, s.shards[1], 96<<10, model)
	// A tail that must not survive: an unsealed run, whose table stores
	// are in the file as they executed, so recovery repairs.
	sd := s.shards[1]
	tail := make([]request, cfg.BatchK-1)
	for j := range tail {
		tail[j] = request{key: workloads.KVKey(1, j), val: 7, enq: time.Now(), cn: absorbConn()}
	}
	s.apply(sd, tail)
	if err := s.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	image := int(s.Metrics().Gauge("kvserve_image_bytes").Load())
	rss := mappingRss(t, s.pf.img)
	t.Logf("file mapping Rss %d bytes of a %d-byte image", rss, image)
	if rss > image/8 {
		t.Errorf("the file mapping has %d bytes resident after a restart, want far below the %d-byte image", rss, image)
	}
	if st := s.RecoveryStats()[1]; st.AckedPuts != 96<<10 || st.Repaired == 0 {
		t.Fatalf("shard 1 recovered %d acked puts with %d repairs, want %d and some", st.AckedPuts, st.Repaired, 96<<10)
	}
}

// TestTruncateTailPastAHole: the journal past a restored image's acked
// prefix holds non-zero records after a zero one — stale records beyond a
// hole, as a record zeroed by an earlier truncation or a torn batch leaves
// them. After New every journal word past the prefix is zero, which a
// sweep that stopped at the first zero record would not achieve, and the
// sweep went through the file, not the mapping: the file mapping's Rss
// stays far below the image.
func TestTruncateTailPastAHole(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards, cfg.Streams, cfg.MaxOps = 2, 2, 1<<20 // a 32 MiB journal
	cfg.BatchWait = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const acked = 4 << 10
	driveJournal(t, s, s.shards[1], acked, map[uint64]uint64{})
	prefix := []int{0, acked} // acked puts per shard
	for si, sd := range s.shards {
		// Record prefix[si] stays zero: the hole. Stale records follow it
		// in its window, in the next, mid-journal and in the last slot.
		for _, r := range []int{prefix[si] + 1, prefix[si] + cfg.BatchK + 3, cfg.MaxOps / 2, cfg.MaxOps - 1} {
			s.mem.Store64(sd.sh.Jrn.Addr(2*r), workloads.KVKey(5, r))
			s.mem.Store64(sd.sh.Jrn.Addr(2*r+1), uint64(r))
		}
	}
	if err := s.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	image := int(s.Metrics().Gauge("kvserve_image_bytes").Load())
	rss := mappingRss(t, s.pf.img)
	t.Logf("file mapping Rss %d bytes of a %d-byte image", rss, image)
	if rss > image/8 {
		t.Errorf("the file mapping has %d bytes resident after a restart, want far below the %d-byte image", rss, image)
	}
	if got, want := s.Metrics().Gauge("kvserve_boot_persisted_bytes").Load(), int64(2*4*2*8); got != want {
		t.Errorf("kvserve_boot_persisted_bytes = %d, want %d: two shards' four stale records of two words", got, want)
	}
	file, err := os.ReadFile(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	for si, sd := range s.shards {
		if st := s.RecoveryStats()[si]; st.AckedPuts != prefix[si] {
			t.Fatalf("shard %d acked %d puts, want %d", si, st.AckedPuts, prefix[si])
		}
		for i := 2 * prefix[si]; i < 2*cfg.MaxOps; i++ {
			if w := binary.LittleEndian.Uint64(file[headerSize+int(sd.sh.Jrn.Addr(i)):]); w != 0 {
				t.Fatalf("shard %d: journal word %d past the %d acked records holds %#x", si, i, prefix[si], w)
			}
		}
	}
}
