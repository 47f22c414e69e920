package kvserve

import (
	"bufio"
	"bytes"
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

// mappingRss is the Rss /proc/self/smaps reports for the mapping m: the
// pages of m mapped into the process. smaps reports whole VMAs, and the
// kernel may have merged an anonymous mapping with a neighbour whose pages
// would then count too; so m is first given a VMA of its own by advice
// that anonymous memory ignores (MADV_RANDOM, which the file mapping
// already has: it only steers file read-around).
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
// do (apply seals every BatchK, flushItem persists and releases), with
// every leaked table line written back; it records each put in model and
// returns the largest Rss either image mapping reached, sampled every
// releaseStep of journal.
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
		for leaked, _ := s.leakq.take(nil); leaked != nil; leaked, _ = s.leakq.take(nil) {
			for i := range leaked {
				s.mem.PersistLine(leaked[i].la, &leaked[i].buf)
			}
		}
		if r%sample == 0 {
			peak = max(peak, mappingRss(t, s.pf.heap), mappingRss(t, s.pf.img))
		}
	}
	if len(sd.pending) != 0 {
		t.Fatalf("%d puts left unsealed: n must be a multiple of the run", len(sd.pending))
	}
	return max(peak, mappingRss(t, s.pf.heap), mappingRss(t, s.pf.img))
}

// TestCommittedJournalReleased: as a shard's journal grows past 3 MiB, the
// committed part leaves both images in steps of releaseStep, so neither
// mapping's Rss grows with it; a released heap word reads zero while the
// file still holds the record; and a restart brings every acked put back
// from the file with a clean re-verification.
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
	t.Logf("peak Rss of an image mapping %d bytes, budget %d, journal %d", peak, budget, 16*puts)
	if peak >= budget {
		t.Errorf("an image mapping's Rss reached %d bytes over a %d-byte journal, budget %d", peak, 16*puts, budget)
	}

	first := (sd.sh.Jrn.Base + memsim.Addr(pageSize-1)) &^ memsim.Addr(pageSize-1)
	if got, want := s.ctReleased.Load(), uint64(sd.released-first); got != want || got < 2*releaseStep {
		t.Fatalf("kvserve_journal_released_bytes_total = %d, the cursor moved %d: want them equal and at least %d", got, want, 2*releaseStep)
	}
	for i := 0; i < puts; i++ {
		a := sd.sh.Jrn.Addr(2 * i)
		key := workloads.KVKey(0, i%(2*cfg.Keys))
		if d := s.mem.DurableLoad64(a); d != key {
			t.Fatalf("record %d: the file holds key %#x, want %#x", i, d, key)
		}
		want := key
		if a >= first && a < sd.released {
			want = 0
		}
		if h := s.mem.Load64(a); h != want {
			t.Fatalf("record %d at %#x (released below %#x): the heap holds %#x, want %#x", i, a, sd.released, h, want)
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

// TestRestoredLoadMatchesImage: a restart loads the heap image by reading
// only the file's written pages, and the result is Memory.Crash's: the
// heap equals the file's image byte for byte, the file mapping is barely
// touched, and the boot record's loaded bytes are the non-zero pages.
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
	// A tail that must not survive: an unsealed run whose table lines
	// all reach the file, so recovery repairs.
	sd := s.shards[1]
	tail := make([]request, cfg.BatchK-1)
	for j := range tail {
		tail[j] = request{key: workloads.KVKey(1, j), val: 7, enq: time.Now(), cn: absorbConn()}
	}
	s.apply(sd, tail)
	for leaked, _ := s.leakq.take(nil); leaked != nil; leaked, _ = s.leakq.take(nil) {
		for i := range leaked {
			s.mem.PersistLine(leaked[i].la, &leaked[i].buf)
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
	t.Logf("file mapping Rss %d bytes of a %d-byte image; loaded %d", rss, image, s.Metrics().Gauge("kvserve_boot_loaded_bytes").Load())
	if rss > image/16 {
		t.Errorf("the file mapping has %d bytes resident after a restart, want far below the %d-byte image", rss, image)
	}
	file, err := os.ReadFile(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	file = file[headerSize:]
	if !bytes.Equal(s.pf.heap, file) {
		for i := range file {
			if s.pf.heap[i] != file[i] {
				t.Fatalf("heap and file images differ first at byte %#x: %#x against %#x", i, s.pf.heap[i], file[i])
			}
		}
	}
	// What load copied: the non-zero pages of the file image as it was
	// before recovery, which only zeroes journal words and rewrites lines
	// of pages that already held data — no fewer than the image's non-zero
	// pages now.
	written := writtenBytes(file)
	loaded := int(s.Metrics().Gauge("kvserve_boot_loaded_bytes").Load())
	if loaded < written || 4*loaded > image {
		t.Errorf("kvserve_boot_loaded_bytes = %d, want at least the %d bytes of written pages and under a quarter of the %d-byte image", loaded, written, image)
	}
	if st := s.RecoveryStats()[1]; st.AckedPuts != 96<<10 || st.Repaired == 0 {
		t.Fatalf("shard 1 recovered %d acked puts with %d repairs, want %d and some", st.AckedPuts, st.Repaired, 96<<10)
	}
}
