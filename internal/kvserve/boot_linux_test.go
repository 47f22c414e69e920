package kvserve

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"unsafe"

	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// residentBytes counts the pages of a mapping that are in memory: for the
// file mapping, pages of the file in the page cache; for the anonymous
// one, pages something was loaded from or stored to.
func residentBytes(t *testing.T, m []byte) int {
	t.Helper()
	page := os.Getpagesize()
	vec := make([]byte, (len(m)+page-1)/page)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	n := 0
	for _, v := range vec {
		n += int(v&1) * page
	}
	return n
}

// TestBootFootprint: what a fresh boot costs follows the data, not the
// journal's geometry. Across New the Go heap grows by less than a quarter
// of the image (no heap image, no throwaway durable image), and the pages
// resident in the two mappings afterwards are the tables, the ack slots
// and a megabyte of slack — the same at a journal of 4 Ki entries per
// shard as at 1 Mi, where the image is 34 MB.
func TestBootFootprint(t *testing.T) {
	var fs syscall.Statfs_t
	dir := t.TempDir()
	if err := syscall.Statfs(dir, &fs); err != nil {
		t.Fatalf("statfs: %v", err)
	}
	const tmpfsMagic = 0x01021994
	for _, maxOps := range []int{1 << 12, 1 << 20} {
		cfg := Config{
			Path: filepath.Join(dir, "kv.img"), Mode: lpstore.ModeLP,
			Shards: 2, Capacity: 1 << 17, MaxOps: maxOps, BatchK: 16, Streams: 2, Keys: 1 << 10,
			Registry: obs.NewRegistry(), Tracer: obs.NewTracer(1),
		}
		os.Remove(cfg.Path)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		image := s.mem.Size()
		if grew := int(after.TotalAlloc - before.TotalAlloc); grew >= image/4 {
			t.Errorf("MaxOps %d: New allocated %d bytes of Go heap for a %d-byte image", maxOps, grew, image)
		}
		budget := 1 << 20
		for _, sd := range s.shards {
			budget += 16*sd.sh.Tab.Cap() + 8*sd.sh.Ack.Slots()
		}
		for name, m := range map[string][]byte{"file": s.pf.img, "heap": s.pf.heap} {
			if name == "file" && fs.Type == tmpfsMagic {
				continue // fallocate on tmpfs instantiates every page: the file's pages are its blocks
			}
			if got := residentBytes(t, m); got > budget {
				t.Errorf("MaxOps %d: %d bytes of the %s mapping are resident after a fresh boot, budget %d (image %d)",
					maxOps, got, name, budget, image)
			}
		}
		s.Abort()
	}
}
