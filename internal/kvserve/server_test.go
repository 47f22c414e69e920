package kvserve

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"lazyp/internal/checksum"
	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/workloads"
)

func testCfg(t *testing.T, mode lpstore.Mode) Config {
	t.Helper()
	return Config{
		Path:      filepath.Join(t.TempDir(), "kv.img"),
		Mode:      mode,
		Shards:    2,
		Capacity:  1 << 10,
		MaxOps:    1 << 12,
		BatchK:    16,
		Streams:   2,
		Keys:      128,
		Mailbox:   64,
		BatchWait: 200 * time.Microsecond,
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestServePutGet: the basic request path under every discipline —
// preloaded reads, inserts, updates, misses.
func TestServePutGet(t *testing.T) {
	for _, mode := range []lpstore.Mode{lpstore.ModeBase, lpstore.ModeLP, lpstore.ModeEP, lpstore.ModeWAL} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testCfg(t, mode)
			s := startServer(t, cfg)
			cl := dial(t, s.Addr())

			k0 := workloads.KVKey(0, 0)
			want := workloads.KVInitVal(1, k0) // defaulted seed
			if v, st, err := cl.Get(k0); err != nil || st != StatusOK || v != want {
				t.Fatalf("Get(preloaded) = %#x,%s,%v want %#x,ok", v, StatusName(st), err, want)
			}
			nk := workloads.KVKey(9, 7)
			if st, err := cl.Put(nk, 4242); err != nil || st != StatusOK {
				t.Fatalf("Put = %s,%v", StatusName(st), err)
			}
			if st, err := cl.Put(nk, 4343); err != nil || st != StatusOK {
				t.Fatalf("update Put = %s,%v", StatusName(st), err)
			}
			if v, st, _ := cl.Get(nk); st != StatusOK || v != 4343 {
				t.Fatalf("Get after update = %#x,%s want 4343,ok", v, StatusName(st))
			}
			if _, st, _ := cl.Get(workloads.KVKey(9, 8)); st != StatusNotFound {
				t.Fatalf("Get(miss) = %s, want not_found", StatusName(st))
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestServeBadRequest: reserved keys and unknown ops are rejected with
// the request's own sequence number, without touching any shard.
func TestServeBadRequest(t *testing.T) {
	s := startServer(t, testCfg(t, lpstore.ModeLP))
	defer s.Close()
	cl := dial(t, s.Addr())
	for _, c := range []struct {
		op       byte
		key      uint64
		wantName string
	}{
		{OpPut, 0, "zero key"},
		{'X', 5, "unknown op"},
		{'R', 5, "the retired single-put replication op"},
	} {
		ch, err := cl.start(c.op, c.key, 1, 0)
		if err != nil {
			t.Fatalf("%s: start: %v", c.wantName, err)
		}
		if r := <-ch; r.Status != StatusBadRequest {
			t.Fatalf("%s answered %s, want bad_request", c.wantName, StatusName(r.Status))
		}
	}
	// The all-ones key was reserved for pad records; there are none, and
	// it is a key like any other.
	if st, err := cl.Put(^uint64(0), 7); err != nil || st != StatusOK {
		t.Fatalf("Put(^0) = %s,%v want ok", StatusName(st), err)
	}
	if v, st, err := cl.Get(^uint64(0)); err != nil || st != StatusOK || v != 7 {
		t.Fatalf("Get(^0) = %d,%s,%v want 7,ok", v, StatusName(st), err)
	}
}

// TestServeOverload: a full mailbox answers StatusOverload immediately
// instead of queueing. White-box: the owner is never started, so the
// mailbox stays full deterministically.
func TestServeOverload(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.Mailbox = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if acc, depth := s.shards[0].mb.push(make([]request, 3)); acc != 2 || depth != 2 {
		t.Fatalf("push of 3 into an empty mailbox of 2 accepted %d (depth %d), want 2", acc, depth)
	}

	srvEnd, cliEnd := net.Pipe()
	cn := newSrvConn(srvEnd)
	s.wgConns.Add(2)
	go s.connReader(cn)
	go s.connWriter(cn)

	var req [ReqSize]byte
	EncodeReq(&req, OpPut, 7, workloads.KVKey(0, 0), 1)
	if _, err := cliEnd.Write(req[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	var resp [RespSize]byte
	if _, err := io.ReadFull(cliEnd, resp[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	seq, st, _ := DecodeResp(&resp)
	if seq != 7 || st != StatusOverload {
		t.Fatalf("got seq=%d status=%s, want 7/overload", seq, StatusName(st))
	}
	if s.Stats().Overloads != 1 {
		t.Fatalf("overload counter = %d, want 1", s.Stats().Overloads)
	}
	cliEnd.Close()
}

// TestConfigValidate: New refuses settings that used to panic deep
// inside it (a negative Mailbox reached make(chan)) or silently reject
// every put, naming the field.
func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Mailbox", func(c *Config) { c.Mailbox = -1 }},
		{"BatchWait", func(c *Config) { c.BatchWait = -time.Millisecond }},
		{"PipelineDepth", func(c *Config) { c.PipelineDepth = -1 }},
		{"Shards", func(c *Config) { c.Shards = 3 }},
	} {
		cfg := testCfg(t, lpstore.ModeLP)
		c.set(&cfg)
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("New accepted a bad %s", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad %s: error %q does not name the field", c.field, err)
		}
	}
}

// TestPutOrderPerConnection: a connection's puts to one shard apply in
// send order however the reader cuts them into runs — 4 096 pipelined
// puts of one key, values ascending, leave the last value behind.
func TestPutOrderPerConnection(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(strconv.Itoa(shards), func(t *testing.T) {
			const puts = 4096
			cfg := testCfg(t, lpstore.ModeLP)
			cfg.Shards = shards
			cfg.Mailbox = puts // the window is the whole stream: no Overload
			cfg.MaxOps = 1 << 14
			s := startServer(t, cfg)
			defer s.Close()
			c, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			key := workloads.KVKey(0, 0)
			frames := make([]byte, 0, puts*ReqSize)
			for i := 1; i <= puts; i++ {
				var f [ReqSize]byte
				EncodeReq(&f, OpPut, uint32(i), key, uint64(i))
				frames = append(frames, f[:]...)
			}
			go c.Write(frames)
			for i := 0; i < puts; i++ {
				var f [RespSize]byte
				if _, err := io.ReadFull(c, f[:]); err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				if seq, st, _ := DecodeResp(&f); st != StatusOK {
					t.Fatalf("put %d answered %s", seq, StatusName(st))
				}
			}
			if v, st, err := dial(t, s.Addr()).Get(key); err != nil || st != StatusOK || v != puts {
				t.Fatalf("Get = %d,%s,%v; want the last value sent, %d", v, StatusName(st), err, puts)
			}
		})
	}
}

// getBurst writes one get frame per key to c in a single Write, reads the
// responses, and then completes a ping: the reader decodes the ping only
// after it has booked the burst before it, so on return the gets are in
// the counters and the histogram. It returns how many gets missed.
func getBurst(t *testing.T, c net.Conn, keys []uint64) (misses int) {
	t.Helper()
	read := func(seq int) byte {
		var f [RespSize]byte
		if _, err := io.ReadFull(c, f[:]); err != nil {
			t.Fatalf("response %d: %v", seq, err)
		}
		got, st, _ := DecodeResp(&f)
		if got != uint32(seq) {
			t.Fatalf("response %d carries seq %d", seq, got)
		}
		return st
	}
	var frames []byte
	for i, k := range keys {
		frames = AppendReq(frames, OpGet, uint32(i), k, 0)
	}
	if _, err := c.Write(frames); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := range keys {
		switch st := read(i); st {
		case StatusOK:
		case StatusNotFound:
			misses++
		default:
			t.Fatalf("get %d answered %s", i, StatusName(st))
		}
	}
	if _, err := c.Write(AppendReq(nil, OpPing, uint32(len(keys)), 0, 0)); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	if st := read(len(keys)); st != StatusOK {
		t.Fatalf("ping answered %s", StatusName(st))
	}
	return misses
}

// TestGetCountersOnOpenConnection: get tallies reach the shared counters
// with the burst's response flush, not at a count threshold or at close —
// a client that keeps its connection sees its own gets in Stats.
func TestGetCountersOnOpenConnection(t *testing.T) {
	s := startServer(t, testCfg(t, lpstore.ModeLP))
	defer s.Close()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var keys []uint64
	for i := 1; i <= 10; i++ {
		tid := 0
		if i%3 == 0 {
			tid = 9 // no such partition was preloaded: a miss
		}
		keys = append(keys, workloads.KVKey(tid, i))
	}
	if misses := getBurst(t, c, keys); misses != 3 {
		t.Fatalf("%d gets missed, want 3", misses)
	}
	if st := s.Stats(); st.Gets != 10 || st.GetMisses != 3 {
		t.Fatalf("with the connection still open Stats reads %d gets, %d misses; want 10, 3", st.Gets, st.GetMisses)
	}
	// A second burst adds to the counters what it carried, no more.
	getBurst(t, c, keys[1:3])
	if st := s.Stats(); st.Gets != 12 || st.GetMisses != 4 {
		t.Fatalf("after a second burst Stats reads %d gets, %d misses; want 12, 4", st.Gets, st.GetMisses)
	}
	if n := s.getLat.Snapshot().Count; n != 12 {
		t.Fatalf("kvserve_get_latency_seconds holds %d samples, want 12 (= kvserve_gets_total)", n)
	}
}

// TestGetLatencyPerBurst pins what kvserve_get_latency_seconds measures:
// the read burst is timed, not the get. 64 pipelined gets that arrive in
// one segment are one burst — 64 samples of one duration, so one bucket
// (a clock pair per get spreads them over several) — and that duration,
// request decoded → response handed to the socket, lies inside what the
// client saw from before its write to after the burst was booked.
func TestGetLatencyPerBurst(t *testing.T) {
	s := startServer(t, testCfg(t, lpstore.ModeLP))
	defer s.Close()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = workloads.KVKey(i%2, i/2)
	}
	t0 := time.Now()
	getBurst(t, c, keys)
	seen := uint64(time.Since(t0).Nanoseconds())
	h := s.getLat.Snapshot()
	if h.Count != 64 {
		t.Fatalf("%d samples, want 64", h.Count)
	}
	buckets := 0
	for _, n := range h.Counts {
		if n != 0 {
			buckets++
		}
	}
	if buckets != 1 || h.Sum != 64*h.Max {
		t.Fatalf("64 samples in %d buckets, sum %d ns, max %d ns: the gets were timed one by one", buckets, h.Sum, h.Max)
	}
	if h.Max == 0 || h.Max > seen {
		t.Fatalf("samples of %d ns against %d ns seen by the client", h.Max, seen)
	}
}

// TestBatchDeadlineUnderTrickle: BatchWait bounds a batch's age, not the
// owner's idle time. One put a millisecond keeps waking the owner before
// a full BatchWait of idleness, and the batch must still seal by its
// deadline — the first put is acked within a few BatchWaits, not when
// the K-th arrives. The second half is the owner that never idles at all
// (the test calls apply back to back): there the per-run deadline check
// is the only thing that can seal.
func TestBatchDeadlineUnderTrickle(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.BatchK = 32
	cfg.BatchWait = 5 * time.Millisecond

	t.Run("served", func(t *testing.T) {
		cfg.Path = filepath.Join(t.TempDir(), "kv.img")
		s := startServer(t, cfg)
		defer s.Close()
		cl := dial(t, s.Addr())
		t0 := time.Now()
		first, err := cl.start(OpPut, workloads.KVKey(9, 0), 1, 0)
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		for i := 1; i < cfg.BatchK-1; i++ { // never the K-th put: only the deadline can seal
			select {
			case r := <-first:
				if d := time.Since(t0); r.Status != StatusOK || d > 4*cfg.BatchWait {
					t.Fatalf("first put: %s after %v, want ok within %v", StatusName(r.Status), d, 4*cfg.BatchWait)
				}
				return
			case <-time.After(time.Millisecond):
			}
			if _, err := cl.start(OpPut, workloads.KVKey(9, i), 1, 0); err != nil {
				t.Fatalf("start: %v", err)
			}
		}
		t.Fatalf("first put still unacked after %v and %d trickled puts", time.Since(t0), cfg.BatchK-2)
	})

	t.Run("never idle", func(t *testing.T) {
		cfg.Path = filepath.Join(t.TempDir(), "kv.img")
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sd := s.shards[0]
		s.wgFlush.Add(1)
		go s.flusher(sd)
		cn := absorbConn()
		t0 := time.Now()
		for i := 0; i == 0 || len(sd.pending) > 0; i++ {
			if i == cfg.BatchK-1 {
				t.Fatalf("batch still open after %v and %d puts", time.Since(t0), i)
			}
			s.apply(sd, []request{{key: workloads.KVKey(9, i), val: 1, enq: time.Now(), cn: cn}})
			time.Sleep(time.Millisecond)
		}
		if sd.w.Seq() >= cfg.BatchK {
			t.Fatalf("the batch sealed on its %d-th put: not by its deadline", sd.w.Seq())
		}
		close(sd.commitCh)
		s.wgFlush.Wait()
		s.Close()
	})
}

// TestServeFullTable: the occupancy watermark rejects inserts with
// StatusFull before the table can fill; the count of accepted inserts
// is exactly watermark minus preload.
func TestServeFullTable(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.Capacity = 64 // highWater 56
	cfg.Streams = 1
	cfg.Keys = 8
	cfg.MaxOps = 1 << 10
	s := startServer(t, cfg)
	defer s.Close()
	cl := dial(t, s.Addr())

	okCount, fullSeen := 0, false
	for i := 0; i < 200 && !fullSeen; i++ {
		st, err := cl.Put(workloads.KVKey(3, i), uint64(i+1))
		switch {
		case err != nil:
			t.Fatalf("Put %d: %v", i, err)
		case st == StatusOK:
			okCount++
		case st == StatusFull:
			fullSeen = true
		default:
			t.Fatalf("Put %d answered %s", i, StatusName(st))
		}
	}
	if !fullSeen {
		t.Fatal("no StatusFull before 200 inserts into a 64-slot shard")
	}
	if want := 56 - 8; okCount != want {
		t.Fatalf("accepted %d inserts before full, want %d", okCount, want)
	}
}

// TestServeEPWALRestart: the eager disciplines ack per put, so a
// drained image reopens with their data intact and servable.
func TestServeEPWALRestart(t *testing.T) {
	for _, mode := range []lpstore.Mode{lpstore.ModeEP, lpstore.ModeWAL} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testCfg(t, mode)
			s := startServer(t, cfg)
			cl := dial(t, s.Addr())
			for i := 0; i < 10; i++ {
				if st, err := cl.Put(workloads.KVKey(9, i), uint64(1000+i)); err != nil || st != StatusOK {
					t.Fatalf("Put %d = %s,%v", i, StatusName(st), err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2, err := New(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if !s2.Restored() {
				t.Fatal("reopen did not detect the image")
			}
			contents := s2.Contents()
			for i := 0; i < 10; i++ {
				k := workloads.KVKey(9, i)
				if contents[k] != uint64(1000+i) {
					t.Fatalf("key %#x = %#x after restart, want %#x", k, contents[k], 1000+i)
				}
			}
		})
	}
}

// TestServeGeometryMismatch: a backing file refuses configs it was not
// created with, and non-kvserve files are rejected outright.
func TestServeGeometryMismatch(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	bad := cfg
	bad.BatchK = 32
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("mismatched geometry accepted: %v", err)
	}
}

// TestBackingFileIsDurableImage: the file's image region is the
// Memory's durable image, not a copy kept in step with it — a plain store
// through a shard's ctx is, at once, what memsim's inspection helper
// returns and what the file holds, on a fresh boot and on a reopen; and
// once the server is closed, a late store is an ordinary panic, never a
// fault on the unmapped file. A fresh boot, which writes only what is not
// zero, leaves every allocation as the format says, and reopening that
// file finds nothing to repair.
func TestBackingFileIsDurableImage(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.MaxOps = 1 << 18 // a journal 16 times the tables: what a boot must not write
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	imageIsFile := func(s *Server) {
		t.Helper()
		file, err := os.ReadFile(cfg.Path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if len(file) != headerSize+s.mem.Size() {
			t.Fatalf("file is %d bytes, want %d", len(file), headerSize+s.mem.Size())
		}
		for a := 0; a < s.mem.Size(); a += 8 {
			if got, want := s.mem.DurableLoad64(memsim.Addr(a)), binary.LittleEndian.Uint64(file[headerSize+a:]); got != want {
				t.Fatalf("DurableLoad64(%#x) = %#x, file holds %#x", a, got, want)
			}
		}
	}

	// A fresh boot, allocation by allocation: format and Preload write
	// what is not zero, and everything they do not write is zero because
	// it was never touched.
	for _, al := range s.mem.Allocations() {
		var want func(i int, w uint64) bool
		switch {
		case strings.HasSuffix(al.Name, ".jrn"), al.Name == "kvserve.guard":
			want = func(_ int, w uint64) bool { return w == 0 }
		case strings.HasSuffix(al.Name, ".ack"):
			want = func(_ int, w uint64) bool { return w == checksum.Invalid }
		case strings.HasSuffix(al.Name, ".tab"):
			pre := preloadOf(cfg)
			want = func(i int, w uint64) bool { _, ok := pre[w]; return i%2 == 1 || w == 0 || ok }
		default:
			t.Fatalf("allocation %q: the test does not know its initial contents", al.Name)
		}
		for i := 0; i < al.Size/8; i++ {
			a := al.Base + memsim.Addr(8*i)
			ram, nvmm := s.mem.Load64(a), s.mem.DurableLoad64(a)
			if ram != nvmm || !want(i, ram) {
				t.Fatalf("fresh boot: %s word %d: architectural %#x, durable %#x", al.Name, i, ram, nvmm)
			}
		}
	}
	if got, want := s.Contents(), preloadOf(cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh boot holds %d keys, want the %d preloaded", len(got), len(want))
	}

	c := s.shards[0].ctx
	addr := s.shards[0].sh.Jrn.Addr(5)
	const word = 0xfeedface0badf00d
	c.Store64(addr, word)
	if got := s.mem.DurableLoad64(addr); got != word {
		t.Fatalf("DurableLoad64 after a plain Store64 = %#x, want %#x", got, uint64(word))
	}
	imageIsFile(s)

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Store64 on a closed server's ctx did not panic")
			}
		}()
		c.Store64(addr, 1)
	}()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !s2.Restored() {
		t.Fatal("reopen did not detect the image")
	}
	for _, st := range s2.RecoveryStats() {
		if !st.Verified || st.Repaired != 0 || st.AckedPuts != 0 {
			t.Fatalf("reopening a fresh boot's file: %+v", st)
		}
	}
	// Recovery truncated the unacknowledged journal word, in the file.
	if got := s2.mem.DurableLoad64(addr); got != 0 {
		t.Fatalf("unacked journal word survived recovery durably: %#x", got)
	}
	imageIsFile(s2)
}

// BenchmarkRestartRepair times kvserve.New on an image whose shard must
// be rebuilt: a half-full table (the densest preload validate allows)
// plus one never-acknowledged insert, in the file, so RecoverLP wipes and
// re-puts every occupied slot through the shard's fileCtx. Reported per
// table slot, so the two sizes read the same when a repairing restart
// is linear in the table and 4x apart when it is quadratic.
func BenchmarkRestartRepair(b *testing.B) {
	for _, capacity := range []int{1 << 14, 1 << 16} {
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			dir := b.TempDir()
			cfg := Config{
				Path: filepath.Join(dir, "kv.img"), Mode: lpstore.ModeLP,
				Shards: 1, Capacity: capacity, MaxOps: 1 << 10, BatchK: 16,
				Streams: 1, Keys: capacity / 2,
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			sd := s.shards[0]
			sd.w.Put(sd.ctx, workloads.KVKey(7, 0), 1) // the ghost: stored, never acked
			s.Abort()
			crashed, err := os.ReadFile(cfg.Path)
			if err != nil {
				b.Fatalf("ReadFile: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.WriteFile(cfg.Path, crashed, 0o644); err != nil {
					b.Fatalf("WriteFile: %v", err)
				}
				b.StartTimer()
				re, err := New(cfg)
				b.StopTimer()
				if err != nil {
					b.Fatalf("recovering New: %v", err)
				}
				if rs := re.RecoveryStats(); len(rs) != 1 || rs[0].Repaired == 0 {
					b.Fatalf("restart did not repair: %+v", rs)
				}
				re.Abort()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*capacity), "ns/slot")
		})
	}
}
