package kvserve

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
)

// The put path, one stage per benchmark, each built with New and never
// Started: no listener, no owner, no flusher, one goroutine. Every
// benchmark counts puts and reports ns/put, so the rows add up to the
// server's share of a put (EXPERIMENTS.md "Put path by stage" sets the
// sum beside put_sat's host.cpu_us_per_op); the get path is one stage,
// BenchmarkStageGet, in ns/get. One shard, 65 536 preloaded keys in a
// half-full table, updates walking the key space in a stride — put_sat's
// shape, a quarter of its table.

const (
	stageKeys = 1 << 16
	stageRun  = 64 // puts per burst, run and window: put_sat's frames in flight per connection
)

// stageServer builds an un-Started one-shard LP server whose journal
// holds maxOps puts.
func stageServer(b testing.TB, batchK, maxOps int) (*Server, *shardState) {
	b.Helper()
	s, err := New(Config{
		Path: filepath.Join(b.TempDir(), "kv.img"), Mode: lpstore.ModeLP,
		Shards: 1, Capacity: 2 * stageKeys, MaxOps: maxOps, BatchK: batchK,
		Streams: 1, Keys: stageKeys, Mailbox: 1 << 12, BatchWait: time.Hour, PipelineDepth: 2,
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return s, s.shards[0]
}

// stageKey is the i-th put's key: preloaded keys, far apart in the table.
func stageKey(sd *shardState, i int) uint64 { return sd.baseline[i*7919%len(sd.baseline)][0] }

// perPut reports ns/put over the puts a benchmark really issued.
func perPut(b *testing.B, d time.Duration, puts int) {
	b.ReportMetric(float64(d.Nanoseconds())/float64(puts), "ns/put")
}

// burstConn reads as a client that pipelines the same burst of request
// frames until n frames are sent, and discards what is written to it.
// Between bursts it empties the mailboxes, as the owners would.
type burstConn struct {
	net.Conn
	burst []byte
	left  int
	s     *Server
	spare []request
}

func (c *burstConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	for _, sd := range c.s.shards {
		if run, _ := sd.mb.take(c.spare); run != nil {
			c.spare = run
		}
	}
	n := copy(p, c.burst[:min(len(c.burst), c.left*ReqSize)])
	c.left -= n / ReqSize
	return n, nil
}
func (c *burstConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *burstConn) Close() error                { return nil }

// readBursts times connReader over b.N frames that arrive as repeats of
// burst.
func readBursts(b *testing.B, s *Server, burst []byte) {
	cn := newSrvConn(&burstConn{burst: burst, left: b.N, s: s})
	s.wgConns.Add(1)
	b.ResetTimer()
	s.connReader(cn)
}

// BenchmarkStageDecode: connReader alone — read, DecodeReq, validate,
// route, stage, and at each drain point one push into the mailbox.
func BenchmarkStageDecode(b *testing.B) {
	s, sd := stageServer(b, 32, 1<<10)
	defer s.Close()
	var burst []byte
	for i := 0; i < stageRun; i++ {
		burst = AppendReq(burst, OpPut, uint32(i), stageKey(sd, i), uint64(i))
	}
	readBursts(b, s, burst)
	perPut(b, b.Elapsed(), b.N)
}

// BenchmarkStageGet: connReader alone on the get path — read, DecodeReq,
// validate, SeqGet on a preloaded key, the response frame, and per burst
// one clock pair, one ObserveN, one tally flush and one (discarded)
// write. The burst is what one buffer fill brings: 64 is get_sat's window
// per connection, 1 a client that waits for each answer.
func BenchmarkStageGet(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("burst%d", n), func(b *testing.B) {
			s, sd := stageServer(b, 32, 1<<10)
			defer s.Close()
			var burst []byte
			for i := 0; i < n; i++ {
				burst = AppendReq(burst, OpGet, uint32(i), stageKey(sd, i), 0)
			}
			readBursts(b, s, burst)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/get")
			if got := s.Stats().Gets; got != uint64(b.N) {
				b.Fatalf("%d gets counted, want %d", got, b.N)
			}
		})
	}
}

// BenchmarkStageApply: the owner's apply for a run of puts — queue-stage
// observe, admission, lpstore's Put (journal append, running checksum,
// table store under the seqlock) and the batch's pending entry. BatchK is
// the whole journal, so no batch fills and no seal is inside.
func BenchmarkStageApply(b *testing.B) {
	const maxOps = 1 << 16
	var s *Server
	var sd *shardState
	cn := absorbConn()
	run := make([]request, stageRun)
	puts := 0
	b.ResetTimer()
	for ; puts < b.N; puts += len(run) {
		if s == nil || sd.w.Seq()+len(run) > maxOps {
			b.StopTimer()
			if s != nil {
				s.Close()
			}
			s, sd = stageServer(b, maxOps, maxOps)
			b.StartTimer()
		}
		enq := time.Now()
		for j := range run {
			run[j] = request{seq: uint32(j), key: stageKey(sd, puts+j), val: uint64(puts + j), enq: enq, cn: cn}
		}
		s.apply(sd, run)
		sd.pending = sd.pending[:0]
	}
	b.StopTimer()
	perPut(b, b.Elapsed(), puts)
	s.Close()
}

// fillBatch journals fill puts into sd's open batch as apply would,
// outside any timed region.
func fillBatch(s *Server, sd *shardState, cn *srvConn, at, fill int) {
	enq := time.Now()
	for j := 0; j < fill; j++ {
		key := stageKey(sd, at+j)
		sd.w.Put(sd.ctx, key, uint64(at+j))
		sd.pending = append(sd.pending, request{seq: uint32(j), key: key, val: uint64(at + j), enq: enq, cn: cn})
	}
	sd.openAt = enq
}

// stageBatches runs stage once per batch of fill client puts until b.N
// puts are through, on servers rebuilt whenever the journal runs out;
// each server's journal starts with one sealed batch of skew records, so
// that with skew % BatchK != 0 every full batch after it straddles two
// windows. stage returns how long its stage proper took — it does the
// untimed work around it too — and the lines of the batch's write set;
// the sums are reported per put.
func stageBatches(b *testing.B, skew, fill int, cn *srvConn, stage func(s *Server, sd *shardState) (time.Duration, int)) {
	const batchK, maxOps = 32, 1 << 20
	var s *Server
	var sd *shardState
	var spent time.Duration
	puts, lines := 0, 0
	for ; puts < b.N; puts += fill {
		if s == nil || sd.w.Seq()+batchK > maxOps {
			if s != nil {
				s.Close()
			}
			s, sd = stageServer(b, batchK, maxOps)
			if skew > 0 {
				fillBatch(s, sd, cn, puts, skew)
				s.seal(sd, sealCount)
				recycle(sd)
			}
		}
		fillBatch(s, sd, cn, puts, fill)
		d, n := stage(s, sd)
		spent += d
		lines += n
	}
	perPut(b, spent, puts)
	b.ReportMetric(float64(lines*memsim.LineSize)/float64(puts), "B/put")
	s.Close()
}

// recycle returns the sealed batch to the ring unflushed, and the lines
// of its write set.
func recycle(sd *shardState) int {
	it := <-sd.commitCh
	it.pending = it.pending[:0]
	sd.freeCh <- it
	return it.lines
}

// BenchmarkStageSeal: seal alone — the window's checksum commit, stage
// observes, the write set's line count — for a full batch
// on its window, a batch of 4 (put_few's fill), and a full batch
// straddling two windows. Two clock reads per batch sit inside the figure
// (≈ 1–2 ns/put at K = 32). B/put is the batch's durable write set.
func BenchmarkStageSeal(b *testing.B) {
	for _, c := range []struct {
		name       string
		skew, fill int
	}{{"full", 0, 32}, {"short4", 0, 4}, {"straddle", 13, 32}} {
		b.Run(c.name, func(b *testing.B) {
			stageBatches(b, c.skew, c.fill, absorbConn(), func(s *Server, sd *shardState) (time.Duration, int) {
				t0 := time.Now()
				s.seal(sd, sealCount)
				d := time.Since(t0)
				return d, recycle(sd)
			})
		})
	}
}

// BenchmarkStageFlush: flushItem alone — the journal release, the batch's
// stage and latency observes, and its acks encoded and queued on the
// connection as one run.
func BenchmarkStageFlush(b *testing.B) {
	cn := newSrvConn(&burstConn{})
	var acks []byte
	stageBatches(b, 0, 32, cn, func(s *Server, sd *shardState) (time.Duration, int) {
		s.seal(sd, sealCount)
		it := <-sd.commitCh
		t0 := time.Now()
		s.flushItem(sd, it)
		d := time.Since(t0)
		sd.freeCh <- it
		if run, _ := cn.acks.take(acks); run != nil {
			acks = run
		}
		return d, it.lines
	})
}

// BenchmarkStageAck: a flushed batch's 32 acks from the connection's ack
// queue to a real loopback socket — one push, one take, one write
// syscall, through the reader's drain-point path (flushResponses), which
// is the writer goroutine's work without its wake-up.
func BenchmarkStageAck(b *testing.B) {
	s, _ := stageServer(b, 32, 1<<10)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cn := newSrvConn(c)
	defer cn.stop()
	var acks []byte
	for i := 0; i < 32; i++ {
		acks = AppendResp(acks, uint32(i), StatusOK, 0)
	}
	puts := 0
	b.ResetTimer()
	for ; puts < b.N; puts += 32 {
		cn.pushAcks(acks)
		if !s.flushResponses(cn, nil) {
			b.Fatal("write failed")
		}
	}
	perPut(b, b.Elapsed(), puts)
}

// BenchmarkReplCodec: one OpReplBatch run appended and decoded, at
// cluster_mix's four puts per frame and at a full batch, every fourth
// put traced.
func BenchmarkReplCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"run=4", 4}, {"run=32", 32}} {
		b.Run(c.name, func(b *testing.B) {
			var frame []byte
			var sum uint64
			puts := 0
			for ; puts < b.N; puts += c.n {
				frame = AppendReplBatch(frame[:0], 1, c.n, func(i int) (key, val, tid uint64) {
					return uint64(puts + i + 1), uint64(i), uint64(i&3) / 3 * 0xabc
				})
				_, _, count, tcount := DecodeReq((*[ReqSize]byte)(frame))
				if !DecodeReplBatch(count, tcount, frame[ReqSize:], func(key, val, tid uint64) { sum += key + val + tid }) {
					b.Fatal("the frame does not decode")
				}
			}
			perPut(b, b.Elapsed(), puts)
			if sum == 0 {
				b.Fatal("nothing decoded")
			}
		})
	}
}

// BenchmarkBoot: kvserve.New alone, on put_sat's table with the journal
// at a sixteenth of its size and at a quarter (MaxOps 1<<17 and 1<<19 per
// shard). ns/boot and persisted-B/boot of a fresh boot must read the same
// in both rows — it writes tables and ack slots, whatever the journal; a
// restored boot of a drained image persists nothing and still pays
// truncateTail's pread sweep of the unwritten journal, linear in MaxOps
// (ROADMAP item 2).
func BenchmarkBoot(b *testing.B) {
	for _, maxOps := range []int{1 << 17, 1 << 19} {
		cfg := Config{
			Mode: lpstore.ModeLP, Shards: 1, Capacity: 2 * stageKeys, MaxOps: maxOps, BatchK: 32,
			Streams: 1, Keys: stageKeys,
		}
		for _, kind := range []string{"fresh", "restored"} {
			b.Run(fmt.Sprintf("%s/maxops=%d", kind, maxOps), func(b *testing.B) {
				cfg.Path = filepath.Join(b.TempDir(), "kv.img")
				if kind == "restored" {
					s, err := New(cfg)
					if err != nil {
						b.Fatalf("New: %v", err)
					}
					if err := s.Close(); err != nil {
						b.Fatalf("Close: %v", err)
					}
				}
				persisted := int64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kind == "fresh" {
						b.StopTimer()
						os.Remove(cfg.Path)
						b.StartTimer()
					}
					cfg.Registry = obs.NewRegistry()
					s, err := New(cfg)
					if err != nil {
						b.Fatalf("New: %v", err)
					}
					b.StopTimer()
					if s.Restored() != (kind == "restored") {
						b.Fatalf("%s boot: Restored() = %v", kind, s.Restored())
					}
					persisted += cfg.Registry.Gauge("kvserve_boot_persisted_bytes").Load()
					s.Abort()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/boot")
				b.ReportMetric(float64(persisted)/float64(b.N), "persisted-B/boot")
			})
		}
	}
}

// TestGetSeesUnsealedPut pins the get contract as it stands: gets are
// read-uncommitted. A put applied but not sealed — not durable, not
// acked — is what the get path returns for its key, even though a crash
// erases it: the image restarted after Abort holds the old value, though
// the put's table store was in the file (recovery repairs it away).
func TestGetSeesUnsealedPut(t *testing.T) {
	s, sd := stageServer(t, 32, 1<<10)
	key := stageKey(sd, 0)
	old := sd.baseline[0][1] // stageKey(sd, 0) is baseline[0]'s key
	get := func(s *Server) uint64 {
		rb, hit, _ := s.appendGet(nil, 1, key)
		_, status, v := DecodeResp((*[RespSize]byte)(rb))
		if !hit || status != StatusOK {
			t.Fatalf("get %#x: status %d", key, status)
		}
		return v
	}

	s.apply(sd, []request{{seq: 1, key: key, val: old + 1, enq: time.Now(), cn: absorbConn()}})
	if len(sd.pending) != 1 || len(sd.commitCh) != 0 {
		t.Fatalf("the put sealed: %d pending, %d sealed", len(sd.pending), len(sd.commitCh))
	}
	if got := get(s); got != old+1 {
		t.Fatalf("get before the seal = %d, want the unsealed put's %d", got, old+1)
	}
	s.Abort()

	s, err := New(s.cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s.Close()
	if got := get(s); got != old {
		t.Fatalf("get after the crash = %d, want the preloaded %d", got, old)
	}
}
