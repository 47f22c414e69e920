package kvserve

import (
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// TestStaleSealFireIsIgnored: a seal clock's fire can outlive the batch
// it was armed for (seal never disarms it). Batch N arms the clock, the
// clock fires, and before the owner takes the token the batch fills to K
// and seals by count. The owner then opens batch N+1 with that token
// waiting on the channel: the fire must not seal N+1 before its own
// BatchWait has passed.
func TestStaleSealFireIsIgnored(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.BatchK = 4
	cfg.BatchWait = 20 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sd := s.shards[0]
	s.wgFlush.Add(1)
	go s.flusher(sd)
	cn := absorbConn()
	put := func(i int) request {
		return request{key: workloads.KVKey(9, i), val: 1, enq: time.Now(), cn: cn}
	}

	// Batch N: its first put opens it and the owner's first idle arms the
	// clock (done here by hand, as the owner does it).
	s.apply(sd, []request{put(0)})
	sd.clock.arm(time.Until(sd.deadline))
	sd.armed = true
	for t0 := time.Now(); len(sd.clock.C) == 0; time.Sleep(time.Millisecond) {
		if time.Since(t0) > 5*time.Second {
			t.Fatalf("the clock armed for %v has not fired after %v", cfg.BatchWait, time.Since(t0))
		}
	}
	s.apply(sd, []request{put(1), put(2), put(3)}) // fills to K: sealed by count
	if len(sd.pending) != 0 || len(sd.clock.C) != 1 {
		t.Fatalf("after the fill: %d puts pending, %d tokens on the clock; want 0 and 1 (stale)", len(sd.pending), len(sd.clock.C))
	}

	// Batch N+1, served by the owner with the stale token waiting.
	fill := s.stage[obs.StageFill]
	before := fill.Snapshot()
	s.wgOwners.Add(1)
	go s.owner(sd)
	sd.mb.push([]request{put(4)})
	for t0 := time.Now(); fill.Snapshot().Count == before.Count; time.Sleep(time.Millisecond) {
		if time.Since(t0) > 5*time.Second {
			t.Fatalf("batch N+1 not sealed after %v", time.Since(t0))
		}
	}
	if got := time.Duration(fill.Snapshot().Sum - before.Sum); got < cfg.BatchWait {
		t.Fatalf("batch N+1 sealed %v after it opened, before its BatchWait of %v: the stale fire sealed it", got, cfg.BatchWait)
	}
	sd.mb.close()
	s.wgOwners.Wait()
	s.wgFlush.Wait()
	if n, d := s.ctSeals[sealCount].Load(), s.ctSeals[sealDeadline].Load(); n != 1 || d != 1 {
		t.Fatalf("seals by count %d, by deadline %d; want 1 and 1", n, d)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
