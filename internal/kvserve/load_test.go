package kvserve_test

// The tests here drive a server with the client engine, which lives
// in loadmodel and imports kvserve — so they sit in the external test
// package and use only kvserve's exported API.

import (
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

func testCfg(t *testing.T, mode lpstore.Mode) kvserve.Config {
	t.Helper()
	return kvserve.Config{
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

func startServer(t *testing.T, cfg kvserve.Config) *kvserve.Server {
	t.Helper()
	s, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

// insertLoad is ops unique-key inserts per connection against cfg's
// key geometry.
func insertLoad(cfg kvserve.Config, ops int) loadmodel.MixLoad {
	return loadmodel.MixLoad{InsertOnly: true, Ops: ops, Streams: cfg.Streams, Keys: cfg.Keys, Seed: cfg.Seed}
}

// TestServeDrainRestart: a loaded server that drains via Close leaves
// an image that reopens with zero repair; every acked put is present
// and servable after the restart.
func TestServeDrainRestart(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	s := startServer(t, cfg)

	var mu sync.Mutex
	acked := map[uint64]uint64{}
	rep, err := loadmodel.Run(s.Addr(), insertLoad(cfg, 400), loadmodel.Options{
		Conns: 3, Window: 16, MaxRetries: 8,
		OnAck: func(_ int, k, v uint64) { mu.Lock(); acked[k] = v; mu.Unlock() },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errors != 0 || rep.AckedPuts != 1200 {
		t.Fatalf("load: %d errors, %d acked, want 0/1200", rep.Errors, rep.AckedPuts)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain Close: %v", err)
	}

	s2, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !s2.Restored() {
		t.Fatal("reopen did not detect the image")
	}
	for _, st := range s2.RecoveryStats() {
		if !st.Verified {
			t.Fatalf("graceful drain required repair: %+v", st)
		}
	}
	contents := s2.Contents()
	preload := cfg.Streams * cfg.Keys
	if len(contents) != preload+len(acked) {
		t.Fatalf("recovered %d keys, want %d preload + %d acked", len(contents), preload, len(acked))
	}
	for k, v := range acked {
		if contents[k] != v {
			t.Fatalf("acked key %#x = %#x, want %#x", k, contents[k], v)
		}
	}
	if err := s2.VerifyRecovered(); err != nil {
		t.Fatalf("VerifyRecovered: %v", err)
	}
	// The restarted server serves the recovered data.
	if err := s2.Start(); err != nil {
		t.Fatalf("restart Start: %v", err)
	}
	cl, err := kvserve.Dial(s2.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for k, v := range acked {
		if got, st, _ := cl.Get(k); st != kvserve.StatusOK || got != v {
			t.Fatalf("restarted Get(%#x) = %#x,%s want %#x,ok", k, got, kvserve.StatusName(st), v)
		}
		break
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeAbortRecover: an in-process unclean stop mid-load. Every
// put acked before the abort must survive the restart's recovery, and
// the recovered image holds no values that were never written.
func TestServeAbortRecover(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	s := startServer(t, cfg)

	var mu sync.Mutex
	sent := map[uint64]uint64{}
	acked := map[uint64]uint64{}
	var ackedN atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		loadmodel.Run(s.Addr(), insertLoad(cfg, 100000), loadmodel.Options{
			Conns: 3, Window: 16, MaxRetries: 8,
			OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
			OnAck: func(_ int, k, v uint64) {
				mu.Lock()
				acked[k] = v
				mu.Unlock()
				ackedN.Add(1)
			},
		})
	}()
	deadline := time.Now().Add(15 * time.Second)
	for ackedN.Load() < 200 {
		if time.Now().After(deadline) {
			t.Fatal("load never reached 200 acked puts")
		}
		time.Sleep(time.Millisecond)
	}
	s.Abort()
	<-done

	s2, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	contents := s2.Contents()
	mu.Lock()
	defer mu.Unlock()
	for k, v := range acked {
		got, ok := contents[k]
		if !ok || got != v {
			t.Fatalf("acked key %#x = %#x,%v want %#x", k, got, ok, v)
		}
	}
	preload := map[uint64]uint64{}
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			preload[k] = workloads.KVInitVal(1, k)
		}
	}
	for k, v := range contents {
		if pv, ok := preload[k]; ok {
			if v != pv {
				t.Fatalf("preloaded key %#x corrupted: %#x != %#x", k, v, pv)
			}
			continue
		}
		if sv, ok := sent[k]; !ok || v != sv {
			t.Fatalf("key %#x holds %#x never written (sent %#x,%v)", k, v, sv, ok)
		}
	}
	if err := s2.VerifyRecovered(); err != nil {
		t.Fatalf("VerifyRecovered: %v", err)
	}
}

// promLine returns the first sample line of the scrape that starts
// with prefix (skipping # comments), or "".
func promLine(scrape, prefix string) string {
	for _, ln := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}

// TestServeMetricsAndTrace drives load at an LP server with the event
// tracer enabled and checks the wired instruments: batch commits
// counted, put-latency histogram populated, per-shard labelled series
// present in the Prometheus scrape, and the tracer holding commit and
// ack-advance events.
func TestServeMetricsAndTrace(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	s := startServer(t, cfg)
	s.Tracer().Enable(true)

	rep, err := loadmodel.Run(s.Addr(),
		loadmodel.MixLoad{Mix: "a", Ops: 400, Streams: cfg.Streams, Keys: cfg.Keys, Seed: cfg.Seed},
		loadmodel.Options{Conns: 2, Window: 16, MaxRetries: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.AckedPuts == 0 {
		t.Fatalf("no puts acked: %+v", rep)
	}

	var sb strings.Builder
	if err := s.Metrics().WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	scrape := sb.String()

	for _, want := range []string{
		`kvserve_batch_commits_total `,
		`kvserve_puts_total `,
		`kvserve_put_latency_seconds_bucket{`,
		`kvserve_put_latency_seconds_count{`,
		`kvserve_get_latency_seconds_bucket{`,
		`kvserve_seqlock_retries_total `,
		`kvserve_seqlock_retried_gets_total `,
		`kvserve_pipeline_inflight{shard="0"}`,
		`kvserve_batch_fill_sum{shard="0"}`,
		`kvserve_mailbox_high_water{shard="0"}`,
		`kvserve_mailbox_high_water{shard="1"}`,
		`kvserve_journal_capacity{shard="0"}`,
	} {
		if promLine(scrape, want) == "" {
			t.Errorf("scrape is missing a %q series", want)
		}
	}
	if ln := promLine(scrape, "kvserve_batch_commits_total "); strings.HasSuffix(ln, " 0") {
		t.Errorf("kvserve_batch_commits_total is zero: %q", ln)
	}
	if ln := promLine(scrape, `kvserve_put_latency_seconds_count{shard="0"}`); ln == "" || strings.HasSuffix(ln, " 0") {
		t.Errorf("put-latency histogram for shard 0 is empty: %q", ln)
	}
	if ln := promLine(scrape, `kvserve_get_latency_seconds_count `); ln == "" || strings.HasSuffix(ln, " 0") {
		t.Errorf("get-latency histogram is empty: %q", ln)
	}

	seen := map[obs.EventType]int{}
	for _, ev := range s.Tracer().Drain(0) {
		seen[ev.Type]++
	}
	if seen[obs.EvBatchCommit] == 0 || seen[obs.EvAckAdvance] == 0 {
		t.Errorf("tracer missing commit/ack events: %v", seen)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A restart over the drained image recovers every shard and must
	// record one recovery-duration sample per shard.
	s2, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer s2.Close()
	sb.Reset()
	if err := s2.Metrics().WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm after restart: %v", err)
	}
	for _, shard := range []string{"0", "1"} {
		ln := promLine(sb.String(), `kvserve_recovery_seconds_count{shard="`+shard+`"}`)
		if ln == "" || !strings.HasSuffix(ln, " 1") {
			t.Errorf("recovery histogram for shard %s not recorded: %q", shard, ln)
		}
	}
	for i, st := range s2.RecoveryStats() {
		if st.RecoverNs <= 0 {
			t.Errorf("shard %d recovery stats carry no wall-clock duration: %+v", i, st)
		}
	}
}
