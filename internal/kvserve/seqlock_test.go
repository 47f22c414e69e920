package kvserve

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// absorbConn returns a srvConn whose replies vanish (done closed, no
// socket): the white-box stand-in for a client that went away, used to
// drive owner/flusher paths without a network.
func absorbConn() *srvConn {
	cn := &srvConn{done: make(chan struct{})}
	close(cn.done)
	return cn
}

// TestSeqlockStress — the -race witness for the lock-free get path: 8
// reader goroutines hammer the real server get path (appendGet →
// Store.SeqGet) while the owner put path (apply → seal → flusher)
// mutates the same shard table with updates and inserts. Readers
// assert the seqlock's contract: a returned value is always a complete
// committed value for its key — either the preload value or a value
// the writer stored — never a torn half-insert (key visible, value
// still zero).
func TestSeqlockStress(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.MaxOps = 1 << 13
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sd := s.shards[0]
	s.wgFlush.Add(1)
	go s.flusher(sd)

	const (
		readers  = 8
		inserts  = 400 // distinct fresh keys the writer inserts
		putBatch = 64  // puts per writer iteration
	)
	preK := func(i int) uint64 { return workloads.KVKey(i%cfg.Streams, i%cfg.Keys) }
	insK := func(i int) uint64 { return workloads.KVKey(cfg.Streams+1, i%inserts) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 42))
			rb := make([]byte, 0, 4*RespSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var k uint64
				if rng.IntN(2) == 0 {
					k = preK(rng.IntN(cfg.Streams * cfg.Keys))
				} else {
					k = insK(rng.IntN(inserts))
				}
				var hit bool
				rb, hit, _ = s.appendGet(rb[:0], uint32(i), k)
				if !hit {
					continue
				}
				_, _, v := DecodeResp((*[RespSize]byte)(rb))
				if v != k && v != workloads.KVInitVal(1, k) {
					t.Errorf("reader %d: key %#x returned torn/foreign value %#x", r, k, v)
					return
				}
			}
		}(r)
	}

	// The writer drives the owner path directly (no owner goroutine:
	// the test IS the owner). Every value it stores equals its key, so
	// readers can recognize legal values without a shared log.
	cn := absorbConn()
	enq := time.Now()
	i := 0
	run := make([]request, putBatch)
	for sd.w.Seq()+putBatch+cfg.BatchK < sd.sh.MaxOps {
		for j := range run {
			var k uint64
			if i%4 == 3 {
				k = insK(i)
			} else {
				k = preK(i)
			}
			run[j] = request{seq: uint32(i), key: k, val: k, enq: enq, cn: cn}
			i++
		}
		s.apply(sd, run)
	}
	close(stop)
	wg.Wait()
	close(sd.commitCh)
	s.wgFlush.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.ctSeqRetries.Load(); got > 0 {
		t.Logf("seqlock retries observed: %d", got) // contention signal, not a failure
	}
}

// TestServeZeroAlloc pins the tentpole's allocation contract: the
// steady-state server paths — a get served inline by a connection
// reader, and a run of puts through the mailbox and apply/seal/flusher
// including its group commit — allocate nothing per operation. testing.AllocsPerRun counts
// process-global mallocs, so the concurrently running flusher is
// inside the measurement, not exempt from it.
func TestServeZeroAlloc(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sd := s.shards[0]
	s.wgFlush.Add(1)
	go s.flusher(sd)

	key := sd.baseline[0][0]
	rb := make([]byte, 0, 4*RespSize)
	gets := testing.AllocsPerRun(1000, func() {
		rb, _, _ = s.appendGet(rb[:0], 7, key)
	})
	if gets != 0 {
		t.Errorf("get path allocates %.1f times per op, want 0", gets)
	}

	cn := absorbConn()
	enq := time.Now()
	var seq uint32
	stage := make([]request, cfg.BatchK)
	var spare []request
	oneBatch := func() {
		// One full batch per run: BatchK updates staged, pushed through
		// the mailbox and taken as the owner would, the last of which
		// seals and hands the batch to the flusher.
		for j := range stage {
			seq++
			stage[j] = request{seq: seq, key: sd.baseline[j][0], val: uint64(seq), enq: enq, cn: cn}
		}
		sd.mb.push(stage)
		run, _ := sd.mb.take(spare)
		s.apply(sd, run)
		clear(run)
		spare = run
	}
	puts := testing.AllocsPerRun(50, oneBatch)
	if puts != 0 {
		t.Errorf("put path allocates %.1f times per batch of %d, want 0", puts, cfg.BatchK)
	}

	// Tracing armed but not firing must not change the contract: the
	// tracer is enabled and tail-sampling configured, but these
	// requests carry no trace ID, so every Record call (and its
	// argument construction) stays behind a tid==0 gate. This is the
	// configuration a production server runs in between sampled
	// requests — the ≤2% overhead budget starts at zero allocations.
	s.tr.Enable(true)
	s.cfg.TraceSample = 1 << 30
	armedGets := testing.AllocsPerRun(1000, func() {
		rb, _, _ = s.appendGet(rb[:0], 7, key)
	})
	if armedGets != 0 {
		t.Errorf("get path with tracer armed allocates %.1f times per op, want 0", armedGets)
	}
	armedPuts := testing.AllocsPerRun(50, oneBatch)
	if armedPuts != 0 {
		t.Errorf("put path with tracer armed allocates %.1f times per batch of %d, want 0", armedPuts, cfg.BatchK)
	}
	s.tr.Enable(false)

	close(sd.commitCh)
	s.wgFlush.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
