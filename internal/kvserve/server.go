package kvserve

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/ep"
	"lazyp/internal/lp"
	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// Stats is a snapshot of the server's operation counters.
type Stats struct {
	Gets        uint64 `json:"gets"`
	GetMisses   uint64 `json:"get_misses"`
	Puts        uint64 `json:"puts"`
	AckedPuts   uint64 `json:"acked_puts"`
	Batches     uint64 `json:"batches"`
	Pads        uint64 `json:"pads"` // always 0 since ISSUE 24 (no pad records); kept for bench/, which reads it
	Overloads   uint64 `json:"overloads"`
	Expired     uint64 `json:"expired"` // always 0 (there is no queue deadline); kept for bench/, which reads it
	Full        uint64 `json:"full"`
	Moved       uint64 `json:"moved"`
	LeakedLines uint64 `json:"leaked_lines"` // always 0 (there is no write-back to leak through); kept for bench/, which reads it
}

// The histograms a client reads back from a scrape to calibrate the
// planner (loadmodel.Calibrate), all in seconds.
const (
	MetricStage      = "kvserve_stage_seconds"       // {stage=obs.Stage label}
	MetricApply      = "kvserve_apply_seconds"       // owner service time per put
	MetricGetLatency = "kvserve_get_latency_seconds" // read burst → its response written, per get
	MetricPutLatency = "kvserve_put_latency_seconds" // {shard}; read burst → ack queued, per put
)

// Server is one kvserve instance. Build with New (which performs
// preload or crash recovery), then Start to accept traffic, then
// Close to drain gracefully. Contents is only safe while no put is in
// flight and VerifyRecovered only before Start (after it, an error); both
// fail by name after Close/Abort, which unmap the image.
type Server struct {
	cfg      Config
	mem      *memsim.Memory
	pf       *pmemFile
	shards   []*shardState
	rec      *ep.Recompute
	wal      *ep.WAL
	restored bool
	rstats   []lpstore.RecoverStats

	ln       net.Listener
	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	wgConns  sync.WaitGroup
	wgOwners sync.WaitGroup
	wgFlush  sync.WaitGroup
	wgRepl   sync.WaitGroup
	started  bool
	draining atomic.Bool
	closed   atomic.Bool
	aborting atomic.Bool
	fileErr  atomic.Pointer[error]
	closeErr error

	reg *obs.Registry
	tr  *obs.Tracer
	// Server-wide counters (per-shard instruments live in shardObs).
	ctGets, ctGetMisses, ctPuts, ctAcked *obs.Counter
	ctBatches                            *obs.Counter
	ctSeals                              [numSealCauses]*obs.Counter // kvserve_seals_total{cause}
	ctClockArms                          *obs.Counter                // kvserve_seal_clock_arms_total
	sealLate                             *obs.Histogram              // kvserve_seal_lateness_seconds: deadline seal time − the batch's deadline
	ctCommitLines                        *obs.Counter                // kvserve_persisted_lines_total{path="commit"}: lines of the batches' durable write sets
	ctReleased                           *obs.Counter                // kvserve_journal_released_bytes_total: committed journal handed back to the kernel
	ctSeqRetries, ctSeqRetried           *obs.Counter                // spins in SeqGet, and gets that spun at all
	getLat                               *obs.Histogram
	// hWriteFrames observes response frames per socket write syscall —
	// the syscall-coalescing gauge of the vectored response path.
	hWriteFrames *obs.Histogram
	// Stage-latency attribution: MetricStage{stage=...}, one histogram
	// per obs.Stage the server sees: queue per put, fill and flush per
	// batch, repl per job. Always on (Observe is an atomic
	// bucket increment); the per-put cost is bounded by the clocks the
	// pipeline already reads. The other entries stay nil.
	stage [obs.NumStages]*obs.Histogram
	// applyLat is MetricApply: the owner's service time per put, booked
	// once per run.
	applyLat *obs.Histogram
	// Tail sampling: tidBase+tidCtr mint server-side trace IDs for
	// every cfg.TraceSample'th otherwise-untraced client put; slowNs is
	// cfg.TraceSlow in nanoseconds (0 = off).
	tidBase uint64
	tidCtr  atomic.Uint64
	slowNs  int64
}

// New builds the server state and binds it to the backing file: a
// fresh file is initialized with the preloaded dataset; an existing
// file is loaded and recovered (LP journal replay, WAL rollback)
// before New returns, so a returned server is always consistent.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, conns: make(map[*srvConn]struct{})}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.tr = cfg.Tracer
	if s.tr == nil {
		s.tr = obs.NewTracer(obs.DefaultTraceCap)
	}
	root := s.reg.Scope()
	s.ctGets = root.Counter("kvserve_gets_total")
	s.ctGetMisses = root.Counter("kvserve_get_misses_total")
	s.ctPuts = root.Counter("kvserve_puts_total")
	s.ctAcked = root.Counter("kvserve_acked_puts_total")
	s.ctBatches = root.Counter("kvserve_batch_commits_total")
	for c := range s.ctSeals {
		s.ctSeals[c] = root.With("cause", sealCause(c).String()).Counter("kvserve_seals_total")
	}
	s.ctClockArms = root.Counter("kvserve_seal_clock_arms_total")
	s.sealLate = root.HistogramScaled("kvserve_seal_lateness_seconds", 1e-9)
	s.ctCommitLines = root.With("path", "commit").Counter("kvserve_persisted_lines_total")
	s.ctReleased = root.Counter("kvserve_journal_released_bytes_total")
	s.ctSeqRetries = root.Counter("kvserve_seqlock_retries_total")
	s.ctSeqRetried = root.Counter("kvserve_seqlock_retried_gets_total")
	s.getLat = root.HistogramScaled(MetricGetLatency, 1e-9)
	s.hWriteFrames = root.Histogram("kvserve_writev_frames_per_syscall")
	for _, st := range []obs.Stage{obs.StageQueue, obs.StageFill, obs.StageFlush, obs.StageRepl} {
		s.stage[st] = root.With("stage", st.String()).HistogramScaled(MetricStage, 1e-9)
	}
	s.applyLat = root.HistogramScaled(MetricApply, 1e-9)
	// High bits wall-derived so IDs from distinct server incarnations
	// (and from clients, which mint small sequential IDs) don't collide.
	s.tidBase = uint64(time.Now().UnixNano()) << 20
	s.slowNs = cfg.TraceSlow.Nanoseconds()

	// The boot sequence (DESIGN §9): open → attach → layout →
	// format+preload+commit | recover. Open comes first, so every
	// later failure leaves through release.
	t0 := time.Now()
	cap2 := 1
	for cap2 < cfg.Capacity {
		cap2 <<= 1
	}
	perShardWords := 2*cap2 + 2*cfg.MaxOps + cfg.MaxOps/cfg.BatchK + 2
	size := (cfg.Shards*perShardWords*8 + (2 << 20) + memsim.LineMask) &^ memsim.LineMask
	pf, restored, err := openPmemFile(cfg.Path, cfg, size)
	if err != nil {
		return nil, err
	}
	s.pf, s.restored = pf, restored
	s.mem = memsim.NewMemoryOver(pf.img, pf.img)

	// The allocation order below is the layout contract with every
	// prior incarnation of this config: guard line, persistence
	// machinery, then shards in index order. The header check in
	// openPmemFile refuses files whose geometry differs, but a layout
	// change at equal geometry (e.g. reordering these calls) would
	// corrupt silently — don't. Layout only hands out addresses, over a
	// restored image as over a blank one; format, below, writes what a
	// blank image holds that is not zero, and is under the same contract:
	// a new non-zero initial value is a new file version.
	s.mem.Alloc("kvserve.guard", memsim.LineSize)
	switch cfg.Mode {
	case lpstore.ModeEP:
		s.rec = ep.LayoutRecompute(s.mem, "kvserve.ep", cfg.Shards)
		s.rec.Obs = ep.NewTally(root, "ep")
	case lpstore.ModeWAL:
		s.wal = ep.LayoutWAL(s.mem, "kvserve.wal", cfg.Shards, 2) // a put stores ≤2 words
		s.wal.Obs = ep.NewTally(root, "wal")
	}
	// Each shard's preload list is sized for its expected share plus four
	// standard deviations of the hash's spread, so it is allocated once:
	// grown by append, the lists left four times their size in garbage
	// (boot allocated 22.9 MB, not 5.4, at 262 144 keys over 4 shards) and
	// the process kept the heap it grew for it.
	base := make([][][2]uint64, cfg.Shards)
	per := cfg.Streams * cfg.Keys / cfg.Shards
	for si := range base {
		base[si] = make([][2]uint64, 0, per+4*int(math.Sqrt(float64(per)))+64)
	}
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			si := shardOf(k, cfg.Shards)
			base[si] = append(base[si], [2]uint64{k, workloads.KVInitVal(cfg.Seed, k)})
		}
	}
	for id := 0; id < cfg.Shards; id++ {
		name := fmt.Sprintf("kvserve.s%d", id)
		sd := &shardState{id: id, baseline: base[id], ctx: newFileCtx(s.mem, pf, id)}
		if cfg.Mode == lpstore.ModeLP {
			if sd.clock, err = newSealClock(); err != nil {
				s.release()
				return nil, err
			}
			sd.sh = lpstore.LayoutShardLP(s.mem, name, id, cfg.Capacity, cfg.MaxOps, cfg.BatchK, batchKind)
			sd.w = sd.sh.NewLPWriter()
			sd.released = (sd.sh.Jrn.Base + memsim.Addr(pageSize-1)) &^ memsim.Addr(pageSize-1)
			sd.commitCh = make(chan *commitItem, cfg.PipelineDepth)
			sd.freeCh = make(chan *commitItem, cfg.PipelineDepth)
			for i := 0; i < cfg.PipelineDepth; i++ {
				sd.freeCh <- &commitItem{pending: make([]request, 0, cfg.BatchK)}
			}
			if cfg.Repl != nil {
				sd.replq = newRunQueue[replJob](math.MaxInt, cfg.PipelineDepth) // unbounded: see shardState.replq
				sd.repKeys = make([]uint64, 0, cfg.BatchK)
				sd.repVals = make([]uint64, 0, cfg.BatchK)
				sd.repTids = make([]uint64, 0, cfg.BatchK)
				sd.repIn = make([]uint16, cfg.BatchK)
			}
		} else {
			sd.sh = lpstore.NewShard(s.mem, name, id, cfg.Capacity)
			switch cfg.Mode {
			case lpstore.ModeBase:
				sd.w = sd.sh.NewWriter(lpstore.ModeBase, lp.Base{}.Thread(id))
			case lpstore.ModeEP:
				sd.w = sd.sh.NewWriter(lpstore.ModeEP, s.rec.Thread(id))
			case lpstore.ModeWAL:
				sd.w = sd.sh.NewWriter(lpstore.ModeWAL, s.wal.Thread(id))
			}
		}
		// Every mode mutates the table through fileCtx's atomic stores,
		// so every mode can serve gets lock-free under the seqlock.
		sd.sh.Tab.EnableSeqlock()
		sd.highWater = sd.sh.Tab.Cap() - sd.sh.Tab.Cap()/8
		sd.mb = newRunQueue[request](cfg.Mailbox, cfg.Mailbox)
		sc := s.reg.Scope("shard", strconv.Itoa(id))
		sd.obs = newShardObs(sc)
		sd.sh.Obs = lpstore.NewMetrics(sc, s.tr)
		if cfg.Mode == lpstore.ModeLP {
			sd.obs.jrnCap.Set(int64(cfg.MaxOps))
		}
		s.shards = append(s.shards, sd)
	}

	var persisted int // bytes this boot stored into the image
	if restored {
		// The mapped file is what survived, and recovery runs on it.
		persisted, err = s.recoverAll()
	} else {
		// Nothing but format is written: the rest of a blank image is
		// zero because it has not been touched.
		persisted = s.format()
		err = pf.commit(headerBytes(cfg, size))
	}
	if err != nil {
		s.release()
		return nil, err
	}
	for _, sd := range s.shards {
		sd.occupied = sd.sh.Tab.Occupied(s.mem)
	}
	// The boot's record: its kind, its time, and its cost against the
	// image's geometry.
	kind, kindArg := "fresh", uint64(0)
	if restored {
		kind, kindArg = "restored", 1
	}
	root.With("kind", kind).HistogramScaled("kvserve_boot_seconds", 1e-9).Observe(uint64(time.Since(t0)))
	root.Gauge("kvserve_image_bytes").Set(int64(size))
	root.Gauge("kvserve_boot_persisted_bytes").Set(int64(persisted))
	s.trace(obs.EvBoot, -1, kindArg, uint64(persisted))
	return s, nil
}

// format writes a blank image's only non-zero contents — progress
// markers and ack slots at their never-written sentinels, then the
// preload — and returns the bytes it persisted.
func (s *Server) format() (persisted int) {
	switch s.cfg.Mode {
	case lpstore.ModeEP:
		persisted = s.rec.Markers.Format(s.mem)
	case lpstore.ModeWAL:
		persisted = s.wal.Status.Format(s.mem)
	}
	for _, sd := range s.shards {
		if sd.sh.Ack != nil {
			persisted += sd.sh.Ack.Format(s.mem)
		}
		persisted += sd.sh.Preload(s.mem, len(sd.baseline), sd.basePair)
	}
	return persisted
}

// recoverAll runs each mode's restart recovery over the mapped image and
// returns the bytes it stored: under LP, 16 per repaired slot and 8 per
// zeroed journal word.
func (s *Server) recoverAll() (persisted int, err error) {
	switch s.cfg.Mode {
	case lpstore.ModeLP:
		for _, sd := range s.shards {
			t0 := time.Now()
			st := sd.sh.RecoverLP(sd.ctx, len(sd.baseline), sd.basePair)
			if err := sd.ctx.takeErr(); err != nil {
				return 0, fmt.Errorf("kvserve: shard %d repair: %w", sd.id, err)
			}
			zeroed, err := s.truncateTail(sd, st)
			if err != nil {
				return 0, fmt.Errorf("kvserve: shard %d tail truncation: %w", sd.id, err)
			}
			persisted += 16*st.Repaired + 8*zeroed
			sd.w.ResumeAt(sd.ctx, st.AckedPuts)
			st.RecoverNs = time.Since(t0).Nanoseconds()
			sd.obs.recovery.Observe(uint64(st.RecoverNs))
			sd.obs.jrnUsed.Set(int64(sd.w.Seq()))
			s.rstats = append(s.rstats, st)
		}
	case lpstore.ModeWAL:
		for _, sd := range s.shards {
			// Roll back the at-most-one in-flight transaction.
			s.wal.WALRecover(sd.ctx, sd.id)
			if err := sd.ctx.takeErr(); err != nil {
				return 0, fmt.Errorf("kvserve: shard %d WAL rollback: %w", sd.id, err)
			}
		}
	case lpstore.ModeEP, lpstore.ModeBase:
		// EP persists each put before acking and a slot's key+value
		// share a line, so the image is consistent as it is. Base makes
		// no durability claim.
	}
	return persisted, nil
}

// truncateTail zeroes the journal beyond the acknowledged prefix — which
// may end inside a window — invalidates the ack slots of the windows
// beyond it, and returns the journal words it zeroed. The unacked tail is
// garbage from the previous incarnation (records of a batch whose
// checksum never followed), and recovery measures a window by its leading
// non-zero keys: a stale record behind the resumed writer's next short
// seal must never count. The sweep covers the whole tail, past any zero
// record, so a hole in it hides nothing; it preads the file (eachNonZero)
// and stores only over non-zero words, so a restart faults in no page of
// a journal nobody wrote. A crash in here is harmless: the slots up to
// the prefix are untouched, so the next recovery acknowledges the same
// prefix and truncates again.
func (s *Server) truncateTail(sd *shardState, st lpstore.RecoverStats) (zeroed int, err error) {
	c, sh := sd.ctx, sd.sh
	from, to := int(sh.Jrn.Base)+16*st.AckedPuts, int(sh.Jrn.Base)+16*sh.MaxOps // a record is two words
	if err := s.pf.eachNonZero(from, to, func(off int) {
		c.Store64(memsim.Addr(off), 0)
		zeroed++
	}); err != nil {
		return zeroed, err
	}
	for b := st.AckedBatches; b < sh.Ack.Slots(); b++ {
		if sh.Ack.Written(c, b) {
			sh.Ack.Invalidate(c, b) // store+flush+fence: fsynced if priced
		}
	}
	c.Fence()
	return zeroed, c.takeErr()
}

// Start binds the listener and launches the shard owners, the commit
// flushers and replication completers (LP), and the accept loop.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = true
	for _, sd := range s.shards {
		if sd.commitCh != nil {
			s.wgFlush.Add(1)
			go s.flusher(sd)
		}
		if sd.replq != nil {
			s.wgRepl.Add(1)
			go s.replWaiter(sd)
		}
		s.wgOwners.Add(1)
		go s.owner(sd)
	}
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Restored reports whether New opened an existing backing file.
func (s *Server) Restored() bool { return s.restored }

// RecoveryStats returns the per-shard LP recovery statistics from a
// restored boot (nil on a fresh boot or under other modes).
func (s *Server) RecoveryStats() []lpstore.RecoverStats { return s.rstats }

// Stats snapshots the operation counters. The counters live in the
// server's registry; rejects are kept per shard there, so the snapshot
// sums them back into the flat legacy shape.
func (s *Server) Stats() Stats {
	st := Stats{
		Gets: s.ctGets.Load(), GetMisses: s.ctGetMisses.Load(),
		Puts: s.ctPuts.Load(), AckedPuts: s.ctAcked.Load(),
		Batches: s.ctBatches.Load(),
	}
	for _, sd := range s.shards {
		st.Overloads += sd.obs.rejOver.Load()
		st.Full += sd.obs.rejFull.Load()
		st.Moved += sd.obs.rejMoved.Load()
	}
	return st
}

// Metrics returns the server's registry (the one from Config.Registry,
// or the private one New created). Scrape it with obs.MetricsHandler.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Tracer returns the server's event tracer. It is disabled until some
// caller enables it; lpserve does so when -trace is set.
func (s *Server) Tracer() *obs.Tracer { return s.tr }

// trace emits one service event with a wall-clock timestamp. The
// Enabled gate keeps the time.Now off the hot path in the steady
// (disabled) state.
func (s *Server) trace(typ obs.EventType, src int32, a, b uint64) {
	if s.tr.Enabled() {
		s.tr.Record(typ, src, time.Now().UnixNano(), a, b)
	}
}

// Contents merges every shard's architectural contents. Only safe while
// no put is in flight (before Start, or with every put sent answered): it
// reads the image, which Close/Abort unmap — after them it panics.
func (s *Server) Contents() map[uint64]uint64 {
	if s.closed.Load() {
		panic("kvserve: Contents after Close or Abort: the image is unmapped")
	}
	out := make(map[uint64]uint64)
	for _, sd := range s.shards {
		for k, v := range sd.sh.Tab.Contents(s.mem) {
			out[k] = v
		}
	}
	return out
}

// VerifyRecovered runs a second LP recovery pass over every shard and
// reports an error unless each verifies cleanly — the idempotence
// check a restarted operator runs before trusting the image. A no-op
// under the other modes. Only between New and Start: once Start has run,
// the owners write the journal under it, so it is an error; after
// Close/Abort, which unmap the image, it is one too.
func (s *Server) VerifyRecovered() error {
	if s.closed.Load() {
		return fmt.Errorf("kvserve: VerifyRecovered after Close or Abort: the image is unmapped")
	}
	if s.started {
		return fmt.Errorf("kvserve: VerifyRecovered after Start: the journal is live")
	}
	if s.cfg.Mode != lpstore.ModeLP {
		return nil
	}
	for _, sd := range s.shards {
		st := sd.sh.RecoverLP(sd.ctx, len(sd.baseline), sd.basePair)
		if err := sd.ctx.takeErr(); err != nil {
			return err
		}
		if !st.Verified {
			return fmt.Errorf("kvserve: shard %d failed re-verification: %+v", sd.id, st)
		}
	}
	return nil
}

// Close drains gracefully: stop accepting, tear down connections,
// let owners empty their mailboxes and seal open batches,
// drain the commit pipelines, and sync the file. Idempotent.
func (s *Server) Close() error { return s.shutdown(false) }

// Abort tears the server down without sealing open LP batches or
// syncing — the closest an in-process caller gets to an unclean death
// (the real one is SIGKILL; see the crash test). Batches already
// sealed are in the file, as their checksums are; the flushers still
// ack them.
func (s *Server) Abort() error { return s.shutdown(true) }

func (s *Server) shutdown(abort bool) error {
	if !s.closed.CompareAndSwap(false, true) {
		return s.closeErr
	}
	if abort {
		s.aborting.Store(true)
	}
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for cn := range s.conns {
		cn.stop()
	}
	s.mu.Unlock()
	s.wgConns.Wait()
	if s.started {
		for _, sd := range s.shards {
			sd.mb.close()
		}
		// Owners seal their final batch and close their commitCh on
		// the way out; flushers exit once the pipeline drains.
		s.wgOwners.Wait()
		s.wgFlush.Wait()
		for _, sd := range s.shards {
			if sd.replq != nil {
				sd.replq.close()
			}
		}
		s.wgRepl.Wait()
	}
	var err error
	if ep := s.fileErr.Load(); ep != nil {
		err = *ep
	}
	for _, sd := range s.shards {
		if e := sd.ctx.takeErr(); e != nil && err == nil {
			err = e
		}
	}
	if !abort && err == nil {
		err = s.pf.sync()
	}
	if cerr := s.release(); err == nil {
		err = cerr
	}
	s.closeErr = err
	return err
}

// release closes the shards' seal clocks (their owners have exited, or
// never ran), detaches the Memory from the image, then unmaps it and
// closes the file — the one exit of whoever opened it, New's failures
// included. The order matters: an access that arrives after Close/Abort
// must find an empty image and panic like any Go out-of-range access, not
// fault on unmapped pages.
func (s *Server) release() error {
	for _, sd := range s.shards {
		if sd.clock != nil {
			sd.clock.close()
		}
	}
	s.mem.Detach()
	return s.pf.close()
}
