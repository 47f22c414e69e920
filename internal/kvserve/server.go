package kvserve

import (
	"bufio"
	"fmt"
	"io"
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

// request is one decoded put frame routed to a shard owner. (Gets never
// become requests: the connection reader serves them lock-free off the
// shard table; see connReader.)
type request struct {
	seq      uint32
	key, val uint64
	enq      time.Time
	cn       *srvConn
	// rb, when non-nil, makes this request one member of an OpReplBatch
	// run: replies aggregate into rb instead of answering the wire, the
	// run's single response goes out when the last member settles, and
	// the put is never re-forwarded.
	rb *replBatch
	// sealHint marks the last member a run routed to this shard: the
	// run is already an amortized batch (the primary's group commit),
	// so the owner seals at the run boundary instead of holding the
	// follower's copy for the BatchWait deadline — replication adds a
	// network hop, not a second batching delay. Advisory: the owner
	// ignores it while more work is queued (back-to-back runs coalesce
	// into fuller batches), and the deadline stays as the safety net.
	sealHint bool
	// rtok is the replication token from Replicator.ForwardBatch (0 =
	// no forward in flight); the flusher waits on it after the local
	// write set is durable and before acking the client. Puts of one
	// batch forwarded to the same peer share a token.
	rtok uint64
	// tid is the request's trace ID (0 = untraced): client-minted via
	// the OpTraceCtx wire extension, server-minted by TraceSample, or
	// carried over an OpReplBatch trace entry from the forwarding
	// primary. A nonzero tid makes every pipeline stage record a span
	// event; the field travels by value, so tracing never allocates.
	tid uint64
}

// reply answers the request: directly on the wire, or — for an
// OpReplBatch member — into the run's aggregate, which acks once when
// its last member settles. Every reply site must go through here.
func (r *request) reply(status byte, val uint64) {
	if r.rb != nil {
		r.rb.reply(status)
		return
	}
	r.cn.reply(r.seq, status, val)
}

// replBatch aggregates one OpReplBatch run's member outcomes into the
// single response the forwarding primary waits on. Members may settle
// from different shards' flushers concurrently; the worst status wins
// (the codes order by severity: OK < ... < Overload < Expired < Full <
// BadRequest < Shutdown), so the primary retries or degrades the whole
// run on any member failure — safe, because replicated puts are
// idempotent re-applications of values the primary already journaled.
type replBatch struct {
	cn        *srvConn
	seq       uint32
	remaining atomic.Int32
	worst     atomic.Uint32
}

func (b *replBatch) reply(status byte) {
	for {
		cur := b.worst.Load()
		if uint32(status) <= cur || b.worst.CompareAndSwap(cur, uint32(status)) {
			break
		}
	}
	if b.remaining.Add(-1) == 0 {
		b.cn.reply(b.seq, byte(b.worst.Load()), 0)
	}
}

// srvConn is the server side of one client connection. Two goroutines
// serve it: a reader that decodes frames, answers gets/pings/rejects
// inline into a batched response buffer, and hands puts to shard
// mailboxes in runs; and a writer that drains acks (put acks arriving
// from shard flushers). Owners and flushers never write the socket
// themselves — reply pushes the encoded frame onto acks, which pokes the
// writer; a dead connection (done closed) absorbs replies.
//
// Socket writes are serialized by smu, separate from the queue's lock so
// a reply never waits out a syscall in flight. The reader's drain point
// steals the queued acks and hands them to the kernel *together with* its
// own inline-response batch as one writev — acks and get responses that
// accumulated while the client's window was in flight leave in a
// single syscall (see flushResponses).
type srvConn struct {
	c      net.Conn
	acks   *runQueue[byte] // encoded response frames queued by owners/flushers
	stolen []byte          // the reader's spare: what its last drain point stole
	smu    sync.Mutex      // serializes socket writes
	done   chan struct{}
	once   sync.Once
	// iovArr backs the drain point's two-element writev gather
	// (acks + inline batch); touched only under smu.
	iovArr [2][]byte
}

func newSrvConn(c net.Conn) *srvConn {
	return &srvConn{c: c, acks: newRunQueue[byte](math.MaxInt, 256*RespSize), done: make(chan struct{})}
}

func (cn *srvConn) reply(seq uint32, status byte, val uint64) {
	var f [RespSize]byte
	cn.pushAcks(AppendResp(f[:0], seq, status, val))
}

// pushAcks queues a run of encoded response frames for the writer under
// one lock and one poke, so they leave in one write.
func (cn *srvConn) pushAcks(frames []byte) {
	select {
	case <-cn.done:
	default:
		cn.acks.push(frames)
	}
}

func (cn *srvConn) stop() {
	cn.once.Do(func() {
		close(cn.done)
		cn.c.Close()
	})
}

// leakDepth is the write-back queue's capacity in lines: deep enough
// that a burst of puts leaks rather than drops, small enough (288 KiB of
// snapshots) not to matter. A full queue drops; see leak.
const leakDepth = 4096

// lineSnap is one leaked line: a snapshot its owner took, persisted
// later by the write-back goroutine.
type lineSnap struct {
	la  memsim.Addr
	buf [memsim.LineSize]byte
}

// commitItem is one sealed LP batch in flight through a shard's commit
// pipeline: the batch's durable write set captured as line snapshots at
// seal time, plus the client puts to ack once the set (and fsync, if
// priced) completes. Items cycle through a fixed ring (freeCh ⇄
// commitCh), so the steady-state commit path never allocates.
//
// The snapshots are taken by the owner, not read later by the flusher:
// the lp.Table ack slots are dense, so batch N's checksum line is also
// batch N+1..N+3's, and by the time the flusher ran, the owner might
// have stored the next batch's checksum into the very line whose write
// would acknowledge this one. Sealing freezes the bytes instead; the
// per-shard flusher writes items in FIFO order, so the file image of a
// shared line only ever moves forward.
type commitItem struct {
	batch   int       // batch index (trace)
	seq     int       // journal put seq after this batch (trace)
	sealed  time.Time // commit latency epoch
	pending []request
	lines   []memsim.Addr
	bufs    [][memsim.LineSize]byte
}

// replJob is one flushed batch's reply work, handed from the flusher
// to the shard's replication completer: the batch's tokened puts, to be
// acked (or failed) once their follower tokens resolve.
type replJob struct {
	pending []request
	err     error
	flushed time.Time // local write set durable (repl stage epoch)
}

// shardState is one shard's server-side state. The owner goroutine is
// the sole mutator once the server starts; the flusher goroutine only
// touches the commitItem handed to it.
type shardState struct {
	id        int
	sh        *lpstore.Shard
	w         *lpstore.Writer
	ctx       *fileCtx
	mb        *runQueue[request] // mailbox: limit Config.Mailbox, counted in requests
	pending   []request          // LP: puts awaiting their batch's seal
	deadline  time.Time          // LP: when the open batch force-seals
	openAt    time.Time          // LP: when the open batch's first put arrived (fill stage epoch)
	occupied  int                // architectural slot occupancy (watermark)
	highWater int
	baseline  [][2]uint64 // preloaded pairs, recovery's replay base

	// commitCh/freeCh form the LP commit pipeline: the owner seals a
	// batch into a free item and hands it to the flusher, then keeps
	// filling the next batch while the file write (and fsync) of the
	// previous one is in flight. Ring depth = Config.PipelineDepth; a
	// drained freeCh blocks the owner — commit backpressure. Nil under
	// EP/WAL/Base, whose durability points are synchronous by nature.
	commitCh chan *commitItem
	freeCh   chan *commitItem

	// replq (clustered LP only) decouples the replication ack rule
	// from the flush path: the flusher hands each batch's client acks
	// to a per-shard completion goroutine that waits out the follower
	// tokens and only then replies. The flusher itself must never
	// block on a remote ack — even transitively through this handoff,
	// which is why it is an unbounded queue (next paragraph): the
	// peer's replicated puts flow through this shard's own pipeline,
	// so two nodes forwarding to each other with flushers that could
	// block anywhere on remote progress would deadlock cluster-wide.
	//
	// The queue is the flusher→replWaiter handoff: an unbounded FIFO the
	// flusher pushes flushed batches' tokened acks into without ever
	// blocking. Unboundedness is a deadlock invariant, not a convenience:
	// a bounded handoff would park the flusher once the waiter lagged by
	// its capacity, and a parked flusher stops replying the *peer's*
	// token-free replicated puts — two nodes forwarding to each other
	// would wedge permanently, each waiter stuck on acks only the other
	// node's parked flusher could produce. Memory stays bounded anyway:
	// every queued put holds a replication-window slot until waited, so
	// the queue never holds more than Window tokens per peer.
	replq *runQueue[replJob]

	// repKeys/repVals/repTids/repToks are the owner's seal-time
	// ForwardBatch scratch (clustered LP only): the sealed batch's
	// client puts as parallel slices, cap BatchK, reused every seal.
	repKeys, repVals, repTids, repToks []uint64

	// tabLo/tabHi bound the table's line addresses: only table lines
	// may leak through the write-back queue (a stale journal-line
	// snapshot could clobber a later group commit's file write; table
	// lines have a single writer — the leaker — so FIFO order keeps
	// the file monotone).
	tabLo, tabHi memsim.Addr
	leakRun      []lineSnap // leak's scratch: one run's snapshots, reused
	ackRun       []byte     // the flusher's scratch: one connection's acks

	obs shardObs
}

// shardObs is one shard's registry instruments, resolved once in New
// under the shard label and updated lock-free thereafter.
type shardObs struct {
	mbDepth      *obs.Gauge     // kvserve_mailbox_depth
	mbHigh       *obs.Gauge     // kvserve_mailbox_high_water
	jrnUsed      *obs.Gauge     // kvserve_journal_used (LP: puts journaled)
	jrnCap       *obs.Gauge     // kvserve_journal_capacity (LP: MaxOps)
	pipeInflight *obs.Gauge     // kvserve_pipeline_inflight: sealed, unflushed batches
	batchFill    *obs.Histogram // kvserve_batch_fill: client puts acked per committed batch
	putLat       *obs.Histogram // kvserve_put_latency_seconds: enqueue → ack, end to end
	recovery     *obs.Histogram // kvserve_recovery_seconds: restart recovery per shard
	rejOver      *obs.Counter   // kvserve_rejects_total{cause="overload"}
	rejExp       *obs.Counter   // kvserve_rejects_total{cause="expired"}
	rejFull      *obs.Counter   // kvserve_rejects_total{cause="full"}
	rejMoved     *obs.Counter   // kvserve_rejects_total{cause="moved"}
}

func newShardObs(sc obs.Scope) shardObs {
	rej := func(cause string) *obs.Counter {
		return sc.With("cause", cause).Counter("kvserve_rejects_total")
	}
	return shardObs{
		mbDepth:      sc.Gauge("kvserve_mailbox_depth"),
		mbHigh:       sc.Gauge("kvserve_mailbox_high_water"),
		jrnUsed:      sc.Gauge("kvserve_journal_used"),
		jrnCap:       sc.Gauge("kvserve_journal_capacity"),
		pipeInflight: sc.Gauge("kvserve_pipeline_inflight"),
		batchFill:    sc.Histogram("kvserve_batch_fill"),
		putLat:       sc.HistogramScaled("kvserve_put_latency_seconds", 1e-9),
		recovery:     sc.HistogramScaled("kvserve_recovery_seconds", 1e-9),
		rejOver:      rej("overload"),
		rejExp:       rej("expired"),
		rejFull:      rej("full"),
		rejMoved:     rej("moved"),
	}
}

func (sd *shardState) basePair(i int) (uint64, uint64) {
	return sd.baseline[i][0], sd.baseline[i][1]
}

// Stats is a snapshot of the server's operation counters.
type Stats struct {
	Gets        uint64 `json:"gets"`
	GetMisses   uint64 `json:"get_misses"`
	Puts        uint64 `json:"puts"`
	AckedPuts   uint64 `json:"acked_puts"`
	Batches     uint64 `json:"batches"`
	Pads        uint64 `json:"pads"`
	Overloads   uint64 `json:"overloads"`
	Expired     uint64 `json:"expired"`
	Full        uint64 `json:"full"`
	Moved       uint64 `json:"moved"`
	LeakedLines uint64 `json:"leaked_lines"`
	LeakDropped uint64 `json:"leak_dropped"`
}

// Server is one kvserve instance. Build with New (which performs
// preload or crash recovery), then Start to accept traffic, then
// Close to drain gracefully. Contents is only safe before Start or
// after Close/Abort returns; VerifyRecovered only before Start.
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
	wgLeak   sync.WaitGroup
	leakq    *runQueue[lineSnap] // limit leakDepth
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
	ctBatches, ctPads                    *obs.Counter
	ctLeaked, ctDropped                  *obs.Counter
	ctSeqRetries                         *obs.Counter
	getLat                               *obs.Histogram
	// hWriteFrames observes response frames per socket write syscall —
	// the syscall-coalescing gauge of the vectored response path.
	hWriteFrames *obs.Histogram
	// Stage-latency attribution: kvserve_stage_seconds{stage=...}, one
	// histogram per pipeline stage a put crosses. Always on (Observe is
	// an atomic bucket increment); the per-put cost is bounded by the
	// clocks the pipeline already reads.
	stQueue *obs.Histogram // mailbox enqueue → owner dequeue
	stFill  *obs.Histogram // batch open → seal (per batch)
	stFlush *obs.Histogram // seal → write set durable (per batch)
	stRepl  *obs.Histogram // local durable → follower tokens resolved (per job)
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
		s.tr = obs.NewTracer(cfg.TraceCap)
	}
	root := s.reg.Scope()
	s.ctGets = root.Counter("kvserve_gets_total")
	s.ctGetMisses = root.Counter("kvserve_get_misses_total")
	s.ctPuts = root.Counter("kvserve_puts_total")
	s.ctAcked = root.Counter("kvserve_acked_puts_total")
	s.ctBatches = root.Counter("kvserve_batch_commits_total")
	s.ctPads = root.Counter("kvserve_pads_total")
	s.ctLeaked = root.Counter("kvserve_leaked_lines_total")
	s.ctDropped = root.Counter("kvserve_leak_dropped_total")
	s.ctSeqRetries = root.Counter("kvserve_seqlock_retries_total")
	s.getLat = root.HistogramScaled("kvserve_get_latency_seconds", 1e-9)
	s.hWriteFrames = root.Histogram("kvserve_writev_frames_per_syscall")
	stage := func(name string) *obs.Histogram {
		return root.With("stage", name).HistogramScaled("kvserve_stage_seconds", 1e-9)
	}
	s.stQueue = stage("queue")
	s.stFill = stage("fill")
	s.stFlush = stage("flush")
	s.stRepl = stage("repl")
	// High bits wall-derived so IDs from distinct server incarnations
	// (and from clients, which mint small sequential IDs) don't collide.
	s.tidBase = uint64(time.Now().UnixNano()) << 20
	s.slowNs = cfg.TraceSlow.Nanoseconds()

	// The allocation order below is the layout contract with every
	// prior incarnation of this config: guard line, persistence
	// machinery, then shards in index order. The header check in
	// openPmemFile refuses files whose geometry differs, but a layout
	// change at equal geometry (e.g. reordering these calls) would
	// corrupt silently — don't.
	cap2 := 1
	for cap2 < cfg.Capacity {
		cap2 <<= 1
	}
	perShardWords := 2*cap2 + 2*cfg.MaxOps + cfg.MaxOps/cfg.BatchK + 2
	s.mem = memsim.NewMemory(cfg.Shards*perShardWords*8 + (2 << 20))
	s.mem.Alloc("kvserve.guard", memsim.LineSize)
	switch cfg.Mode {
	case lpstore.ModeEP:
		s.rec = ep.NewRecompute(s.mem, "kvserve.ep", cfg.Shards)
		s.rec.Obs = ep.NewTally(root, "ep")
	case lpstore.ModeWAL:
		s.wal = ep.NewWAL(s.mem, "kvserve.wal", cfg.Shards, 2) // a put stores ≤2 words
		s.wal.Obs = ep.NewTally(root, "wal")
	}
	base := make([][][2]uint64, cfg.Shards)
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			si := shardOf(k, cfg.Shards)
			base[si] = append(base[si], [2]uint64{k, workloads.KVInitVal(cfg.Seed, k)})
		}
	}
	// A batch's durable write set: the journal lines its 2*BatchK words
	// span (one extra when the window straddles a line boundary), plus
	// the checksum line. Sizes the commitItem snapshot buffers.
	maxBatchLines := (2*cfg.BatchK*8+memsim.LineSize-1)/memsim.LineSize + 2
	for id := 0; id < cfg.Shards; id++ {
		name := fmt.Sprintf("kvserve.s%d", id)
		sd := &shardState{id: id, baseline: base[id]}
		if cfg.Mode == lpstore.ModeLP {
			sd.sh = lpstore.NewShardLP(s.mem, name, id, cfg.Capacity, cfg.MaxOps, cfg.BatchK, cfg.Kind)
			sd.w = sd.sh.NewLPWriter()
			sd.commitCh = make(chan *commitItem, cfg.PipelineDepth)
			sd.freeCh = make(chan *commitItem, cfg.PipelineDepth)
			for i := 0; i < cfg.PipelineDepth; i++ {
				sd.freeCh <- &commitItem{
					pending: make([]request, 0, cfg.BatchK),
					lines:   make([]memsim.Addr, 0, maxBatchLines),
					bufs:    make([][memsim.LineSize]byte, maxBatchLines),
				}
			}
			if cfg.Repl != nil {
				sd.replq = newRunQueue[replJob](math.MaxInt, cfg.PipelineDepth) // unbounded: see shardState.replq
				sd.repKeys = make([]uint64, 0, cfg.BatchK)
				sd.repVals = make([]uint64, 0, cfg.BatchK)
				sd.repTids = make([]uint64, 0, cfg.BatchK)
				sd.repToks = make([]uint64, cfg.BatchK)
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
		sd.tabLo = memsim.LineOf(sd.sh.Tab.KeyAddr(0))
		sd.tabHi = memsim.LineOf(sd.sh.Tab.ValAddr(sd.sh.Tab.Cap() - 1))
		sd.mb = newRunQueue[request](cfg.Mailbox, cfg.Mailbox)
		sc := s.reg.Scope("shard", strconv.Itoa(id))
		sd.obs = newShardObs(sc)
		sd.sh.Obs = lpstore.NewMetrics(sc, s.tr)
		if cfg.Mode == lpstore.ModeLP {
			sd.obs.jrnCap.Set(int64(cfg.MaxOps))
		}
		s.shards = append(s.shards, sd)
	}

	// Only now does the file become the Memory's durable image: the
	// constructors above format what they allocate (Fill → Persist), and
	// through an attached mapping that would clobber a restored file.
	pf, restored, err := openPmemFile(cfg.Path, cfg, s.mem.Size())
	if err != nil {
		return nil, err
	}
	s.mem.AttachDurable(pf.img)
	s.pf = pf
	s.restored = restored
	s.leakq = newRunQueue[lineSnap](leakDepth, leakDepth)
	for _, sd := range s.shards {
		sd.ctx = newFileCtx(s.mem, pf, sd.id)
	}

	if restored {
		// Loading the file is the simulator's crash: the heap image
		// becomes what survived, RAM == NVMM, and recovery runs on that.
		s.mem.Crash()
		err = s.recoverAll()
	} else {
		// The blank file takes the constructors' format in one sweep;
		// Preload then persists what it inserts itself (both images, its
		// contract). The sweep comes first because first-touching the
		// mapping table by table and sweeping afterwards boots ~12%
		// slower on a small image (36 MB: 118 vs 104 ms).
		s.mem.Persist(0, s.mem.Size())
		for _, sd := range s.shards {
			sd.sh.Preload(s.mem, len(sd.baseline), sd.basePair)
		}
		err = pf.sync()
	}
	if err != nil {
		s.closeFile()
		return nil, err
	}
	for _, sd := range s.shards {
		sd.occupied = sd.sh.Tab.Occupied(s.mem)
	}
	return s, nil
}

// recoverAll runs each mode's restart recovery over the loaded image.
func (s *Server) recoverAll() error {
	switch s.cfg.Mode {
	case lpstore.ModeLP:
		for _, sd := range s.shards {
			t0 := time.Now()
			st := sd.sh.RecoverLP(sd.ctx, len(sd.baseline), sd.basePair)
			if err := sd.ctx.takeErr(); err != nil {
				return fmt.Errorf("kvserve: shard %d repair: %w", sd.id, err)
			}
			if st.AckedPuts%s.cfg.BatchK != 0 {
				// Group commit only ever seals full (padded) batches, so a
				// partial acked tail means the file was written by something
				// else (e.g. the closed-loop harness's Seal).
				return fmt.Errorf("kvserve: shard %d acked prefix %d is not a batch boundary", sd.id, st.AckedPuts)
			}
			if err := s.truncateTail(sd, st); err != nil {
				return fmt.Errorf("kvserve: shard %d tail truncation: %w", sd.id, err)
			}
			sd.w.ResumeAt(st.AckedPuts)
			st.RecoverNs = time.Since(t0).Nanoseconds()
			sd.obs.recovery.Observe(uint64(st.RecoverNs))
			sd.obs.jrnUsed.Set(int64(sd.w.Seq()))
			s.rstats = append(s.rstats, st)
		}
	case lpstore.ModeWAL:
		for _, sd := range s.shards {
			// Roll back the at-most-one in-flight transaction; the eager
			// stores inside WALRecover persist through the fileCtx.
			s.wal.WALRecover(sd.ctx, sd.id)
			if err := sd.ctx.takeErr(); err != nil {
				return fmt.Errorf("kvserve: shard %d WAL rollback: %w", sd.id, err)
			}
			sd.ctx.takeDirty()
		}
	case lpstore.ModeEP, lpstore.ModeBase:
		// EP persists each put before acking and a slot's key+value
		// share a line, so the image is consistent as loaded. Base makes
		// no durability claim.
	}
	return nil
}

// truncateTail durably zeroes the journal beyond the acknowledged
// prefix and invalidates ack slots beyond the acknowledged batches.
// The unacked tail is garbage from the previous incarnation (leaked
// lines of an uncommitted batch); the resumed writer will overwrite
// the heap words, but until its next commit the *file* would still
// hold them, and a stale checksum over a half-overwritten window must
// never acknowledge.
func (s *Server) truncateTail(sd *shardState, st lpstore.RecoverStats) error {
	c := sd.ctx
	sh := sd.sh
	c.takeDirty() // discard repair-path residue; it was persisted by RecoverLP
	for i := 2 * st.AckedPuts; i < 2*sh.MaxOps; i++ {
		if c.Load64(sh.Jrn.Addr(i)) != 0 {
			c.Store64(sh.Jrn.Addr(i), 0)
		}
	}
	for b := st.AckedBatches; b < sh.Ack.Slots(); b++ {
		if sh.Ack.Written(c, b) {
			sh.Ack.Invalidate(c, b) // store+flush+fence → durable via fileCtx
		}
	}
	if err := c.persistLines(c.takeDirty()); err != nil {
		return err
	}
	return c.takeErr()
}

// Start binds the listener and launches the shard owners, the commit
// flushers (LP), the write-back goroutine, and the accept loop.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = true
	s.wgLeak.Add(1)
	go s.writeBack()
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
		Batches: s.ctBatches.Load(), Pads: s.ctPads.Load(),
		LeakedLines: s.ctLeaked.Load(), LeakDropped: s.ctDropped.Load(),
	}
	for _, sd := range s.shards {
		st.Overloads += sd.obs.rejOver.Load()
		st.Expired += sd.obs.rejExp.Load()
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

// Contents merges every shard's architectural contents. Only safe
// while the server is quiesced (before Start or after Close/Abort — it
// reads the heap image, which outlives the file mapping).
func (s *Server) Contents() map[uint64]uint64 {
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
// under the other modes. Only safe between New and Start, and never
// after Close/Abort: the pass may repair, repairs persist, and shutdown
// has detached the durable image, so a repair there panics.
func (s *Server) VerifyRecovered() error {
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
// let owners empty their mailboxes and seal (padding) open batches,
// drain the commit pipelines and the write-back queue, and sync the
// file. Idempotent.
func (s *Server) Close() error { return s.shutdown(false) }

// Abort tears the server down without sealing open LP batches or
// syncing — the closest an in-process caller gets to an unclean death
// (the real one is SIGKILL; see the crash test). Batches already
// sealed into the pipeline still flush: their write sets were frozen
// at seal, exactly like batch commits that had left the CPU.
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
		s.leakq.close()
		s.wgLeak.Wait()
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
	if cerr := s.closeFile(); err == nil {
		err = cerr
	}
	s.closeErr = err
	return err
}

// closeFile detaches the Memory from the mapping, then unmaps and
// closes the file. The order matters: a persist that arrives after
// Close/Abort must find an empty durable image and panic like any Go
// out-of-range access, not fault on unmapped pages. The heap image
// stays readable (Contents).
func (s *Server) closeFile() error {
	s.mem.AttachDurable(nil)
	return s.pf.close()
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		cn := newSrvConn(c)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[cn] = struct{}{}
		s.wgConns.Add(2)
		s.mu.Unlock()
		go s.connReader(cn)
		go s.connWriter(cn)
	}
}

// appendGet serves one get entirely inside the calling (connection
// reader) goroutine: route by key hash, read the shard table lock-free
// under the seqlock, and append the response frame to rb. No mailbox,
// no owner, no allocation — the tentpole of the serve hot path.
func (s *Server) appendGet(rb []byte, seq uint32, key uint64) (out []byte, hit bool, retries uint64) {
	t0 := time.Now()
	sd := s.shards[shardOf(key, len(s.shards))]
	v, ok, retr := sd.sh.Tab.SeqGet(s.mem, key)
	if ok {
		rb = AppendResp(rb, seq, StatusOK, v)
	} else {
		rb = AppendResp(rb, seq, StatusNotFound, 0)
	}
	s.getLat.Observe(uint64(time.Since(t0).Nanoseconds()))
	return rb, ok, retr
}

// connReader decodes request frames. Gets, pings, and rejects are
// answered inline into rb, a conn-local response batch that is handed
// to the socket when the inbound buffer drains (the client is waiting
// for answers) or rb fills — so a pipelining client gets its whole
// window answered in one write. Puts reach the shard mailboxes in runs
// (see the drain point) and are acked later through the writer
// goroutine. Get tallies accumulate in locals and flush to the shared
// counters periodically, keeping the per-op path free of contended atomics.
func (s *Server) connReader(cn *srvConn) {
	var gets, misses, retries uint64
	flushTallies := func() {
		if gets != 0 {
			s.ctGets.Add(gets)
			gets = 0
		}
		if misses != 0 {
			s.ctGetMisses.Add(misses)
			misses = 0
		}
		if retries != 0 {
			s.ctSeqRetries.Add(retries)
			retries = 0
		}
	}
	defer func() {
		flushTallies()
		cn.stop()
		s.mu.Lock()
		delete(s.conns, cn)
		s.mu.Unlock()
		s.wgConns.Done()
	}()
	br := bufio.NewReaderSize(cn.c, 1<<16)
	var buf [ReqSize]byte
	var pbuf []byte // OpReplBatch payload scratch
	rb := make([]byte, 0, 512*RespSize)
	// stage[i] holds the puts decoded for shard i and not yet pushed to
	// its mailbox, in arrival order and pushed whole: one connection's
	// puts to one shard apply in send order. burst is their enq stamp,
	// taken at the first put after the inbound buffer ran dry (zero = take
	// it), so staging time counts inside the queue stage.
	stage := make([][]request, len(s.shards))
	var burst time.Time
	// nextTid is the trace context armed by an OpTraceCtx prefix frame:
	// it applies to exactly the next frame on the connection, then
	// clears, so a lost successor can't mislabel an unrelated op.
	var nextTid uint64
	// granted is what the connection's last OpHello was granted.
	var granted uint64
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return
		}
		op, seq, key, val := DecodeReq(&buf)
		tid := nextTid
		nextTid = 0
		switch {
		case op == OpReplBatch:
			// A payload follows the header (key and val fields: pair and
			// trace-entry counts). Only a replication session may send
			// one — a connection that was never granted FeatRepl ends
			// here, as does one whose header handleReplBatch refuses: past
			// a payload nobody reads, framing is lost. Whatever the
			// connection staged goes first: per-shard FIFO.
			rb = s.pushStages(cn, stage, rb)
			if granted&FeatRepl == 0 || !s.handleReplBatch(cn, br, seq, key, val, &pbuf, stage) {
				return
			}
		case op == OpTraceCtx:
			// Silent prefix: arm the trace ID for the next frame. No
			// response, so pre-handshake senders would desync their
			// sequence space — which is why clients only send it after
			// OpHello grants FeatTrace.
			nextTid = key
		case op == OpHello:
			// Capability handshake: grant the intersection of what the
			// client asked for and what we speak.
			granted = key & (FeatTrace | FeatRepl)
			rb = AppendResp(rb, seq, StatusOK, granted)
		case op == OpPing:
			rb = AppendResp(rb, seq, StatusOK, 0)
		case (op != OpGet && op != OpPut) || key == 0 || key == lpstore.NopKey:
			rb = AppendResp(rb, seq, StatusBadRequest, 0)
		case s.draining.Load():
			rb = AppendResp(rb, seq, StatusShutdown, 0)
		case op == OpGet:
			if tid != 0 {
				s.trace(obs.EvStageEnq, -1, tid, key)
			}
			var hit bool
			var retr uint64
			rb, hit, retr = s.appendGet(rb, seq, key)
			if tid != 0 {
				s.trace(obs.EvStageReply, -1, tid, key)
			}
			gets++
			retries += retr
			if !hit {
				misses++
			}
			if gets >= 512 {
				flushTallies()
			}
		default: // OpPut
			sd := s.shards[shardOf(key, len(s.shards))]
			if s.cfg.Repl != nil {
				// A clustered member admits client puts against its applied
				// topology (see Replicator.Admit). OpReplBatch stays open —
				// the forwarding peer's view is what charged the pair, and
				// refusing the copy would stall that peer's catch-up into us.
				if st := s.cfg.Repl.Admit(key); st != StatusOK {
					if st == StatusMoved {
						sd.obs.rejMoved.Inc()
						s.trace(obs.EvRejectMoved, int32(sd.id), key, 0)
					} else {
						sd.obs.rejOver.Inc()
						s.trace(obs.EvRejectOverload, int32(sd.id), key, 0)
					}
					rb = AppendResp(rb, seq, st, 0)
					break
				}
			}
			if tid == 0 && s.cfg.TraceSample > 0 && s.tr.Enabled() {
				// Server-side tail sampling: mint a trace ID for every
				// TraceSample'th client put that arrived untraced, so
				// stage spans exist even with trace-unaware clients.
				if n := s.tidCtr.Add(1); n%uint64(s.cfg.TraceSample) == 0 {
					tid = s.tidBase + n
				}
			}
			if burst.IsZero() {
				burst = time.Now()
			}
			if tid != 0 {
				s.trace(obs.EvStageEnq, int32(sd.id), tid, key)
			}
			if len(stage[sd.id]) == runLen {
				rb = s.pushStages(cn, stage, rb)
			}
			stage[sd.id] = append(stage[sd.id], request{seq: seq, key: key, val: val, enq: burst, cn: cn, tid: tid})
		}
		// The drain point: the client has nothing more buffered (it is
		// blocked on us). Nothing staged waits across the blocking read
		// that follows: every stage goes to its mailbox now — before the
		// flush, so an Overload answer from the push leaves in the same
		// write — and the next put opens a new burst. rb goes to the socket
		// here or past its flush threshold; in between it keeps batching
		// without paying a syscall, and the flush also steals any acks the
		// flushers queued meanwhile: both batches leave in one writev.
		drained := br.Buffered() < ReqSize
		if drained {
			rb = s.pushStages(cn, stage, rb)
			burst = time.Time{}
		}
		if len(rb) > 0 && (drained || len(rb) >= 512*RespSize) {
			if !s.flushResponses(cn, rb) {
				return
			}
			rb = rb[:0]
		}
	}
}

// runLen caps a client put stage: a put that finds its stage this long
// pushes the stages first, without waiting for the drain point, so a
// long inbound burst keeps the owners fed and the stages stay a few KiB.
const runLen = 64

// pushStages hands every non-empty stage to its shard's mailbox as one
// run and empties it. A connection's stages hold one kind of member at a
// time (an OpReplBatch frame pushes them before staging its own), and
// the two kinds meet a full mailbox differently. A client put that does
// not fit is answered StatusOverload into rb: backpressure, not buffering.
// An OpReplBatch member blocks rather than bouncing with
// Overload: stalling this reader is the follower's flow control
// — a replication session is a dedicated connection, so TCP
// pushes the stall back into the primary's window budget. A
// per-member Overload would instead force the primary into
// whole-run retries that can never succeed once a run is bigger
// than the mailbox (a catch-up run routinely is). The owner
// drains the mailbox for as long as the server runs (every take pokes
// space), and shutdown closes cn.done before it closes the mailbox, so
// the block cannot outlive the connection.
func (s *Server) pushStages(cn *srvConn, stage [][]request, rb []byte) []byte {
	for si, run := range stage {
		sd := s.shards[si]
		for len(run) > 0 {
			acc, depth := sd.mb.push(run)
			sd.obs.mbDepth.Set(int64(depth))
			sd.obs.mbHigh.SetMax(int64(depth))
			switch run = run[acc:]; {
			case len(run) == 0:
			case run[0].rb == nil:
				sd.obs.rejOver.Add(uint64(len(run)))
				for i := range run {
					s.trace(obs.EvRejectOverload, int32(si), run[i].key, 0)
					rb = AppendResp(rb, run[i].seq, StatusOverload, 0)
				}
				run = nil
			default:
				select {
				case <-sd.mb.space:
				case <-cn.done:
					for i := range run {
						run[i].rb.reply(StatusShutdown)
					}
					run = nil
				}
			}
		}
		clear(stage[si]) // keep no stale *srvConn/*replBatch
		stage[si] = stage[si][:0]
	}
	return rb
}

// flushResponses writes the reader's inline-response batch, gathering
// it with any queued flusher acks into one vectored write. net.Buffers
// is writev on a *net.TCPConn; elsewhere it degrades to sequential
// writes — the plain-write fallback.
func (s *Server) flushResponses(cn *srvConn, rb []byte) bool {
	acks, _ := cn.acks.take(cn.stolen)
	cn.smu.Lock()
	var err error
	if acks != nil {
		iov := net.Buffers(append(cn.iovArr[:0], acks, rb))
		s.hWriteFrames.Observe(uint64((len(acks) + len(rb)) / RespSize))
		_, err = iov.WriteTo(cn.c)
	} else {
		s.hWriteFrames.Observe(uint64(len(rb) / RespSize))
		_, err = cn.c.Write(rb)
	}
	cn.smu.Unlock()
	if acks != nil {
		cn.stolen = acks
	}
	return err == nil
}

// handleReplBatch ingests one OpReplBatch frame whose header declared
// count pairs and tcount trace entries (the layout is protocol.go's).
// Members are staged per shard and pushed before this returns (see
// pushStages), sharing one aggregate that answers the run's single
// response when its last member settles (worst status wins; members may
// settle from different shards' flushers). Returns false only on a header
// the codec refuses or a payload that never arrives — framing is lost, so
// the connection is dropped.
func (s *Server) handleReplBatch(cn *srvConn, br *bufio.Reader, seq uint32, count, tcount uint64, pay *[]byte, stage [][]request) bool {
	need, ok := ReplPayloadLen(count, tcount)
	if !ok {
		return false
	}
	if cap(*pay) < need {
		*pay = make([]byte, need)
	}
	buf := (*pay)[:need]
	if _, err := io.ReadFull(br, buf); err != nil {
		return false
	}
	if s.draining.Load() {
		cn.reply(seq, StatusShutdown, 0)
		return true
	}
	run, _ := DecodeReplBatch(count, tcount, buf)
	rb := &replBatch{cn: cn, seq: seq}
	rb.remaining.Store(int32(count))
	now := time.Now()
	for key, val, tid, ok := run.Next(); ok; key, val, tid, ok = run.Next() {
		if key == 0 || key == lpstore.NopKey {
			rb.reply(StatusBadRequest)
			continue
		}
		si := shardOf(key, len(s.shards))
		if tid != 0 {
			s.trace(obs.EvStageEnq, int32(si), tid, key)
		}
		stage[si] = append(stage[si], request{seq: seq, key: key, val: val, enq: now, cn: cn, rb: rb, tid: tid})
	}
	// The frame is one run per shard it reached, whatever its length; the
	// run's last member carries the seal hint (see request.sealHint).
	for si := range stage {
		if n := len(stage[si]); n > 0 {
			stage[si][n-1].sealHint = true
		}
	}
	s.pushStages(cn, stage, nil)
	return true
}

// connWriter drains put acks (queued by shard flushers and owners)
// onto the socket: everything queued since the last write leaves in
// one syscall. The reader's drain point steals the acks preemptively
// when it has inline responses of its own to combine; a nil take here
// just means the reader won that race.
func (s *Server) connWriter(cn *srvConn) {
	defer s.wgConns.Done()
	var acks []byte // the run last written: the queue's spare
	for {
		select {
		case <-cn.acks.wake:
			run, _ := cn.acks.take(acks)
			if run == nil {
				continue
			}
			acks = run
			cn.smu.Lock()
			s.hWriteFrames.Observe(uint64(len(acks) / RespSize))
			_, err := cn.c.Write(acks)
			cn.smu.Unlock()
			if err != nil {
				cn.stop()
				return
			}
		case <-cn.done:
			return
		}
	}
}

// owner is a shard's single mutator. It takes everything queued in its
// mailbox as one run and applies it; idle with a batch open it sleeps at
// most until the batch deadline, otherwise until the mailbox wakes it. A
// closed mailbox (graceful drain) seals the open batch and exits.
func (s *Server) owner(sd *shardState) {
	defer s.wgOwners.Done()
	t := time.NewTimer(time.Hour)
	t.Stop() // armed only while the owner idles with a batch open
	spare := make([]request, 0, s.cfg.Mailbox)
	for {
		run, closed := sd.mb.take(spare)
		switch {
		case run != nil:
			sd.obs.mbDepth.Set(0)
			s.apply(sd, run)
			clear(run) // the mailbox keeps no stale *srvConn/*replBatch
			spare = run
		case closed:
			if len(sd.pending) > 0 && !s.aborting.Load() {
				s.seal(sd, true)
			}
			if sd.commitCh != nil {
				close(sd.commitCh)
			}
			return
		case len(sd.pending) == 0:
			<-sd.mb.wake
		default:
			t.Reset(time.Until(sd.deadline)) // already past: fires at once
			select {
			case <-sd.mb.wake:
				if !t.Stop() {
					<-t.C
				}
			case <-t.C:
				s.seal(sd, true)
			}
		}
	}
}

// apply executes one run of puts under a single clock read: now is
// every member's dequeue time (queue stage, MaxQueueDelay) and the epoch
// of a batch a member opens. The BatchWait deadline is checked once per
// run, so an open batch kept company by a trickle — the owner never
// idles long enough for its timer to fire — still seals on time; it is
// checked after the run, so puts that arrive while a due timer is still
// overshooting join the batch they found open instead of waiting out a
// second one.
func (s *Server) apply(sd *shardState, run []request) {
	now := time.Now()
	c := sd.ctx
	for i := range run {
		r := &run[i]
		wait := now.Sub(r.enq)
		s.stQueue.Observe(uint64(wait.Nanoseconds()))
		if r.tid != 0 {
			s.trace(obs.EvStageDeq, int32(sd.id), r.tid, uint64(wait.Nanoseconds()))
		}
		if d := s.cfg.MaxQueueDelay; d > 0 && wait > d {
			sd.obs.rejExp.Inc()
			s.trace(obs.EvRejectExpired, int32(sd.id), r.key, 0)
			r.reply(StatusExpired, 0)
			continue
		}
		// Admission: reject near-full tables (an insert may be an update,
		// but distinguishing would cost the probe we are trying to avoid)
		// and exhausted LP journals before mutating anything.
		if sd.occupied >= sd.highWater ||
			(s.cfg.Mode == lpstore.ModeLP && sd.w.Seq() >= sd.sh.MaxOps) {
			sd.obs.rejFull.Inc()
			s.trace(obs.EvRejectFull, int32(sd.id), r.key, 0)
			r.reply(StatusFull, 0)
			continue
		}
		s.ctPuts.Inc()
		insBefore, batchBefore := sd.w.Inserts, sd.w.Batch()
		sd.w.Put(c, r.key, r.val)
		sd.occupied += int(sd.w.Inserts - insBefore)
		switch s.cfg.Mode {
		case lpstore.ModeLP:
			sd.pending = append(sd.pending, *r)
			if len(sd.pending) == 1 {
				sd.openAt = now // fill-stage epoch, whatever seals the batch
				sd.deadline = now.Add(s.cfg.BatchWait)
			}
			switch {
			case sd.w.Batch() != batchBefore:
				s.seal(sd, false)
			case r.sealHint && i == len(run)-1 && sd.mb.depth() == 0:
				s.seal(sd, true)
			}
			continue
		case lpstore.ModeEP, lpstore.ModeWAL:
			c.takeDirty() // everything that matters was fenced to the file
			if err := c.takeErr(); err != nil {
				s.failFile(err)
				r.reply(StatusShutdown, 0)
				continue
			}
		}
		// EP, WAL, base: settled on the spot. (Base's only path to the file
		// is the leak below.)
		s.ctAcked.Inc()
		sd.obs.putLat.Observe(uint64(time.Since(r.enq).Nanoseconds()))
		r.reply(StatusOK, 0)
	}
	if len(sd.pending) > 0 && !now.Before(sd.deadline) {
		s.seal(sd, true)
	}
	s.leak(sd)
}

// seal closes the open LP batch (padding it if it closed on timeout or
// drain rather than on its K-th put), snapshots the batch's durable
// write set — its journal-window lines and checksum line — into a free
// commitItem, and hands the item to the shard's flusher. The owner
// returns to filling the next batch immediately; the batch's clients
// are acked by the flusher once the write set (and fsync, if priced)
// completes — the pipelined group-commit durability point. An
// exhausted item ring (PipelineDepth sealed batches already in flight)
// blocks here: flush-side backpressure.
func (s *Server) seal(sd *shardState, padded bool) {
	c := sd.ctx
	t0 := time.Now()
	if padded {
		s.ctPads.Add(uint64(sd.w.PadBatch(c)))
	}
	it := <-sd.freeCh
	it.batch = sd.w.Batch() - 1
	it.seq = sd.w.Seq()
	it.sealed = t0
	it.pending, sd.pending = sd.pending, it.pending[:0]
	if len(it.pending) > 0 && !sd.openAt.IsZero() {
		s.stFill.Observe(uint64(t0.Sub(sd.openAt).Nanoseconds()))
	}
	if s.tr.Enabled() {
		ts := t0.UnixNano()
		for i := range it.pending {
			if tid := it.pending[i].tid; tid != 0 {
				s.tr.Record(obs.EvStageSeal, int32(sd.id), ts, tid, uint64(it.batch))
			}
		}
	}
	if sd.replq != nil {
		s.forwardBatch(sd, it)
	}

	base := it.batch * sd.sh.BatchK
	first := memsim.LineOf(sd.sh.Jrn.Addr(2 * base))
	last := memsim.LineOf(sd.sh.Jrn.Addr(2*(base+sd.sh.BatchK) - 1))
	it.lines = it.lines[:0]
	for la := first; la <= last; la += memsim.LineSize {
		it.lines = append(it.lines, la)
	}
	it.lines = append(it.lines, memsim.LineOf(sd.sh.Ack.SlotAddr(it.batch)))
	for i, la := range it.lines {
		it.bufs[i] = s.mem.LoadLine(la)
	}
	sd.obs.jrnUsed.Set(int64(it.seq))
	s.leak(sd) // table lines this batch dirtied may still drift out
	sd.obs.pipeInflight.Add(1)
	sd.commitCh <- it
}

// forwardBatch hands the sealed batch's client puts to the Replicator
// as one call: the Replicator ships them to each destination pair peer
// as a single OpReplBatch frame sharing one ack, and the network hop
// plus the follower's own group commit overlap this batch's local
// write set. Runs in the owner at seal time — never in the flusher:
// ForwardBatch may block on replication-window backpressure until a
// *remote* ack frees a slot, and a flusher blocked on remote progress
// deadlocks two nodes that forward to each other (each node's
// follower acks are produced by its flusher). OpReplBatch members
// (rb != nil) are the peer's forwarded copies — re-forwarding them would
// echo puts between pair members forever, so only client puts forward.
func (s *Server) forwardBatch(sd *shardState, it *commitItem) {
	keys, vals, tids := sd.repKeys[:0], sd.repVals[:0], sd.repTids[:0]
	for i := range it.pending {
		if it.pending[i].rb == nil {
			keys = append(keys, it.pending[i].key)
			vals = append(vals, it.pending[i].val)
			tids = append(tids, it.pending[i].tid)
		}
	}
	if len(keys) == 0 {
		return
	}
	toks := sd.repToks[:len(keys)]
	s.cfg.Repl.ForwardBatch(keys, vals, tids, toks)
	j := 0
	for i := range it.pending {
		if it.pending[i].rb == nil {
			it.pending[i].rtok = toks[j]
			j++
		}
	}
}

// flusher drains one shard's commit pipeline in FIFO order: write the
// sealed batch's frozen line snapshots, fsync if priced, then — and
// only then — ack the batch's clients. Runs concurrently with the
// owner filling the next batch; per-shard FIFO keeps the file image of
// lines shared between consecutive batches monotone.
func (s *Server) flusher(sd *shardState) {
	defer s.wgFlush.Done()
	for it := range sd.commitCh {
		s.flushItem(sd, it)
		sd.freeCh <- it
	}
}

// flushItem persists one sealed batch and completes it — the one path
// every flushed batch takes, clustered or not. Batch accounting and
// every token-free reply happen right here, at local-commit time; only
// puts with a replication token in flight (clustered servers) defer to
// the shard's completion goroutine. The split is a deadlock invariant,
// not an optimization: a token-free put is usually the *peer's*
// replicated forward, and its reply is what unblocks the peer's own
// token waits. Two nodes forwarding to each other would wedge
// permanently if those replies ever queued behind this node's token
// waits (or, worse, if the flusher itself blocked on a remote ack — the
// peer's forwards flow through this very flusher).
func (s *Server) flushItem(sd *shardState, it *commitItem) {
	var err error
	if ep := s.fileErr.Load(); ep != nil {
		err = *ep
	} else {
		for i, la := range it.lines {
			s.mem.PersistLine(la, &it.bufs[i])
		}
		if s.pf.fsync {
			err = s.pf.sync()
		}
	}
	now := time.Now()
	if err != nil {
		s.failFile(err)
	} else {
		s.ctBatches.Inc()
		sd.obs.batchFill.Observe(uint64(len(it.pending)))
		s.stFlush.Observe(uint64(now.Sub(it.sealed).Nanoseconds()))
		s.trace(obs.EvBatchCommit, int32(sd.id), uint64(it.batch), uint64(len(it.pending)))
		s.trace(obs.EvAckAdvance, int32(sd.id), uint64(it.seq), 0)
		if s.tr.Enabled() {
			ts := now.UnixNano()
			for i := range it.pending {
				if tid := it.pending[i].tid; tid != 0 {
					s.tr.Record(obs.EvStageFlush, int32(sd.id), ts, tid, uint64(it.batch))
				}
			}
		}
	}
	var toks []request // stays nil — no allocation — unless a put carries a token
	// Consecutive acks to one connection leave as one run: one lock, one
	// poke, and a writer that finds the batch's acks whole.
	acks, to := sd.ackRun[:0], (*srvConn)(nil)
	for i := range it.pending {
		r := &it.pending[i]
		if r.rtok != 0 {
			toks = append(toks, *r)
			continue
		}
		status := s.settle(sd, r, err, now)
		if r.rb != nil {
			r.rb.reply(status)
			continue
		}
		if r.cn != to && len(acks) > 0 {
			to.pushAcks(acks)
			acks = acks[:0]
		}
		to = r.cn
		acks = AppendResp(acks, r.seq, status, 0)
	}
	if len(acks) > 0 {
		to.pushAcks(acks)
	}
	sd.ackRun = acks
	it.pending = it.pending[:0]
	sd.obs.pipeInflight.Add(-1)
	if len(toks) > 0 {
		// Non-blocking by construction (replq is unbounded); a send
		// that could block here would reintroduce the cross-node
		// flusher deadlock this split exists to prevent.
		sd.replq.push([]replJob{{pending: toks, err: err, flushed: now}})
	}
}

// replWaiter drains one shard's replication completion queue: for each
// locally flushed batch's tokened puts it waits out the follower
// group-commit acks, then replies. The replication ack rule lives here
// — a put is acked only after the follower reported its own LP group
// commit, or after the cluster revoked the follower's lease (Wait
// returns true for that designed RF=1 fallback). When Wait reports the
// put unackable — the forward failed while the follower is still
// alive, e.g. the follower's table is full or its connection blipped —
// the client gets StatusOverload instead: the put is durable locally
// and idempotent to retry, and backpressure is honest where a silent
// RF=1 ack would not be. The waits run after the local write set is
// durable, so an acked client sees max(local commit, follower commit),
// not their sum. Every nonzero token must be waited exactly once (it
// owns a replication window slot), so the waits run on the failure
// path too.
func (s *Server) replWaiter(sd *shardState) {
	defer s.wgRepl.Done()
	var jobs []replJob
	for ok := true; ok; {
		jobs, ok = sd.replq.takeWait(jobs)
		for _, job := range jobs {
			// One clock read per token, not per put: puts forwarded to one
			// peer share a token, and only the first Wait on it can block.
			var now time.Time
			var tok uint64
			for _, r := range job.pending {
				ok := s.cfg.Repl.Wait(r.rtok)
				if r.rtok != tok {
					tok, now = r.rtok, time.Now()
				}
				if r.tid != 0 {
					var b uint64
					if ok {
						b = 1
					}
					s.trace(obs.EvStageReplAck, int32(sd.id), r.tid, b)
				}
				if job.err == nil && !ok {
					sd.obs.rejOver.Inc()
					r.reply(StatusOverload, 0)
					continue
				}
				r.reply(s.settle(sd, &r, job.err, now), 0)
			}
			if job.err == nil && !job.flushed.IsZero() {
				// Per-job repl stage: local write set durable → every
				// follower token of the batch resolved.
				s.stRepl.Observe(uint64(now.Sub(job.flushed).Nanoseconds()))
			}
		}
		clear(jobs) // drop the pending slice references
	}
}

// settle accounts for one put whose local write set settled (or failed)
// and returns the status to answer it with.
func (s *Server) settle(sd *shardState, r *request, err error, now time.Time) byte {
	if err != nil {
		return StatusShutdown
	}
	s.ctAcked.Add(1)
	lat := uint64(now.Sub(r.enq).Nanoseconds())
	sd.obs.putLat.Observe(lat)
	if s.tr.Enabled() {
		ts := now.UnixNano()
		if r.tid != 0 {
			s.tr.Record(obs.EvStageReply, int32(sd.id), ts, r.tid, lat)
		}
		if s.slowNs > 0 && int64(lat) > s.slowNs {
			s.tr.Record(obs.EvSlowPut, int32(sd.id), ts, r.key, lat)
		}
	}
	return StatusOK
}

// leak snapshots the table lines the shard dirtied since the last call
// (after every run and at every seal; a line dirtied twice leaks once)
// and offers them to the write-back queue as one run — the service's
// stand-in for natural cache evictions. Non-blocking: a full queue drops
// what it cannot take (the line stays dirty only in the heap), exactly as
// a line may simply not be evicted before a crash. Journal and checksum
// lines never leak; see shardState.tabLo.
func (s *Server) leak(sd *shardState) {
	run := sd.leakRun[:0]
	for _, la := range sd.ctx.takeDirty() {
		if la < sd.tabLo || la > sd.tabHi {
			continue
		}
		run = append(run, lineSnap{la: la, buf: s.mem.LoadLine(la)})
	}
	sd.leakRun = run
	acc, _ := s.leakq.push(run)
	s.ctLeaked.Add(uint64(acc))
	s.ctDropped.Add(uint64(len(run) - acc))
	for i := range run[:acc] {
		s.trace(obs.EvEvictionLeak, int32(sd.id), uint64(run[i].la), 0)
	}
}

// writeBack drains the leak queue into the durable image.
func (s *Server) writeBack() {
	defer s.wgLeak.Done()
	run := make([]lineSnap, 0, leakDepth)
	for ok := true; ok; {
		run, ok = s.leakq.takeWait(run)
		for i := range run {
			s.mem.PersistLine(run[i].la, &run[i].buf)
		}
	}
}

// failFile records the first backing-file fsync error and flips the
// server into draining: durability can no longer be promised, so
// every subsequent request is answered StatusShutdown.
func (s *Server) failFile(err error) {
	e := err
	s.fileErr.CompareAndSwap(nil, &e)
	s.draining.Store(true)
}
