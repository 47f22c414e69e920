package kvserve

import (
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
)

// owner.go is the owner stage: a shard's state and its single mutator —
// apply a run, seal a batch into the commit ring, forward it to the
// replicator — plus the leak of dirtied table lines to the write-back
// goroutine.

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
	clock     *sealClock         // LP: fires at deadline once armed; nil under EP/WAL/Base
	armed     bool               // LP: clock set for this or an earlier batch's deadline, its fire not yet taken
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
	// to a per-shard completion goroutine that waits out the forwarded
	// runs and only then replies. The flusher itself must never
	// block on a remote ack — even transitively through this handoff,
	// which is why it is an unbounded queue (next paragraph): the
	// peer's replicated puts flow through this shard's own pipeline,
	// so two nodes forwarding to each other with flushers that could
	// block anywhere on remote progress would deadlock cluster-wide.
	//
	// The queue is the flusher→replWaiter handoff: an unbounded FIFO the
	// flusher pushes flushed batches' forwarded acks into without ever
	// blocking. Unboundedness is a deadlock invariant, not a convenience:
	// a bounded handoff would park the flusher once the waiter lagged by
	// its capacity, and a parked flusher stops replying the *peer's*
	// replicated puts — two nodes forwarding to each other
	// would wedge permanently, each waiter stuck on acks only the other
	// node's parked flusher could produce. Memory stays bounded anyway:
	// every queued run holds a replication-window slot until waited, so
	// the queue never holds more than Window runs per peer.
	replq *runQueue[replJob]

	// repKeys/repVals/repTids/repIn are the owner's seal-time
	// ForwardBatch scratch (clustered LP only): the sealed batch's
	// client puts as parallel slices, cap BatchK, reused every seal.
	repKeys, repVals, repTids []uint64
	repIn                     []uint16

	// tabLo/tabHi bound the table's line addresses: only table lines
	// may leak through the write-back queue (a stale journal-line
	// snapshot could clobber a later group commit's file write; table
	// lines have a single writer — the leaker — so FIFO order keeps
	// the file monotone).
	tabLo, tabHi memsim.Addr
	// released is the flusher's journal cursor (LP): the journal's pages
	// from its first page boundary up to here have been handed back to
	// the kernel (see releaseJournal).
	released memsim.Addr
	leakRun  []lineSnap // leak's scratch: one run's snapshots, reused
	ackRun   []byte     // the flusher's scratch: one connection's acks

	obs shardObs
}

// shardObs is one shard's registry instruments, resolved once in New
// under the shard label and updated lock-free thereafter.
type shardObs struct {
	mbDepth      *obs.Gauge     // kvserve_mailbox_depth
	mbHigh       *obs.Gauge     // kvserve_mailbox_high_water
	jrnUsed      *obs.Gauge     // kvserve_journal_used (LP: journal records written, one per client put)
	jrnCap       *obs.Gauge     // kvserve_journal_capacity (LP: MaxOps)
	pipeInflight *obs.Gauge     // kvserve_pipeline_inflight: sealed, unflushed batches
	batchFill    *obs.Histogram // kvserve_batch_fill: client puts acked per committed batch
	putLat       *obs.Histogram // kvserve_put_latency_seconds: enqueue → ack, end to end
	recovery     *obs.Histogram // kvserve_recovery_seconds: restart recovery per shard
	rejOver      *obs.Counter   // kvserve_rejects_total{cause="overload"}
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
		putLat:       sc.HistogramScaled(MetricPutLatency, 1e-9),
		recovery:     sc.HistogramScaled("kvserve_recovery_seconds", 1e-9),
		rejOver:      rej("overload"),
		rejFull:      rej("full"),
		rejMoved:     rej("moved"),
	}
}

func (sd *shardState) basePair(i int) (uint64, uint64) {
	return sd.baseline[i][0], sd.baseline[i][1]
}

// sealCause is why an LP batch sealed: kvserve_seals_total's label.
type sealCause uint8

const (
	sealCount    sealCause = iota // BatchK puts
	sealDeadline                  // BatchWait since the batch opened
	sealHint                      // a put's seal hint, its run the last queued
	sealDrain                     // graceful shutdown
	numSealCauses
)

func (c sealCause) String() string {
	return [numSealCauses]string{"count", "deadline", "hint", "drain"}[c]
}

// owner is a shard's single mutator. It takes everything queued in its
// mailbox as one run and applies it; idle with a batch open it sleeps at
// most until the batch deadline, otherwise until the mailbox wakes it. A
// closed mailbox (graceful drain) seals the open batch and exits.
//
// The deadline is the shard's seal clock, armed at most once per batch:
// when the owner idles with a batch open and the clock is not already
// set, never again on later idles, and never disarmed (each arm or disarm
// is a syscall, and a busy shard idles between most runs). A batch that
// seals early by count leaves the clock set for its own deadline, which
// is earlier than any later batch's, so the clock still fires in time for
// the next one: it fires early, and the owner re-arms it then. A fire
// therefore seals only a batch whose own deadline has passed.
func (s *Server) owner(sd *shardState) {
	defer s.wgOwners.Done()
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
				s.seal(sd, sealDrain)
			}
			if sd.commitCh != nil {
				close(sd.commitCh)
			}
			return
		case len(sd.pending) == 0:
			<-sd.mb.wake
		default:
			if !sd.armed {
				sd.clock.arm(time.Until(sd.deadline)) // already past: fires at once
				sd.armed = true
				s.ctClockArms.Inc()
			}
			select {
			case <-sd.mb.wake:
			case <-sd.clock.C:
				sd.armed = false
				if len(sd.pending) > 0 && !time.Now().Before(sd.deadline) {
					s.seal(sd, sealDeadline)
				}
			}
		}
	}
}

// apply executes one run of puts under a single clock read: now is
// every member's dequeue time (queue stage) and the epoch of a batch a
// member opens. The BatchWait deadline is checked once per run, so an
// open batch kept company by a trickle — the owner never idles long
// enough for its clock to fire — still seals on time; it is checked
// after the run, so puts that arrive in the same wakeup as the due fire
// join the batch they found open instead of waiting out a second one.
func (s *Server) apply(sd *shardState, run []request) {
	now := time.Now()
	c := sd.ctx
	for i := range run {
		r := &run[i]
		wait := now.Sub(r.enq)
		s.stage[obs.StageQueue].Observe(uint64(wait.Nanoseconds()))
		if r.tid != 0 {
			s.trace(obs.EvStageDeq, int32(sd.id), r.tid, uint64(wait.Nanoseconds()))
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
		insBefore := sd.w.Inserts
		sd.w.Put(c, r.key, r.val)
		sd.occupied += int(sd.w.Inserts - insBefore)
		switch s.cfg.Mode {
		case lpstore.ModeLP:
			sd.pending = append(sd.pending, *r)
			if len(sd.pending) == 1 {
				sd.openAt = now // fill-stage epoch, whatever seals the batch
				sd.deadline = now.Add(s.cfg.BatchWait)
			}
			if len(sd.pending) == s.cfg.BatchK {
				s.seal(sd, sealCount)
			} else if r.sealHint && i == len(run)-1 && sd.mb.depth() == 0 {
				s.seal(sd, sealHint)
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
		s.seal(sd, sealDeadline)
	}
	s.leak(sd)
	// The run's owner time, seals and leak included (and a seal's wait for
	// a free commit item, which only a saturated pipeline imposes), booked
	// as len(run) samples of its per-put share.
	if n := uint64(len(run)); n > 0 {
		s.applyLat.ObserveN(uint64(time.Since(now).Nanoseconds())/n, n)
	}
}

// seal closes the open LP batch — the records journaled since the last
// seal, BatchK of them or fewer (deadline, seal hint, drain) — by
// committing the open window's checksum over the records it holds, then
// snapshots the batch's durable write set into a free commitItem and
// hands the item to the shard's flusher. The write set is the journal
// lines of the batch's records and the checksum line of each window they
// fall in: one, or two when the batch straddles a window boundary, the
// lower window's first — the order recovery walks, so a crash between the
// two leaves the lower window acknowledged whole and the upper one as it
// was. The owner returns to filling the next batch immediately; the
// batch's clients are acked by the flusher once the write set (and fsync,
// if priced) completes — the pipelined group-commit durability point. An
// exhausted item ring (PipelineDepth sealed batches already in flight)
// blocks here: flush-side backpressure. cause is booked in
// kvserve_seals_total, and a deadline seal's lateness — its start against
// the batch's deadline, whether the clock's fire or the check after a run
// called it — in kvserve_seal_lateness_seconds. The seal clock is left as
// it is (see owner).
func (s *Server) seal(sd *shardState, cause sealCause) {
	t0 := time.Now()
	s.ctSeals[cause].Inc()
	if cause == sealDeadline {
		s.sealLate.Observe(uint64(t0.Sub(sd.deadline).Nanoseconds()))
	}
	sd.w.Seal(sd.ctx)
	it := <-sd.freeCh
	it.seq = sd.w.Seq()
	from := it.seq - len(sd.pending)
	it.batch = (it.seq - 1) / sd.sh.BatchK
	it.sealed = t0
	it.pending, sd.pending = sd.pending, it.pending[:0]
	if len(it.pending) > 0 && !sd.openAt.IsZero() {
		s.stage[obs.StageFill].Observe(uint64(t0.Sub(sd.openAt).Nanoseconds()))
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

	first := memsim.LineOf(sd.sh.Jrn.Addr(2 * from))
	last := memsim.LineOf(sd.sh.Jrn.Addr(2*it.seq - 1))
	it.lines = it.lines[:0]
	for la := first; la <= last; la += memsim.LineSize {
		it.lines = append(it.lines, la)
	}
	lo := memsim.LineOf(sd.sh.Ack.SlotAddr(from / sd.sh.BatchK))
	it.lines = append(it.lines, lo)
	if hi := memsim.LineOf(sd.sh.Ack.SlotAddr(it.batch)); hi != lo {
		it.lines = append(it.lines, hi)
	}
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
	it.runs = it.runs[:0]
	if len(keys) == 0 {
		return
	}
	in := sd.repIn[:len(keys)]
	it.runs = s.cfg.Repl.ForwardBatch(keys, vals, tids, in, it.runs)
	j := 0
	for i := range it.pending {
		if it.pending[i].rb == nil {
			it.pending[i].rrun = in[j]
			j++
		}
	}
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
		s.ctLeakLines.Add(uint64(len(run)))
	}
}
