package kvserve

import (
	"time"

	"lazyp/internal/memsim"
	"lazyp/internal/obs"
)

// commit.go is the commit stage: a sealed batch persisted by the shard's
// flusher and completed — acked at once, or after its forwarded
// replication runs resolve in the shard's completion goroutine.

// commitItem is one sealed LP batch in flight through a shard's commit
// pipeline: the batch's durable write set captured as line snapshots at
// seal time, plus the client puts to ack once the set (and fsync, if
// priced) completes. Items cycle through a fixed ring (freeCh ⇄
// commitCh), so the steady-state commit path never allocates.
//
// The snapshots are taken by the owner, not read later by the flusher:
// a window's checksum slot is committed again by every later seal inside
// the window (and its line holds seven more windows' slots), and a
// journal line may hold the next batch's first records — by the time the
// flusher ran, the owner might have stored the next batch's checksum into
// the very line whose write would acknowledge this one. Sealing freezes
// the bytes instead; the per-shard flusher writes items in FIFO order, so
// the file image of a shared line only ever moves forward.
type commitItem struct {
	batch   int       // journal window of the batch's last record (trace)
	seq     int       // journal put seq after this batch (trace)
	sealed  time.Time // commit latency epoch
	pending []request
	runs    []ReplRun // the batch's forwarded runs (clustered LP only)
	lines   []memsim.Addr
	bufs    [][memsim.LineSize]byte
}

// replJob is one flushed batch's reply work, handed from the flusher
// to the shard's replication completer: the batch's forwarded runs and
// the puts that wait on them, to be acked (or failed) once the runs
// resolve.
type replJob struct {
	pending []request
	runs    []ReplRun
	err     error
	flushed time.Time // local write set durable (repl stage epoch)
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
// every reply that waits on no run happen right here, at local-commit
// time; only puts with a forwarded run in flight (clustered servers)
// defer to the shard's completion goroutine. The split is a deadlock
// invariant, not an optimization: a put that waits on no run is usually
// the *peer's* replicated forward, and its reply is what unblocks the
// peer's own run waits. Two nodes forwarding to each other would wedge
// permanently if those replies ever queued behind this node's run waits
// (or, worse, if the flusher itself blocked on a remote ack — the
// peer's forwards flow through this very flusher).
func (s *Server) flushItem(sd *shardState, it *commitItem) {
	var err error
	if ep := s.fileErr.Load(); ep != nil {
		err = *ep
	} else {
		for i, la := range it.lines {
			s.mem.PersistLine(la, &it.bufs[i])
		}
		s.ctCommitLines.Add(uint64(len(it.lines)))
		if s.pf.fsync {
			err = s.pf.sync()
		}
	}
	now := time.Now()
	if err != nil {
		s.failFile(err)
	} else {
		s.releaseJournal(sd, it.seq)
		s.ctBatches.Inc()
		sd.obs.batchFill.Observe(uint64(len(it.pending)))
		s.stage[obs.StageFlush].Observe(uint64(now.Sub(it.sealed).Nanoseconds()))
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
	var waiting []request // stays nil — no allocation — unless a put was forwarded
	// Consecutive acks to one connection leave as one run: one lock, one
	// poke, and a writer that finds the batch's acks whole.
	acks, to := sd.ackRun[:0], (*srvConn)(nil)
	for i := range it.pending {
		r := &it.pending[i]
		if r.rrun != 0 {
			if waiting == nil {
				waiting = make([]request, 0, len(it.pending)-i)
			}
			waiting = append(waiting, *r)
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
	if len(it.runs) > 0 {
		// Non-blocking by construction (replq is unbounded); a send
		// that could block here would reintroduce the cross-node
		// flusher deadlock this split exists to prevent.
		sd.replq.push([]replJob{{pending: waiting, runs: append([]ReplRun(nil), it.runs...), err: err, flushed: now}})
		clear(it.runs)
	}
}

// releaseStep is how much committed journal builds up behind a shard's
// cursor before it is handed back: one madvise per image per step. A
// smaller step holds less journal resident but pays the syscalls more
// often (EXPERIMENTS.md, "Committed journal pages leave memory").
const releaseStep = 1 << 20

// releaseJournal hands the shard's committed journal back to the kernel,
// once a batch ending before record seq is durable: every page wholly
// below the line that holds record seq, from both images, in steps of
// releaseStep. Nothing touches those pages again in this incarnation —
// the owner appends at or after seq, a later seal snapshots only its own
// batch's lines (the first of which holds record seq), and only boot
// reads the journal (recovery, truncateTail) — so the heap's copy, zero
// once released, is never read, and the file's stays in the page cache
// until written back. This is the paper's committed region leaving the
// cache at no cost: the image costs its live pages, not its history.
func (s *Server) releaseJournal(sd *shardState, seq int) {
	to := (sd.sh.Jrn.Base + memsim.Addr(16*seq)) &^ memsim.Addr(pageSize-1) // a record is two words
	if to < sd.released+releaseStep {
		return
	}
	if s.pf.release(int(sd.released), int(to)) {
		s.ctReleased.Add(uint64(to - sd.released))
	}
	sd.released = to
}

// replWaiter drains one shard's replication completion queue: for each
// locally flushed batch it waits out the batch's forwarded runs — each
// exactly once, since each owns a replication window slot, and on the
// failure path too — then replies to the puts that waited on them. The
// replication ack rule lives here — a put is acked only after the
// follower reported its own LP group commit, or after the cluster
// revoked the follower's lease (Wait returns true for that designed
// RF=1 fallback). When its run's Wait reports the put unackable — the
// forward failed while the follower is still alive, e.g. the follower's
// table is full or its connection blipped — the client gets
// StatusOverload instead: the put is durable locally and idempotent to
// retry, and backpressure is honest where a silent RF=1 ack would not
// be. The waits run after the local write set is durable, so an acked
// client sees max(local commit, follower commit), not their sum.
func (s *Server) replWaiter(sd *shardState) {
	defer s.wgRepl.Done()
	var jobs []replJob
	var acked []bool // per run of the job at hand
	for ok := true; ok; {
		jobs, ok = sd.replq.takeWait(jobs)
		for _, job := range jobs {
			acked = acked[:0]
			for _, run := range job.runs {
				acked = append(acked, run.Wait())
			}
			now := time.Now()
			for i := range job.pending {
				r := &job.pending[i]
				ok := acked[r.rrun-1]
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
				r.reply(s.settle(sd, r, job.err, now), 0)
			}
			if job.err == nil {
				// Per-job repl stage: local write set durable → every
				// forwarded run of the batch resolved.
				s.stage[obs.StageRepl].Observe(uint64(now.Sub(job.flushed).Nanoseconds()))
			}
		}
		clear(jobs) // drop the pending and run references
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

// failFile records the first backing-file fsync error and flips the
// server into draining: durability can no longer be promised, so
// every subsequent request is answered StatusShutdown.
func (s *Server) failFile(err error) {
	e := err
	s.fileErr.CompareAndSwap(nil, &e)
	s.draining.Store(true)
}
