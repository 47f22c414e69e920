package kvserve

import (
	"bufio"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/obs"
)

// conn.go is the connection stage of the put pipeline: accept, the
// per-connection reader (decode, inline answers, staging into shard
// mailboxes, OpReplBatch runs) and the writer that drains acks.

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
	// rrun is the put's 1-based index in its commitItem's runs, as
	// Replicator.ForwardBatch set it (0 = no forward in flight): the
	// completion goroutine acks the put once that run resolved. Puts of
	// one batch forwarded to the same peer share a run.
	rrun uint16
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
// (the codes order by severity: OK < ... < Full < BadRequest <
// Shutdown), so the primary degrades the whole run on any member
// failure. A member never answers Overload (see pushStages): the
// session's TCP window is the run's backpressure, so the primary has
// nothing to resend.
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
// no owner, no allocation, no clock and no shared write — the read burst
// it arrived in is what gets timed and counted (see connReader).
func (s *Server) appendGet(rb []byte, seq uint32, key uint64) (out []byte, hit bool, retries uint64) {
	sd := s.shards[shardOf(key, len(s.shards))]
	v, ok, retr := sd.sh.Tab.SeqGet(s.mem, key)
	if ok {
		rb = AppendResp(rb, seq, StatusOK, v)
	} else {
		rb = AppendResp(rb, seq, StatusNotFound, 0)
	}
	return rb, ok, retr
}

// connReader decodes request frames. Gets, pings, and rejects are
// answered inline into rb, a conn-local response batch that is handed
// to the socket when the inbound buffer drains (the client is waiting
// for answers) or rb fills — so a pipelining client gets its whole
// window answered in one write. Puts reach the shard mailboxes in runs
// (see the drain point) and are acked later through the writer
// goroutine.
//
// The read burst — what one fill of the inbound buffer brought, up to the
// drain point — is the reader's unit of self-measurement. burst is stamped
// at the first get or put decoded after the buffer ran dry: it is the enq
// stamp of every put staged in the burst, and the start of every get's
// latency. Gets are tallied in locals; bookGets, after each response flush
// that carried gets, books them in kvserve_get_latency_seconds as that
// many samples of one duration — burst → the write returned, i.e. request
// decoded → response handed to the socket, the get-side counterpart of
// kvserve_put_latency_seconds, which starts at the same stamp — and adds
// the tallies to the shared counters. A get costs no clock read and no
// shared write; a burst of gets costs one clock pair.
func (s *Server) connReader(cn *srvConn) {
	var burst time.Time
	var gets, misses, retries, retried uint64
	bookGets := func() {
		if gets == 0 {
			return
		}
		s.getLat.ObserveN(uint64(time.Since(burst).Nanoseconds()), gets)
		s.ctGets.Add(gets)
		gets = 0
		if misses != 0 {
			s.ctGetMisses.Add(misses)
			misses = 0
		}
		if retried != 0 {
			s.ctSeqRetries.Add(retries)
			s.ctSeqRetried.Add(retried)
			retries, retried = 0, 0
		}
	}
	defer func() {
		bookGets() // gets whose responses a dying connection never carried
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
	// puts to one shard apply in send order. Their enq stamp is burst, so
	// staging time counts inside the queue stage.
	stage := make([][]request, len(s.shards))
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
			// response, so the sequence space of every other frame is
			// untouched.
			nextTid = key
		case op == OpHello:
			// Capability handshake: grant the intersection of what the
			// client asked for and what we speak.
			granted = key & FeatRepl
			rb = AppendResp(rb, seq, StatusOK, granted)
		case op == OpPing:
			rb = AppendResp(rb, seq, StatusOK, 0)
		case (op != OpGet && op != OpPut) || key == 0:
			rb = AppendResp(rb, seq, StatusBadRequest, 0)
		case s.draining.Load():
			rb = AppendResp(rb, seq, StatusShutdown, 0)
		case op == OpGet:
			if burst.IsZero() {
				burst = time.Now()
			}
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
			if !hit {
				misses++
			}
			if retr != 0 {
				retries += retr
				retried++
			}
		default: // OpPut
			sd := s.shards[shardOf(key, len(s.shards))]
			if s.cfg.Repl != nil {
				// A clustered member admits client puts against its applied
				// topology (see Replicator.Admit). OpReplBatch stays open —
				// the forwarding peer's view is what charged the pair, and
				// refusing the copy would stall that peer's catch-up into us.
				if st := s.cfg.Repl.Admit(key); st != StatusOK {
					rej, ev := sd.obs.rejOver, obs.EvRejectOverload
					if st == StatusMoved {
						rej, ev = sd.obs.rejMoved, obs.EvRejectMoved
					}
					rej.Inc()
					s.trace(ev, int32(sd.id), key, 0)
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
		// write. rb goes to the socket here or past its flush threshold;
		// in between it keeps batching without paying a syscall, and the
		// flush also steals any acks the flushers queued meanwhile: both
		// batches leave in one writev. The gets it carried are booked once
		// the write has returned, and the burst ends after that: the next
		// get or put opens a new one.
		drained := br.Buffered() < ReqSize
		if drained {
			rb = s.pushStages(cn, stage, rb)
		}
		if len(rb) > 0 && (drained || len(rb) >= 512*RespSize) {
			if !s.flushResponses(cn, rb) {
				return
			}
			rb = rb[:0]
			bookGets()
		}
		if drained {
			burst = time.Time{}
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
	rb := &replBatch{cn: cn, seq: seq}
	rb.remaining.Store(int32(count))
	now := time.Now()
	// buf is as long as ReplPayloadLen said: the decode cannot refuse it.
	DecodeReplBatch(count, tcount, buf, func(key, val, tid uint64) {
		if key == 0 {
			rb.reply(StatusBadRequest)
			return
		}
		si := shardOf(key, len(s.shards))
		if tid != 0 {
			s.trace(obs.EvStageEnq, int32(si), tid, key)
		}
		stage[si] = append(stage[si], request{seq: seq, key: key, val: val, enq: now, cn: cn, rb: rb, tid: tid})
	})
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
