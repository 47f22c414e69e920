package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// repl.go is the node-side half of cluster replication: the
// kvserve.Replicator implementation a primary uses to forward puts to
// each key's pair peer and collect the peer's group-commit acks.
//
// Forwarding is batched end to end — the LP amortization idea applied
// to the network: a shard owner hands ForwardBatch its whole sealed
// group-commit batch, the puts bound for one peer travel as a single
// kvserve.OpReplBatch frame (one header, N pairs, one ack), and the
// follower applies the run through its own group commit before
// answering. K network frames + K ack wakeups per batch become 1,
// while the ack still means what it always meant: every put in the
// run is LP-durable on the follower. In-flight runs live in a fixed
// slot ring per session (the same discipline as kvserve's commitItem
// ring): ForwardBatch takes a free slot per destination peer (window
// backpressure), a sender goroutine gathers pending frames into one
// writev, a reader goroutine matches acks back to slots, and the slot
// is itself the run's kvserve.ReplRun: the shard's replication waiter
// waits it once, which settles the run and returns the slot. The
// steady-state forward path allocates nothing.
//
// When a peer is unreachable (dead, lease revoked, or the connection
// just broke), forwards for its slots divert into the peer's delta
// buffer: key → (val, stamp), latest-stamp-wins. Stamps are a per-peer
// monotonic counter taken at Forward time; a key's forwards are issued
// by a single shard owner in order, so stamp order is value order per
// key, and the buffer always holds the newest value the peer missed.
// Catch-up replays the buffer through a fresh session and — the
// ordering handover — enables live forwarding under the same lock that
// guards the buffer, so every replayed put precedes every subsequent
// live forward on the wire. Divergence windows therefore close exactly
// once, in order.
//
// The delta buffer must never hold a key at a stamp older than a
// forward already handed to a session: the newer forward may ack (the
// follower then holds the newer value), and a later drain replaying
// the stale entry would roll the follower back over an acknowledged
// put. The hazard is real — a forward resolved degraded is re-buffered
// by its run's Wait, which can run long after a redial published a new
// session and newer forwards for the same key went (and acked) over it. So
// every forward registers in peerState.sent — per key, the highest
// stamp handed to any session, refcounted by unresolved forwards —
// atomically (under ps.mu) with its wire enqueue; registering also
// evicts any older buffered delta for the key, and both buffering
// paths refuse stamps older than the key's registered high-water.

// replStatus values resolved into a forward slot.
const (
	replAcked    = byte(0)    // follower acked (StatusOK)
	replDegraded = byte(0xFF) // abandoned: conn died / lease revoked / follower refused
)

// noAck is the run ForwardBatch hands out for puts buffered for a peer
// the topology still calls alive (session down mid-redial). Its Wait
// reports false at once: the puts must not be acked at RF=1 while the
// follower's lease stands — the server surfaces backpressure to the
// clients instead.
type noAck struct{}

func (noAck) Wait() bool { return false }

// unclaimed marks a put not yet claimed by any peer group while
// ForwardBatch partitions the batch. Never escapes ForwardBatch: a run
// index is at most the number of pair peers.
const unclaimed = ^uint16(0)

// ReplConfig configures a node's Replicator.
type ReplConfig struct {
	// Self is this node's ID; Forward only forwards keys whose slot
	// lists Self as primary (a follower applying a forwarded put must
	// not echo it back).
	Self string
	// Window is the per-peer in-flight forward budget, counted in
	// replication BATCHES (OpReplBatch frames), not puts (default
	// DefaultReplWindow). One sealed group-commit batch consumes at
	// most one slot per destination peer, so the window must exceed
	// the number of batches the local commit pipeline can hold unacked
	// — Shards × (PipelineDepth + 1), the open batch plus every sealed
	// batch per shard (kvserve.Config.PipelineBatches) — or
	// ForwardBatch's backpressure can deadlock the owners against
	// their own flushers. StartNode validates this against the
	// server's effective geometry and refuses to start on a violation.
	Window int
	// Registry receives the replication metrics (cluster_repl_*).
	Registry *obs.Registry
	// Tracer receives forward-path span events (stage_fwd_*) for puts
	// carrying a trace ID. Usually the node's server tracer, so one
	// /debug/trace drain covers both halves of the pipeline; a nil
	// Tracer gets a private disabled one (events discarded).
	Tracer *obs.Tracer
}

func (c ReplConfig) withDefaults() ReplConfig {
	if c.Window <= 0 {
		c.Window = DefaultReplWindow
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(1)
	}
	return c
}

// deltaEnt is one buffered missed put: latest value and its stamp.
type deltaEnt struct{ val, stamp uint64 }

// sentEnt tracks one key's forwards handed to sessions and not yet
// resolved: top is the highest such stamp ever sent (across session
// generations), n the number of unresolved forwards. The entry is
// dropped when n hits zero — at that point every sent stamp has
// resolved, and any ≤ top resolution already ran through the guard.
type sentEnt struct {
	top uint64
	n   uint32
}

// peerState is everything this node knows about one pair peer.
type peerState struct {
	id    string
	addr  string
	stamp atomic.Uint64               // per-peer forward order, survives sessions
	live  atomic.Pointer[peerSession] // nil → forwards divert to delta
	mu    sync.Mutex                  // guards delta, sent, and the down→live handover
	delta map[uint64]deltaEnt
	sent  map[uint64]sentEnt // key → in-flight forwards' stamp high-water

	// alive mirrors the peer's state in the last applied topology. A
	// session teardown while the peer is still alive (transient conn
	// failure, not a lease expiry) triggers an automatic redial —
	// without it, every later forward would park in the delta buffer,
	// which nothing drains until the peer dies and rejoins.
	alive     atomic.Bool
	redialing atomic.Bool

	gDelta *obs.Gauge // cluster_repl_delta_pending{peer=...}
}

// bufferDelta records a missed put, keeping the newest stamp per key.
// Stamps at or below the key's sent high-water are refused: a forward
// with a newer stamp is (or was) on a session, and its own resolution
// owns the key — it either acked (the follower holds the newer value;
// replaying this one would roll it back) or will re-buffer its newer
// value itself. Callers hold ps.mu.
func (ps *peerState) bufferDeltaLocked(key, val, stamp uint64) {
	if e, ok := ps.sent[key]; ok && stamp < e.top {
		return
	}
	if ps.delta == nil {
		ps.delta = make(map[uint64]deltaEnt)
	}
	if e, ok := ps.delta[key]; !ok || stamp > e.stamp {
		ps.delta[key] = deltaEnt{val: val, stamp: stamp}
	}
	ps.gDelta.Set(int64(len(ps.delta)))
}

// noteSentLocked registers a forward handed to a session: bumps the
// key's unresolved count, raises its stamp high-water, and evicts any
// older buffered delta for the key — the send supersedes it (if the
// send later degrades, its Wait re-buffers it; if it acks, the older
// value must never be replayed). Caller holds ps.mu.
func (ps *peerState) noteSentLocked(key, stamp uint64) {
	if ps.sent == nil {
		ps.sent = make(map[uint64]sentEnt)
	}
	e := ps.sent[key]
	e.n++
	if stamp > e.top {
		e.top = stamp
	}
	ps.sent[key] = e
	if d, ok := ps.delta[key]; ok && d.stamp < stamp {
		delete(ps.delta, key)
		ps.gDelta.Set(int64(len(ps.delta)))
	}
}

// resolvedLocked retires one forward registration and reports whether
// the resolved stamp is the key's newest ever sent — only then may a
// degraded resolution re-buffer its value. Caller holds ps.mu.
func (ps *peerState) resolvedLocked(key, stamp uint64) bool {
	e, ok := ps.sent[key]
	newest := !ok || stamp >= e.top
	if ok {
		e.n--
		if e.n == 0 {
			delete(ps.sent, key)
		} else {
			ps.sent[key] = e
		}
	}
	return newest
}

// slotView is the Forward hot path's routing table, swapped atomically
// on topology pushes: per slot, the pair peer to replicate to, or nil
// when this node is not the slot's primary (or the slot has no pair).
type slotView struct {
	peers []*peerState // len NumSlots
	epoch uint64
	// primary[s] is whether this node holds slot s's primary role at
	// this epoch — Admit's bitmap. Role, not pair
	// membership: forwarding routes by membership (see ApplyTopology),
	// but client puts are authorized against the role so a
	// stale-routed client is told to refresh instead of being served
	// by the member the router stopped sending that slot to.
	primary []bool
}

// Replicator implements kvserve.Replicator over a pushed Topology.
type Replicator struct {
	cfg  ReplConfig
	view atomic.Pointer[slotView]

	mu     sync.Mutex // guards peers, topology application, session creation, closed
	peers  map[string]*peerState
	closed bool

	ctForwards *obs.Counter   // cluster_repl_forwards_total
	ctAcks     *obs.Counter   // cluster_repl_acks_total
	ctDegraded *obs.Counter   // cluster_repl_degraded_total
	ctBuffered *obs.Counter   // cluster_repl_delta_buffered_total
	ctCatchup  *obs.Counter   // cluster_repl_catchup_keys_total
	ctSessions *obs.Counter   // cluster_repl_sessions_total
	gEpoch     *obs.Gauge     // cluster_repl_epoch
	hLag       *obs.Histogram // cluster_repl_lag_seconds: run enqueue → follower ack
	hBatch     *obs.Histogram // cluster_repl_batch_puts: puts per OpReplBatch frame
}

// NewReplicator builds a Replicator with no topology: every
// ForwardBatch forwards nothing until the router pushes one.
func NewReplicator(cfg ReplConfig) *Replicator {
	cfg = cfg.withDefaults()
	root := cfg.Registry.Scope()
	return &Replicator{
		cfg:        cfg,
		peers:      make(map[string]*peerState),
		ctForwards: root.Counter("cluster_repl_forwards_total"),
		ctAcks:     root.Counter("cluster_repl_acks_total"),
		ctDegraded: root.Counter("cluster_repl_degraded_total"),
		ctBuffered: root.Counter("cluster_repl_delta_buffered_total"),
		ctCatchup:  root.Counter("cluster_repl_catchup_keys_total"),
		ctSessions: root.Counter("cluster_repl_sessions_total"),
		gEpoch:     root.Gauge("cluster_repl_epoch"),
		hLag:       root.HistogramScaled("cluster_repl_lag_seconds", 1e-9),
		hBatch:     root.Histogram("cluster_repl_batch_puts"),
	}
}

// Epoch returns the topology epoch this node last applied (0 = none).
func (r *Replicator) Epoch() uint64 {
	if v := r.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// Admit implements kvserve.Replicator (which gives the reasons): Overload
// before the first applied topology, Moved for a key whose slot primary
// role this member does not hold under its applied epoch. Lock-free: one
// atomic view load plus a bitmap index.
func (r *Replicator) Admit(key uint64) byte {
	v := r.view.Load()
	switch {
	case v == nil:
		return kvserve.StatusOverload
	case !v.primary[SlotOf(key)]:
		return kvserve.StatusMoved
	}
	return kvserve.StatusOK
}

// ForwardBatch implements kvserve.Replicator: called by a shard owner
// once per sealed group-commit batch with every put the batch journals.
// The batch is partitioned by destination peer; each peer's run ships
// as one OpReplBatch frame holding one window slot, and is one entry of
// runs that every put of the run indexes through in. in[i] = 0 when put
// i has no forward in flight. tids[i] is put i's trace ID (0 =
// untraced); traced puts travel in the frame's trace extension and
// emit stage_fwd_* span events here.
func (r *Replicator) ForwardBatch(keys, vals, tids []uint64, in []uint16, runs []kvserve.ReplRun) []kvserve.ReplRun {
	v := r.view.Load()
	if v == nil {
		clear(in)
		return runs
	}
	for i := range in {
		in[i] = unclaimed
	}
	for i := range keys {
		if in[i] != unclaimed {
			continue
		}
		ps := v.peers[SlotOf(keys[i])]
		if ps == nil {
			in[i] = 0
			continue
		}
		runs = r.forwardGroup(v, ps, keys, vals, tids, in, runs, i)
	}
	return runs
}

// forwardGroup forwards every unclaimed put at index ≥ from bound for
// ps as one run: through the live session when there is one (a single
// slot claim, a single frame, one run appended), otherwise into the
// peer's delta buffer. Stamps are taken under ps.mu at enqueue/buffer
// time, so per key — each key has exactly one shard owner issuing its
// forwards in order — stamp order is value order.
func (r *Replicator) forwardGroup(v *slotView, ps *peerState, keys, vals, tids []uint64, in []uint16, runs []kvserve.ReplRun, from int) []kvserve.ReplRun {
	mark := uint16(len(runs) + 1)
	if sess := ps.live.Load(); sess != nil {
		if sl := sess.forwardRun(v, keys, vals, tids, in, mark, from); sl != nil {
			r.ctForwards.Add(uint64(len(sl.puts)))
			return append(runs, sl)
		}
	}
	// Degraded path: the peer is down (or its session died under us).
	// Under ps.mu, re-check live — a catch-up handover may have raced
	// us, and the lock is what orders this run after the drained delta.
	ps.mu.Lock()
	if sess := ps.live.Load(); sess != nil {
		ps.mu.Unlock()
		if sl := sess.forwardRun(v, keys, vals, tids, in, mark, from); sl != nil {
			r.ctForwards.Add(uint64(len(sl.puts)))
			return append(runs, sl)
		}
		ps.mu.Lock()
	}
	// While the peer's lease stands this is a transient session gap
	// (redial in progress), not an adjudicated death: the puts may not
	// be acked at RF=1, so they wait on noAck — the delta will drain
	// within the redial backoff, and until then clients get
	// backpressure. After a revoked lease they wait on nothing.
	alive := ps.alive.Load()
	if !alive {
		mark = 0
	}
	n := 0
	for j := from; j < len(keys); j++ {
		if in[j] != unclaimed || v.peers[SlotOf(keys[j])] != ps {
			continue
		}
		ps.bufferDeltaLocked(keys[j], vals[j], ps.stamp.Add(1))
		in[j] = mark
		n++
	}
	ps.mu.Unlock()
	r.ctBuffered.Add(uint64(n))
	if alive {
		runs = append(runs, noAck{})
	}
	return runs
}

// ApplyTopology installs a pushed topology: connects sessions to live
// pair peers (draining any delta first, in order), tears down sessions
// to peers the router declared dead (resolving their in-flight waits
// degraded — the lease unblock), and swaps the Forward routing view.
// Stale epochs are ignored.
func (r *Replicator) ApplyTopology(t *Topology) error {
	if len(t.Slots) != NumSlots {
		return fmt.Errorf("cluster: topology has %d slots, want %d", len(t.Slots), NumSlots)
	}
	if cur := r.view.Load(); cur != nil && t.Epoch <= cur.epoch {
		return nil
	}
	self := t.NodeIndex(r.cfg.Self)
	if self < 0 {
		return fmt.Errorf("cluster: node %q not in topology epoch %d", r.cfg.Self, t.Epoch)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("cluster: replicator closed")
	}
	// Resolve peer states for every other member and record their
	// lease verdicts (before any teardown, so a teardown of a freshly
	// dead peer never spawns a redial).
	for i := range t.Nodes {
		if i == self {
			continue
		}
		ps := r.peerLocked(t.Nodes[i].ID, t.Nodes[i].Addr)
		ps.alive.Store(t.Nodes[i].State == StateAlive)
	}
	// Tear down sessions to peers the router no longer trusts: their
	// in-flight forwards resolve degraded, which is what unwedges a
	// flusher blocked in Wait on a silently-gone follower.
	for i := range t.Nodes {
		if i == self || t.Nodes[i].State == StateAlive {
			continue
		}
		if sess := r.peers[t.Nodes[i].ID].live.Load(); sess != nil {
			sess.teardown()
		}
	}
	// Connect (and delta-drain) live pair peers we forward to. The
	// drain must run even when a session is already live: during the
	// peer's syncing window, forwards it refused re-buffer into the
	// delta while the catch-up session stays published, and puts
	// buffered between the router's last catch-up round and this push
	// were acked at RF=1 (peer not yet alive) on the promise that
	// *something* replays them — this drain is that something.
	// other is the slot's other static pair member when self is any
	// member, else -1. Forwarding is by pair MEMBERSHIP, not by the
	// primary role this node's view assigns: role views converge per
	// node, and a put routed on a stale (or newer) epoch can land on
	// the member that doesn't currently think it is the primary. If
	// that member acked without a forward, the put would exist on one node
	// only — and a later orphan reclaim can hand the slot to the other
	// member, losing an acked key. Pair membership is static, so
	// forwarding to the other member is correct under any role skew,
	// and a received copy is never re-forwarded, so it cannot echo back.
	other := func(sa SlotAssign) int {
		switch self {
		case sa.Primary:
			return sa.Pair
		case sa.Pair:
			return sa.Primary
		}
		return -1
	}
	need := make(map[string]bool)
	for s := range t.Slots {
		if o := other(t.Slots[s]); o >= 0 && t.Nodes[o].State == StateAlive {
			need[t.Nodes[o].ID] = true
		}
	}
	for id := range need {
		// Stay degraded on error: forwards buffer, the router's next
		// push (or explicit catch-up) retries.
		_, _ = r.ensureSessionLocked(r.peers[id])
	}
	// Swap the routing view.
	view := &slotView{
		peers:   make([]*peerState, NumSlots),
		epoch:   t.Epoch,
		primary: make([]bool, NumSlots),
	}
	for s := range t.Slots {
		if o := other(t.Slots[s]); o >= 0 {
			view.peers[s] = r.peers[t.Nodes[o].ID]
		}
		view.primary[s] = t.Slots[s].Primary == self
	}
	r.view.Store(view)
	r.gEpoch.Set(int64(t.Epoch))
	return nil
}

// peerLocked finds or creates the peer record. Caller holds r.mu.
func (r *Replicator) peerLocked(id, addr string) *peerState {
	ps := r.peers[id]
	if ps == nil {
		ps = &peerState{id: id, addr: addr,
			gDelta: r.cfg.Registry.Scope("peer", id).Gauge("cluster_repl_delta_pending")}
		r.peers[id] = ps
	}
	ps.addr = addr
	return ps
}

// Catchup dials the (now serving) peer if needed, replays its delta
// buffer through the session, waits for the peer's acks, and enables
// live forwarding — the rejoin drain the router triggers through the
// node's /cluster/catchup endpoint. Returns the number of keys
// replayed. Idempotent: a live peer with an empty buffer returns 0.
func (r *Replicator) Catchup(peerID string) (int, error) {
	r.mu.Lock()
	ps := r.peers[peerID]
	if ps == nil || r.closed {
		r.mu.Unlock()
		if ps == nil {
			return 0, fmt.Errorf("cluster: unknown peer %q", peerID)
		}
		return 0, fmt.Errorf("cluster: replicator closed")
	}
	n, err := r.ensureSessionLocked(ps)
	r.mu.Unlock()
	return n, err
}

// ensureSessionLocked makes ps live: dial, then — under ps.mu, so no
// Forward can interleave — enqueue the entire delta buffer into the
// fresh session and publish it. Everything a live Forward sends after
// the publish is ordered behind the drained delta on the wire. The
// drained forwards are waited (and on failure re-buffered) by a
// drainer goroutine so this never deadlocks the caller against the
// window. Caller holds r.mu; returns the number of keys drained.
func (r *Replicator) ensureSessionLocked(ps *peerState) (int, error) {
	if sess := ps.live.Load(); sess != nil {
		// Already live: nothing buffered by construction (buffering
		// only happens while live is nil... except for degraded waits
		// racing in; drain those too, through the live session).
		return r.drainDeltaLocked(ps, sess), nil
	}
	conn, err := net.DialTimeout("tcp", ps.addr, replDialTimeout)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial peer %s (%s): %w", ps.id, ps.addr, err)
	}
	if err := helloRepl(conn, replDialTimeout); err != nil {
		conn.Close()
		return 0, fmt.Errorf("cluster: replication hello to peer %s (%s): %w", ps.id, ps.addr, err)
	}
	r.ctSessions.Inc()
	sess := newPeerSession(r, ps, conn, int32(r.ctSessions.Load()))
	return r.drainDeltaLocked(ps, sess), nil
}

// helloRepl negotiates FeatRepl on a freshly dialed connection, before
// the session's sender and reader exist: the peer accepts OpReplBatch
// frames only on a connection it granted the bit. A peer that refuses —
// one that predates the bit — leaves the caller degraded, as a failed
// dial does.
func helloRepl(conn net.Conn, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout)) // fails only on a closed conn; Write reports that
	defer conn.SetDeadline(time.Time{})
	var req [kvserve.ReqSize]byte
	kvserve.EncodeReq(&req, kvserve.OpHello, 0, kvserve.FeatRepl, 0)
	if _, err := conn.Write(req[:]); err != nil {
		return err
	}
	var resp [kvserve.RespSize]byte
	if _, err := io.ReadFull(conn, resp[:]); err != nil {
		return err
	}
	if _, status, granted := kvserve.DecodeResp(&resp); status != kvserve.StatusOK || granted&kvserve.FeatRepl == 0 {
		return fmt.Errorf("refused (%s, granted %#x)", kvserve.StatusName(status), granted)
	}
	return nil
}

// drainDeltaLocked replays ps's delta through sess and publishes the
// session as live. Caller holds r.mu (serializing drains); ps.mu is
// held across each chunk's slot claim and enqueue (drainRunLocked
// claims non-blockingly, so holding the lock cannot deadlock against
// Wait, which needs it to retire send registrations) and released
// between chunks. Each chunk packs up to drainChunk puts into ONE
// OpReplBatch run — one slot, one frame, one ack — so a delta bigger
// than a frame drains in waited installments rather than wedging on
// its own backpressure. The final chunk is enqueued under ps.mu and
// the live publish happens before the lock drops, so every concurrent
// ForwardBatch that raced into the degraded path lands on the wire
// after the whole drain. A fresh session returns from here published
// or down: its window is this drain's alone, so a claim fails only
// once the session died — and a session that dies around its publish
// is unpublished again, by its teardown or by the re-check below.
func (r *Replicator) drainDeltaLocked(ps *peerState, sess *peerSession) int {
	total := 0
	for {
		ps.mu.Lock()
		final := len(ps.delta) <= drainChunk
		sl, ok := sess.drainRunLocked(drainChunk)
		if final && ok {
			ps.live.Store(sess)
			// down is stored before teardown's unpublish: either that
			// unpublish follows this publish, or we see down here.
			if sess.down.Load() {
				ps.live.CompareAndSwap(sess, nil)
			}
		}
		ps.mu.Unlock()
		if sl != nil {
			total += len(sl.puts)
			r.ctCatchup.Add(uint64(len(sl.puts)))
			// Waited even if the session dies meanwhile: an unwaited run
			// would leak its window slot forever, and its puts
			// (re-buffered by Wait only while still each key's newest
			// send) would silently vanish from the delta. Failures
			// re-buffer by stamp, so they never clobber newer live
			// forwards' values.
			sl.Wait()
		}
		if !ok || final {
			// !ok: the session died (or its window is contended — only
			// possible when it was already live) before the chunk left
			// the delta; the router's next catch-up round dials a fresh
			// session or retries this one.
			return total
		}
	}
}

// drainChunk bounds the puts packed into one catch-up OpReplBatch run
// (half the wire-protocol ceiling — ~32 KiB frames).
const drainChunk = kvserve.MaxReplBatch / 2

// redial heals a torn-down session to a peer the topology still calls
// alive: retry the dial with capped backoff until the session is back
// (delta drained first, same handover as a catch-up), the peer's lease
// expires, or the replicator closes. At most one loop per peer runs.
func (r *Replicator) redial(ps *peerState) {
	if !ps.alive.Load() || !ps.redialing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		backoff := 2 * time.Millisecond
		for done := false; !done; {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 200*time.Millisecond {
				backoff = 200 * time.Millisecond
			}
			r.mu.Lock()
			if r.closed || !ps.alive.Load() || ps.live.Load() != nil {
				done = true
			} else if _, err := r.ensureSessionLocked(ps); err == nil {
				done = true
			}
			r.mu.Unlock()
		}
		ps.redialing.Store(false)
		// A teardown racing our exit found redialing still set and
		// lost its trigger to the CAS; re-check so the peer is never
		// left live-less with no loop running.
		if ps.alive.Load() && ps.live.Load() == nil {
			r.redial(ps)
		}
	}()
}

// DeltaLen reports the pending delta size for a peer (0 if unknown) —
// the router polls this signal via /cluster/catchup responses.
func (r *Replicator) DeltaLen(peerID string) int {
	r.mu.Lock()
	ps := r.peers[peerID]
	r.mu.Unlock()
	if ps == nil {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.delta)
}

// Close tears down every session; in-flight Waits resolve degraded.
// The published sessions are all of them: sessions are made under r.mu,
// which Close takes, and one that drainDeltaLocked left unpublished is
// already down.
func (r *Replicator) Close() {
	r.mu.Lock()
	r.closed = true
	var live []*peerSession
	for _, ps := range r.peers {
		if s := ps.live.Load(); s != nil {
			live = append(live, s)
		}
	}
	r.mu.Unlock()
	for _, s := range live {
		s.teardown()
	}
}

// ---------------------------------------------------------------------
// peerSession: one pipelined forwarding connection.

// replPut is one put of a forwarded run. tid is the put's trace ID
// (0 = untraced): traced puts ride the frame's trace extension and
// emit stage_fwd_* events; delta-drain replays always carry 0 — the
// original request's span ended when its client was answered.
type replPut struct{ key, val, stamp, tid uint64 }

// fwdSlot holds one in-flight OpReplBatch run: its puts, the encoded
// wire frame (both backings reused across occupancies), and the
// resolution its single Wait receives. A slot is the run's
// kvserve.ReplRun, so a run reaches its session without any lookup.
type fwdSlot struct {
	s        *peerSession
	idx      uint32 // position in s.slots, the frame's seq
	puts     []replPut
	frame    []byte
	t0       int64       // enqueue ns, for the lag histogram
	inflight atomic.Bool // set at enqueue, cleared by exactly one resolver
	done     chan byte   // cap 1, reused across occupancies
}

type peerSession struct {
	r  *Replicator
	ps *peerState
	id int32 // cluster_repl_sessions_total at dial: the src of stage_fwd_* events

	conn  net.Conn
	slots []fwdSlot
	freeq chan uint32
	sendq chan uint32
	quit  chan struct{}
	down  atomic.Bool
	once  sync.Once
}

func newPeerSession(r *Replicator, ps *peerState, conn net.Conn, id int32) *peerSession {
	w := r.cfg.Window
	s := &peerSession{
		r: r, ps: ps, id: id,
		conn:  conn,
		slots: make([]fwdSlot, w),
		freeq: make(chan uint32, w),
		sendq: make(chan uint32, w),
		quit:  make(chan struct{}),
	}
	for i := range s.slots {
		s.slots[i] = fwdSlot{s: s, idx: uint32(i), done: make(chan byte, 1)}
		s.freeq <- uint32(i)
	}
	go s.sender()
	go s.reader()
	return s
}

// forwardRun claims a slot (blocking — window backpressure), packs
// every unclaimed put at index ≥ from that routes to this session's
// peer into it, and enqueues the frame, setting each claimed put's in
// entry to mark. Returns the run's slot, or nil when the session is
// down — the caller then buffers the same puts instead.
func (s *peerSession) forwardRun(v *slotView, keys, vals, tids []uint64, in []uint16, mark uint16, from int) *fwdSlot {
	if s.down.Load() {
		return nil
	}
	idx := <-s.freeq
	s.ps.mu.Lock()
	defer s.ps.mu.Unlock()
	if s.down.Load() {
		s.freeq <- idx
		return nil
	}
	sl := &s.slots[idx]
	sl.puts = sl.puts[:0]
	for j := from; j < len(keys); j++ {
		if in[j] != unclaimed || v.peers[SlotOf(keys[j])] != s.ps {
			continue
		}
		stamp := s.ps.stamp.Add(1)
		sl.puts = append(sl.puts, replPut{key: keys[j], val: vals[j], stamp: stamp, tid: tids[j]})
		s.ps.noteSentLocked(keys[j], stamp)
		in[j] = mark
	}
	s.commitRunLocked(sl)
	return sl
}

// drainRunLocked packs up to max delta entries into one run and
// enqueues it, returning the run's slot (nil when nothing was sent).
// The slot claim is non-blocking: a blocking claim under ps.mu would
// deadlock against Wait, which needs the lock to retire registrations
// before it frees the slot. A contended window reads as failure — the
// caller gives up and the router's next round retries. Caller holds
// ps.mu. ok=false means the session is unusable; a nil slot with
// ok=true means the delta was already empty.
func (s *peerSession) drainRunLocked(max int) (sl *fwdSlot, ok bool) {
	ps := s.ps
	if len(ps.delta) == 0 {
		return nil, !s.down.Load()
	}
	if s.down.Load() {
		return nil, false
	}
	var idx uint32
	select {
	case idx = <-s.freeq:
	default:
		return nil, false
	}
	sl = &s.slots[idx]
	sl.puts = sl.puts[:0]
	for k, e := range ps.delta {
		if len(sl.puts) == max {
			break
		}
		delete(ps.delta, k)
		sl.puts = append(sl.puts, replPut{key: k, val: e.val, stamp: e.stamp})
		ps.noteSentLocked(k, e.stamp)
	}
	ps.gDelta.Set(int64(len(ps.delta)))
	s.commitRunLocked(sl)
	return sl, true
}

// commitRunLocked arms a filled slot's resolution and hands it to the
// sender. Registration (already done by the caller) and enqueue happen
// under one continuous ps.mu hold — the invariant that lets Wait trust
// the sent map: no resolution can observe a send that isn't
// registered. The enqueue never blocks: sendq holds the whole window,
// and a slot is queued at most once per occupancy. Caller holds ps.mu.
func (s *peerSession) commitRunLocked(sl *fwdSlot) {
	sl.t0 = time.Now().UnixNano()
	sl.inflight.Store(true)
	s.r.hBatch.Observe(uint64(len(sl.puts)))
	if s.r.cfg.Tracer.Enabled() {
		s.traceRun(obs.EvStageFwdEnq, sl, uint64(len(sl.puts)))
	}
	s.sendq <- sl.idx
	// The session may have died since the caller's down check: if
	// teardown's resolve sweep ran before the inflight store, it skipped
	// this slot and the sender is gone — nothing would ever resolve it.
	// down is stored before the sweep, so (seq-cst atomics) either the
	// sweep saw our inflight store, or we see down here and resolve the
	// run ourselves; its Wait then re-buffers the puts. resolve is
	// exactly-once, a double no-ops.
	if s.down.Load() {
		s.resolve(sl.idx, replDegraded)
	}
}

// Wait implements kvserve.ReplRun, once per run: blocks for the run's
// resolution, settles its delta bookkeeping and returns the slot to the
// window. A degraded put re-enters the delta buffer only if its stamp
// is still the key's newest ever sent (resolvedLocked): a newer forward
// for the key — possibly on a successor session published by a redial
// before this Wait ran — owns the key's delta fate, and re-buffering
// the older value here would let a later drain roll the follower back
// over an acked newer put. The return value is ack eligibility, not
// transport success: a degraded run is still ackable iff the peer's
// lease has been revoked (RF=1 by design); while the lease stands,
// degradation means the follower refused the run or the session died
// transiently — not ackable.
func (sl *fwdSlot) Wait() bool {
	s := sl.s
	st := <-sl.done
	s.settle(sl, st)
	ok := st == replAcked || !s.ps.alive.Load()
	s.freeq <- sl.idx
	return ok
}

// settle retires a resolved run's send registrations and, on
// degradation, re-buffers each put still holding its key's newest
// stamp.
func (s *peerSession) settle(sl *fwdSlot, st byte) {
	n := uint64(len(sl.puts))
	s.ps.mu.Lock()
	if st == replAcked {
		for _, p := range sl.puts {
			s.ps.resolvedLocked(p.key, p.stamp)
		}
	} else {
		for _, p := range sl.puts {
			if s.ps.resolvedLocked(p.key, p.stamp) {
				s.ps.bufferDeltaLocked(p.key, p.val, p.stamp)
			}
		}
	}
	s.ps.mu.Unlock()
	if st == replAcked {
		s.r.ctAcks.Add(n)
	} else {
		s.r.ctDegraded.Add(n)
	}
}

// traceRun records one stage_fwd_* span event per traced put of a
// slot's run. Callers gate on the tracer's enable bit so the untraced
// path pays nothing beyond that load.
func (s *peerSession) traceRun(typ obs.EventType, sl *fwdSlot, b uint64) {
	tr := s.r.cfg.Tracer
	ts := time.Now().UnixNano()
	for i := range sl.puts {
		if tid := sl.puts[i].tid; tid != 0 {
			tr.Record(typ, s.id, ts, tid, b)
		}
	}
}

// resolve completes a slot exactly once.
func (s *peerSession) resolve(idx uint32, st byte) {
	sl := &s.slots[idx]
	if sl.inflight.CompareAndSwap(true, false) {
		if st == replAcked {
			s.r.hLag.Observe(uint64(time.Now().UnixNano() - sl.t0))
		}
		if s.r.cfg.Tracer.Enabled() {
			s.traceRun(obs.EvStageFwdAck, sl, uint64(st))
		}
		sl.done <- st
	}
}

// encodeFrame (re)builds a slot's OpReplBatch wire frame into its
// reusable buffer (kvserve.AppendReplBatch owns the layout; the slot
// index is the frame's seq). Encoding happens right before the sender's
// writev, so this is also where traced puts get their stage_fwd_write
// event.
func (s *peerSession) encodeFrame(idx uint32) []byte {
	sl := &s.slots[idx]
	sl.frame = kvserve.AppendReplBatch(sl.frame[:0], idx, len(sl.puts), func(i int) (key, val, tid uint64) {
		p := &sl.puts[i]
		return p.key, p.val, p.tid
	})
	if s.r.cfg.Tracer.Enabled() {
		s.traceRun(obs.EvStageFwdWrite, sl, uint64(len(sl.frame)))
	}
	return sl.frame
}

// sender drains the send queue, gathering every pending run's frame
// into one vectored write — net.Buffers.WriteTo uses writev on TCP
// connections, so syscalls scale with wakeups, not runs (let alone
// puts). iov's backing array is rebuilt every round because WriteTo
// consumes the slice and nils its elements.
func (s *peerSession) sender() {
	iov := make(net.Buffers, 0, 16)
	for {
		select {
		case <-s.quit:
			return
		case idx := <-s.sendq:
			iov = append(iov[:0], s.encodeFrame(idx))
			for len(s.sendq) > 0 && len(iov) < cap(iov) {
				iov = append(iov, s.encodeFrame(<-s.sendq))
			}
			if _, err := iov.WriteTo(s.conn); err != nil {
				s.teardown()
				return
			}
		}
	}
}

// reader matches the follower's acks back to slots. Anything but OK —
// Full, BadRequest, Shutdown — degrades the run into the delta buffer;
// while the follower's lease stands, Wait then reports its puts
// unackable, so the clients see backpressure rather than a silent RF=1
// ack the delta would have to make good on. There is nothing to
// resend: a follower never answers a run Overload, since its members
// block on a full mailbox (kvserve's pushStages) — the session's TCP
// window is the run's backpressure.
func (s *peerSession) reader() {
	br := bufio.NewReaderSize(s.conn, 1<<16)
	var buf [kvserve.RespSize]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			s.teardown()
			return
		}
		seq, status, _ := kvserve.DecodeResp(&buf)
		if int(seq) >= len(s.slots) {
			s.teardown() // an ack outside the window: framing is lost
			return
		}
		st := replAcked
		if status != kvserve.StatusOK {
			st = replDegraded
		}
		s.resolve(seq, st)
	}
}

// teardown poisons the session: unpublishes it from the peer, closes
// the connection, and resolves every in-flight slot degraded so no
// flusher stays blocked in Wait. A teardown while the peer is still
// alive per the last topology is a transient failure — kick off the
// redial loop so replication heals without waiting for an epoch bump.
func (s *peerSession) teardown() {
	s.once.Do(func() {
		s.down.Store(true)
		s.ps.live.CompareAndSwap(s, nil)
		close(s.quit)
		s.conn.Close()
		for i := range s.slots {
			s.resolve(uint32(i), replDegraded)
		}
		s.r.redial(s.ps)
	})
}
