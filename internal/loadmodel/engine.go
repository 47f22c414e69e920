package loadmodel

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// Options drives Run, the one client engine.
type Options struct {
	Conns  int // client connections; default 2
	Window int // in-flight ops per connection; default 32

	// MaxRetries bounds the re-sends of one op after StatusOverload,
	// StatusMoved, or (under Reconnect) a dead connection, each behind
	// a jittered exponential backoff. Zero means never retry: the first
	// answer is final — what a trace replay wants, since an open loop
	// measures what the server did with the offered load instead of
	// reshaping the load around the server.
	MaxRetries int

	// Route, when non-nil, makes each connection a smart client: every
	// op goes to Route(key) — one pipelined connection per distinct
	// target — falling back to Run's addr argument when Route returns
	// "". Retries re-route, so an op whose first target died lands on
	// the promoted primary once the routing table catches up.
	Route func(key uint64) string
	// Refresh, when non-nil, is called after a dial failure, a lost
	// connection, or a StatusMoved answer, before the affected ops
	// reissue — the hook smart clients use to re-fetch the routing
	// table. Called from many goroutines.
	Refresh func()
	// Reconnect makes connections survive failures instead of ending
	// their share of the run: ops in flight on a failed connection
	// requeue (bounded by MaxRetries each) and the target is redialed
	// with backoff on next use. Without it any dial, send, or receive
	// error stops that connection and the report is Partial.
	Reconnect bool

	// Interval, when positive and Progress is non-nil, writes a
	// windowed progress line to Progress every Interval.
	Interval time.Duration
	Progress io.Writer

	// TraceEvery, when positive, mints a client-side trace ID for every
	// TraceEvery-th op a connection issues (1 = every op) and ships it
	// ahead of the op as an OpTraceCtx prefix. Traced ops record
	// client_send and client_ack span events into Tracer when it is
	// non-nil and enabled.
	TraceEvery int
	Tracer     *obs.Tracer

	// OnSend fires before a put's first send, OnAck when a put is acked
	// StatusOK. Both may be nil; both are called from many goroutines.
	OnSend func(conn int, key, val uint64)
	OnAck  func(conn int, key, val uint64)
}

// A Source supplies a run's ops and says when each is due. MixLoad
// marks every op due the moment it is drawn, so the window paces the
// run; a *Trace marks op i due at start + Op.At, so the schedule does.
type Source interface {
	open(conns int) (feed, error)
}

// feed is an opened Source. stream(c) is connection c's supply:
// next(nowNs) yields the next op, whose At is its due offset from the
// run's start, or false once the supply is exhausted.
type feed struct {
	name    string
	classes []string
	durNs   int64 // nominal schedule length; rates normalize over max(durNs, elapsed)
	stream  func(c int) (next func(nowNs int64) (Op, bool))
}

// MixLoad is the kvgen-driven Source: connection c replays kvgen
// stream c mod Streams, or under InsertOnly an endless run of unique
// keys disjoint from the preload and from every other connection (the
// shape the crash tests need). Streams/Keys/Seed must match the
// server's Config so reads hit the preloaded key space.
type MixLoad struct {
	Mix  string // kvgen mix "a" | "b" | "c" | "d"; default "a"
	Dist string // "zipfian" | "uniform"; default "zipfian"

	Streams int    // default 4
	Keys    int    // default 2048
	Seed    uint64 // default 1

	InsertOnly bool
	Ops        int // ops per connection; 0 = run until Dur elapses
	Dur        time.Duration
}

func (m MixLoad) open(int) (feed, error) {
	if m.Ops == 0 && m.Dur == 0 {
		m.Ops = 1000
	}
	if m.Mix == "" {
		m.Mix = "a"
	}
	if m.Dist == "" {
		m.Dist = "zipfian"
	}
	if m.Streams == 0 {
		m.Streams = 4
	}
	if m.Keys == 0 {
		m.Keys = 2048
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	mix, ok := workloads.KVMixByName(m.Mix)
	if !ok {
		return feed{}, fmt.Errorf("loadmodel: unknown mix %q", m.Mix)
	}
	name := "mix-" + m.Mix
	if m.InsertOnly {
		name = "insert"
	}
	return feed{name: name, classes: []string{"all"}, stream: func(c int) func(int64) (Op, bool) {
		var gen *workloads.KVGen
		if !m.InsertOnly {
			gen = workloads.NewKVGen(m.Seed, c%m.Streams, m.Keys, mix, m.Dist)
		}
		n := 0
		return func(nowNs int64) (Op, bool) {
			if (m.Ops > 0 && n >= m.Ops) || (m.Dur > 0 && nowNs >= int64(m.Dur)) {
				return Op{}, false
			}
			op := Op{At: nowNs, Client: int32(c), IsPut: true}
			if m.InsertOnly {
				// Stream ids past the server's preloaded streams, so the
				// keys collide with nothing.
				op.Key = workloads.KVKey(m.Streams+c, n)
				op.Val = workloads.KVInitVal(m.Seed^0x9e3779b97f4a7c15, op.Key)
			} else if kv := gen.Next(); kv.Kind == workloads.KVRead {
				op.IsPut, op.Key = false, kv.Key
			} else {
				op.Key, op.Val = kv.Key, kv.Val
			}
			n++
			return op, true
		}
	}}, nil
}

// open splits the trace over connections by Client mod conns, keeping
// every client's ops in order on one connection.
func (tr *Trace) open(conns int) (feed, error) {
	classes := tr.Header.Classes
	if len(classes) == 0 {
		classes = []string{"all"}
	}
	perConn := make([][]int32, conns)
	for i := range tr.Ops {
		if int(tr.Ops[i].Class) >= len(classes) {
			return feed{}, fmt.Errorf("loadmodel: op %d references class %d of %d", i, tr.Ops[i].Class, len(classes))
		}
		c := int(tr.Ops[i].Client) % conns
		perConn[c] = append(perConn[c], int32(i))
	}
	return feed{name: tr.Header.Name, classes: classes, durNs: tr.Header.DurNs,
		stream: func(c int) func(int64) (Op, bool) {
			list := perConn[c]
			return func(int64) (Op, bool) {
				if len(list) == 0 {
					return Op{}, false
				}
				op := tr.Ops[list[0]]
				list = list[1:]
				return op, true
			}
		}}, nil
}

// TargetStat is the per-backend slice of a Report, keyed by the
// address ops were sent to — with Route one entry per cluster node the
// run touched, otherwise a single entry.
type TargetStat struct {
	Addr      string `json:"addr"`
	Ops       uint64 `json:"ops"` // settled ops whose final response came from here
	AckedPuts uint64 `json:"acked_puts"`
	Dials     uint64 `json:"dials"`  // connections opened (first + re-dials)
	Resets    uint64 `json:"resets"` // connections that died mid-use
}

// Report is Run's result. Per-class rows reuse ClassPlan so a
// prediction and a measurement compare field by field.
//
// Class latencies are *service* latencies of served ops (StatusOK and
// StatusNotFound) — first send to final response, retries included —
// because that is what the planner models; percentiles are bucket
// upper bounds of a log-scale histogram (≤12.5% relative error). The
// coordinated-omission view, latency from each op's due time, is kept
// in SchedP50us/SchedP99us. Stalls counts ops that were due and found
// no free slot: under MixLoad that is nearly every op, by construction
// — the window is the pacer — while for a trace it is how often the
// open loop degraded to a closed one at Window. LagMaxUs/LagOps say
// how far the issuer itself slipped behind a trace's schedule (always
// zero for MixLoad, whose ops are due when drawn). A trace run where
// the two latency views diverge wildly was client-bound and is a poor
// validation target; the split makes that visible instead of folding
// host timer noise into the server's percentiles.
type Report struct {
	Spec     string  `json:"spec"`
	Conns    int     `json:"conns"`
	Window   int     `json:"window"`
	ElapsedS float64 `json:"elapsed_s"`

	Ops        uint64  `json:"ops"` // settled ops, any final status
	Throughput float64 `json:"throughput_ops_s"`
	AckedPuts  uint64  `json:"acked_puts"`
	Gets       uint64  `json:"gets"`
	NotFound   uint64  `json:"not_found"`
	Retries    uint64  `json:"retries"`
	Moved      uint64  `json:"moved"`  // StatusMoved answers seen (stale routing)
	Errors     uint64  `json:"errors"` // ops abandoned to connection failures, or answered with an unexpected status

	// Total and Classes count every reject answer seen, so with
	// retries on an op can contribute more than one.
	Total   ClassPlan   `json:"total"`
	Classes []ClassPlan `json:"classes"`

	SchedP50us float64 `json:"sched_p50_us"`
	SchedP99us float64 `json:"sched_p99_us"`
	Stalls     uint64  `json:"stalls"`
	LagMaxUs   float64 `json:"lag_max_us"`
	LagOps     uint64  `json:"lag_ops"` // ops dispatched > 1ms late

	// Targets breaks the run down per backend address, sorted by
	// address. ConnResets totals their Resets — nonzero under failover.
	Targets    []TargetStat `json:"targets,omitempty"`
	ConnResets uint64       `json:"conn_resets,omitempty"`

	// Partial is set when a connection gave up (a failure without
	// Reconnect): the figures cover only the ops that settled.
	Partial bool `json:"partial,omitempty"`
}

// classStats accumulates one class's outcomes across all connections.
type classStats struct {
	hist, putHist               obs.Histogram // served-op latency, ns
	offered, served, over, full atomic.Uint64
}

func (a *classStats) plan(name string, durS float64) ClassPlan {
	return classPlanOf(name, int(a.offered.Load()), durS, &a.hist, &a.putHist,
		a.served.Load(), a.over.Load(), a.full.Load())
}

// targetStats aggregates one backend address across all connections.
type targetStats struct {
	ops, acked, dials, resets atomic.Uint64
}

// engine is the state one Run shares between its connections and its
// progress reporter.
type engine struct {
	o     Options
	base  string
	start time.Time

	classes []classStats
	sched   obs.Histogram // served-op latency from due time, ns

	settled, acked, gets, notFound atomic.Uint64
	retries, moved, errs, resets   atomic.Uint64
	stalls, lagOps                 atomic.Uint64
	lagMaxNs                       obs.Gauge
	partial                        atomic.Bool
	dialErr                        atomic.Pointer[error]

	mu      sync.Mutex
	targets map[string]*targetStats
}

func (e *engine) target(addr string) *targetStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.targets[addr]
	if c == nil {
		c = &targetStats{}
		e.targets[addr] = c
	}
	return c
}

// Run drives src against addr over Conns pipelined connections under
// one issue rule: an op leaves when it is due and a slot is free.
// Every MixLoad op is due at once, so the window paces and the run is
// a closed loop; a trace's ops are due on their schedule, so the
// schedule paces and a full window is counted as a stall. The report
// is non-nil even alongside an error.
func Run(addr string, src Source, o Options) (*Report, error) {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.Window <= 0 {
		o.Window = 32
	}
	fd, err := src.open(o.Conns)
	if err != nil {
		return &Report{}, err
	}
	e := &engine{
		o: o, base: addr,
		classes: make([]classStats, len(fd.classes)),
		targets: make(map[string]*targetStats),
		start:   time.Now(),
	}

	stopProg := make(chan struct{})
	var progWG sync.WaitGroup
	if o.Interval > 0 && o.Progress != nil {
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			e.progress(stopProg)
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < o.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := &conn{e: e, id: c, next: fd.stream(c)}
			if !cn.run() {
				e.partial.Store(true)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(e.start)
	// The reporter is joined before the caller gets its writer back.
	close(stopProg)
	progWG.Wait()

	rep := e.report(fd, elapsed)
	if ep := e.dialErr.Load(); ep != nil && rep.Ops == 0 {
		return rep, *ep
	}
	return rep, nil
}

// progress prints a windowed line every Interval: throughput and window
// percentiles from the merged class histograms, plus the cumulative
// reject counters by cause — live visibility into admission control
// during bursty runs.
func (e *engine) progress(stop <-chan struct{}) {
	tick := time.NewTicker(e.o.Interval)
	defer tick.Stop()
	var prev obs.HistSnapshot
	var prevOps uint64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var merged obs.Histogram
		var over, full uint64
		for i := range e.classes {
			a := &e.classes[i]
			merged.Merge(&a.hist)
			over += a.over.Load()
			full += a.full.Load()
		}
		cur := merged.Snapshot()
		win := cur.Sub(prev)
		ops := e.settled.Load()
		fmt.Fprintf(e.o.Progress,
			"lpload: t=%.1fs ops=%d (%.0f ops/s) p50 %.0fµs p99 %.0fµs p999 %.0fµs max %.0fµs rej ov/full=%d/%d\n",
			time.Since(e.start).Seconds(), ops,
			float64(ops-prevOps)/e.o.Interval.Seconds(),
			float64(win.Quantile(0.50))/1e3, float64(win.Quantile(0.99))/1e3,
			float64(win.Quantile(0.999))/1e3, float64(win.Max)/1e3,
			over, full)
		prev, prevOps = cur, ops
	}
}

func (e *engine) report(fd feed, elapsed time.Duration) *Report {
	rep := &Report{
		Spec: fd.name, Conns: e.o.Conns, Window: e.o.Window,
		ElapsedS: elapsed.Seconds(),
		Ops:      e.settled.Load(), AckedPuts: e.acked.Load(),
		Gets: e.gets.Load(), NotFound: e.notFound.Load(),
		Retries: e.retries.Load(), Moved: e.moved.Load(), Errors: e.errs.Load(),
		Stalls: e.stalls.Load(), LagOps: e.lagOps.Load(),
		LagMaxUs:   float64(e.lagMaxNs.Load()) / 1e3,
		ConnResets: e.resets.Load(),
		Partial:    e.partial.Load(),
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	durS := max(float64(fd.durNs)/1e9, elapsed.Seconds())
	var total classStats
	for i := range e.classes {
		a := &e.classes[i]
		rep.Classes = append(rep.Classes, a.plan(fd.classes[i], durS))
		total.hist.Merge(&a.hist)
		total.putHist.Merge(&a.putHist)
		total.offered.Add(a.offered.Load())
		total.served.Add(a.served.Load())
		total.over.Add(a.over.Load())
		total.full.Add(a.full.Load())
	}
	rep.Total = total.plan("total", durS)
	ss := e.sched.Snapshot()
	rep.SchedP50us = float64(ss.Quantile(0.50)) / 1e3
	rep.SchedP99us = float64(ss.Quantile(0.99)) / 1e3
	for a, c := range e.targets {
		rep.Targets = append(rep.Targets, TargetStat{
			Addr: a, Ops: c.ops.Load(), AckedPuts: c.acked.Load(),
			Dials: c.dials.Load(), Resets: c.resets.Load(),
		})
	}
	sort.Slice(rep.Targets, func(i, j int) bool { return rep.Targets[i].Addr < rep.Targets[j].Addr })
	return rep
}

// Each connection is a slot machine, not a goroutine-per-op fan-out:
// the sequence number IS the slot index, so an in-flight op costs a
// slot in a fixed array instead of a goroutine, a channel, and a map
// entry. The connection's main loop is the sole owner of the slots;
// per-target reader goroutines push events into one merged channel and
// never touch slot state, so a late response from a connection that
// already died is recognized (its generation stamp mismatches) and
// dropped instead of corrupting a reissued op. Request frames leave
// through per-target bufio.Writers flushed only when the loop is about
// to wait, so a full window leaves in one or two syscalls.

// slot is one in-flight op. tgt/gen stamp which connection carried the
// last send, so responses and failure sweeps can tell a live occupancy
// from a stale one.
type slot struct {
	op        Op
	tid       uint64 // trace ID (0 = untraced); survives retries
	t0        time.Time
	attempt   int
	notBefore time.Time
	retry     bool
	tgt       *target
	gen       uint32
}

// event is a reader→main-loop message for (tgt, gen): a response for
// slot ≥ 0, or the reader's exit (evDown, exactly one per dial).
type event struct {
	slot   int
	status byte
	at     time.Time // when the reader saw it
	tgt    *target
	gen    uint32
}

const evDown = -1

// target is one conn's TCP connection to one backend address.
type target struct {
	addr  string
	c     net.Conn
	bw    *bufio.Writer
	gen   uint32 // bumped per dial; stamps slots and events
	up    bool
	dirty bool // has unflushed frames

	dialAttempt int
	notBefore   time.Time // redial backoff deadline

	st *targetStats
}

// conn is one logical client connection: a window of slots, its share
// of the source, and a TCP connection per routed target.
type conn struct {
	e    *engine
	id   int
	next func(nowNs int64) (Op, bool)

	targets     map[string]*target
	events      chan event
	readers     int // reader goroutines that have not yet sent evDown
	timer       *time.Timer
	slots       []slot
	avail       []int
	retryQ      []int
	outstanding int // slots issued and not settled (on the wire or queued)
	wire        int // slots actually on a connection
	issued      int

	// tidBase/tidSeq mint this conn's client-side trace IDs: wall-
	// derived high bits ORed with the conn index, so IDs are unique
	// across conns, runs, and the server's own tail-sampled mints.
	tidBase, tidSeq uint64
}

// route returns the backend address for key.
func (cn *conn) route(key uint64) string {
	if cn.e.o.Route != nil {
		if a := cn.e.o.Route(key); a != "" {
			return a
		}
	}
	return cn.e.base
}

// dial returns the (dialing if needed) connection for addr. A down
// target inside its redial backoff, or a failed dial, returns nil with
// the deadline to retry at.
func (cn *conn) dial(addr string, now time.Time) (*target, time.Time) {
	t := cn.targets[addr]
	if t == nil {
		t = &target{addr: addr, st: cn.e.target(addr)}
		cn.targets[addr] = t
	}
	if t.up {
		return t, time.Time{}
	}
	if now.Before(t.notBefore) {
		return nil, t.notBefore
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		cn.e.dialErr.CompareAndSwap(nil, &err)
		t.dialAttempt++
		t.notBefore = now.Add(backoffDur(t.dialAttempt))
		// A refused dial is the same staleness signal as a dropped
		// connection: the routed-to node may be gone for good, and only
		// a topology refresh can re-point the affected keys. A conn
		// reconnecting after failover straight to the dead member's
		// address would otherwise retry it until MaxRetries runs out.
		if cn.e.o.Refresh != nil {
			cn.e.o.Refresh()
		}
		return nil, t.notBefore
	}
	t.c = c
	t.bw = bufio.NewWriterSize(c, 1<<15)
	t.gen++
	t.up = true
	t.dialAttempt = 0
	t.st.dials.Add(1)
	gen := t.gen
	cn.readers++
	go func() {
		br := bufio.NewReaderSize(c, 1<<15)
		var rbuf [kvserve.RespSize]byte
		for {
			if _, err := io.ReadFull(br, rbuf[:]); err != nil {
				break
			}
			seq, status, _ := kvserve.DecodeResp(&rbuf)
			if int(seq) >= len(cn.slots) {
				break // not a sequence number this conn ever sent
			}
			cn.events <- event{slot: int(seq), status: status, at: time.Now(), tgt: t, gen: gen}
		}
		cn.events <- event{slot: evDown, at: time.Now(), tgt: t, gen: gen}
	}()
	return t, time.Time{}
}

// requeue schedules slot id for a re-send at retryAt, or — out of
// tries — abandons the op as an error. The slot must be off the wire.
func (cn *conn) requeue(id int, retryAt time.Time) {
	sl := &cn.slots[id]
	sl.tgt = nil
	if sl.attempt >= cn.e.o.MaxRetries {
		cn.e.errs.Add(1)
		cn.outstanding--
		cn.avail = append(cn.avail, id)
		return
	}
	sl.attempt++
	cn.e.retries.Add(1)
	sl.retry = true
	sl.notBefore = retryAt
	cn.retryQ = append(cn.retryQ, id)
}

// fail marks t's current connection dead and requeues (or abandons)
// every slot that was riding it. Reports whether the conn may go on:
// false when a live connection was lost without Reconnect.
func (cn *conn) fail(t *target, gen uint32, now time.Time) bool {
	if !t.up || t.gen != gen {
		return true // stale failure from an already-replaced connection
	}
	t.up = false
	t.dirty = false
	t.c.Close()
	t.notBefore = now.Add(backoffDur(0))
	t.st.resets.Add(1)
	cn.e.resets.Add(1)
	if cn.e.o.Refresh != nil {
		cn.e.o.Refresh()
	}
	if !cn.e.o.Reconnect {
		return false
	}
	for i := range cn.slots {
		sl := &cn.slots[i]
		if sl.tgt == t && sl.gen == gen && !sl.retry {
			cn.wire--
			cn.requeue(i, now.Add(backoffDur(sl.attempt)))
		}
	}
	return true
}

// settle records the final response for slot id.
func (cn *conn) settle(id int, status byte, now time.Time) {
	e := cn.e
	sl := &cn.slots[id]
	a := &e.classes[sl.op.Class]
	e.settled.Add(1)
	sl.tgt.st.ops.Add(1)
	if sl.tid != 0 && e.o.Tracer != nil && e.o.Tracer.Enabled() {
		e.o.Tracer.Record(obs.EvClientAck, int32(cn.id), now.UnixNano(), sl.tid, uint64(status))
	}
	if !sl.op.IsPut {
		e.gets.Add(1)
	}
	switch status {
	case kvserve.StatusOK, kvserve.StatusNotFound:
		lat := uint64(now.Sub(sl.t0))
		a.hist.Observe(lat)
		if sl.op.IsPut {
			a.putHist.Observe(lat)
		}
		e.sched.Observe(uint64(max(0, now.Sub(e.start)-time.Duration(sl.op.At))))
		a.served.Add(1)
		switch {
		case status == kvserve.StatusNotFound:
			e.notFound.Add(1)
		case sl.op.IsPut:
			e.acked.Add(1)
			sl.tgt.st.acked.Add(1)
			if e.o.OnAck != nil {
				e.o.OnAck(cn.id, sl.op.Key, sl.op.Val)
			}
		}
	case kvserve.StatusOverload, kvserve.StatusMoved, kvserve.StatusFull:
		// Counted by cause in handle.
	default:
		e.errs.Add(1)
	}
	sl.tgt = nil
	cn.wire--
	cn.outstanding--
	cn.avail = append(cn.avail, id)
}

// handle processes one event. Reports false when the conn must stop.
func (cn *conn) handle(ev event) bool {
	if ev.slot == evDown {
		cn.readers--
		return cn.fail(ev.tgt, ev.gen, ev.at)
	}
	sl := &cn.slots[ev.slot]
	if sl.tgt != ev.tgt || sl.gen != ev.gen || sl.retry {
		return true // stale response for a reissued slot
	}
	a := &cn.e.classes[sl.op.Class]
	switch ev.status {
	case kvserve.StatusMoved:
		// The member's applied topology says it no longer owns the key:
		// this client's routing table is stale. Refresh it before the
		// retry re-routes — the backoff then rides out the window where
		// the new epoch hasn't reached the promoted member yet.
		cn.e.moved.Add(1)
		if cn.e.o.Refresh != nil {
			cn.e.o.Refresh()
		}
	case kvserve.StatusOverload:
		a.over.Add(1)
	case kvserve.StatusFull:
		a.full.Add(1)
	}
	if (ev.status == kvserve.StatusOverload || ev.status == kvserve.StatusMoved) &&
		sl.attempt < cn.e.o.MaxRetries {
		cn.wire--
		cn.requeue(ev.slot, ev.at.Add(backoffDur(sl.attempt)))
		return true
	}
	cn.settle(ev.slot, ev.status, ev.at)
	return true
}

// harvest drains the pending events without waiting.
func (cn *conn) harvest() bool {
	for {
		select {
		case ev := <-cn.events:
			if !cn.handle(ev) {
				return false
			}
		default:
			return true
		}
	}
}

// wait parks until the next event or, when until is set, that time —
// whichever comes first. Responses are handled the moment they land
// even mid-pause, so their latency never absorbs the pacing sleep. It
// sleeps the whole gap, and the host's timer overshoot shows up as
// dispatch lag. It does not yield through the last stretch: issuers
// that yield keep the global run queue non-empty, a P that finds work
// there never polls the network, and responses then reach the readers
// on sysmon's poll, up to 10 ms late — the client books milliseconds
// no server spent (EXPERIMENTS.md E17).
func (cn *conn) wait(until time.Time) bool {
	if until.IsZero() {
		return cn.handle(<-cn.events)
	}
	d := time.Until(until)
	if d <= 0 {
		return true
	}
	if !cn.timer.Stop() {
		select {
		case <-cn.timer.C:
		default:
		}
	}
	cn.timer.Reset(d)
	select {
	case ev := <-cn.events:
		return cn.handle(ev)
	case <-cn.timer.C:
		return true
	}
}

// flushDirty flushes every target with buffered frames; a flush error
// is handled like any other connection failure.
func (cn *conn) flushDirty(now time.Time) bool {
	for _, t := range cn.targets {
		if !t.up || !t.dirty {
			continue
		}
		t.dirty = false
		if t.bw.Flush() != nil && !cn.fail(t, t.gen, now) {
			return false
		}
	}
	return true
}

// send routes and writes slot id, or requeues it when its target is
// down. Reports false when the conn must stop.
func (cn *conn) send(id int, now time.Time) bool {
	sl := &cn.slots[id]
	sl.retry = false
	t, retryAt := cn.dial(cn.route(sl.op.Key), now)
	if t == nil {
		if !cn.e.o.Reconnect {
			return false
		}
		cn.requeue(id, retryAt)
		return true
	}
	sl.tgt = t
	sl.gen = t.gen
	// A traced slot goes out as [OpTraceCtx prefix][op frame], written
	// in one call so the pair crosses the router as a contiguous unit.
	var buf [2 * kvserve.ReqSize]byte
	f := buf[:0]
	if sl.tid != 0 {
		f = kvserve.AppendReq(f, kvserve.OpTraceCtx, uint32(id), sl.tid, 0)
	}
	opc := byte(kvserve.OpGet)
	if sl.op.IsPut {
		opc = kvserve.OpPut
	}
	f = kvserve.AppendReq(f, opc, uint32(id), sl.op.Key, sl.op.Val)
	cn.wire++
	t.dirty = true
	if _, err := t.bw.Write(f); err != nil {
		return cn.fail(t, t.gen, now)
	}
	return true
}

// run is the conn's main loop. Reports false when its share of the run
// was cut short by a connection failure.
func (cn *conn) run() bool {
	e, o := cn.e, cn.e.o
	cn.targets = make(map[string]*target)
	// Events never block the readers: at most Window responses can be
	// in flight, plus an exit event per dial.
	cn.events = make(chan event, o.Window+64)
	cn.timer = time.NewTimer(time.Hour)
	defer cn.timer.Stop()
	cn.slots = make([]slot, o.Window)
	cn.avail = make([]int, o.Window)
	for i := range cn.avail {
		cn.avail[i] = i
	}
	cn.retryQ = make([]int, 0, o.Window)
	cn.tidBase = uint64(time.Now().UnixNano())<<12 | uint64(cn.id&0xfff)

	var (
		cur  Op        // drawn from the source, not yet issued
		have bool      // cur is valid
		due  time.Time // when cur may leave
		met  bool      // cur was already seen due (lag and stall counted)
		done bool      // source exhausted
	)
	ok := true
	for ok {
		if ok = cn.harvest(); !ok {
			break
		}
		now := time.Now()
		if !have && !done {
			cur, have = cn.next(int64(now.Sub(e.start)))
			done, met = !have, false
			due = e.start.Add(time.Duration(cur.At))
		}
		if !have && cn.outstanding == 0 {
			break
		}
		ready := have && !now.Before(due)
		if ready && !met {
			// First sight of a due op: how late the loop got to it is
			// dispatch lag; finding no slot for it is a stall.
			met = true
			if lag := now.Sub(due); lag > time.Millisecond {
				e.lagOps.Add(1)
				e.lagMaxNs.SetMax(int64(lag))
			}
			if len(cn.avail) == 0 {
				e.stalls.Add(1)
			}
		}
		switch {
		case len(cn.retryQ) > 0 && !now.Before(cn.slots[cn.retryQ[0]].notBefore):
			id := cn.retryQ[0]
			cn.retryQ = append(cn.retryQ[:0], cn.retryQ[1:]...)
			ok = cn.send(id, now)
		case ready && len(cn.avail) > 0:
			id := cn.avail[len(cn.avail)-1]
			cn.avail = cn.avail[:len(cn.avail)-1]
			sl := &cn.slots[id]
			sl.op, sl.tid, sl.attempt, sl.t0 = cur, 0, 0, now
			have = false
			if o.TraceEvery > 0 && cn.issued%o.TraceEvery == 0 {
				cn.tidSeq++
				sl.tid = cn.tidBase + cn.tidSeq
				if o.Tracer != nil && o.Tracer.Enabled() {
					o.Tracer.Record(obs.EvClientSend, int32(cn.id), now.UnixNano(), sl.tid, cur.Key)
				}
			}
			cn.issued++
			cn.outstanding++
			e.classes[cur.Class].offered.Add(1)
			if cur.IsPut && o.OnSend != nil {
				o.OnSend(cn.id, cur.Key, cur.Val)
			}
			ok = cn.send(id, now)
		default:
			// Nothing can leave now — the next op is not yet due, the
			// window is full, or every runnable slot is waiting out a
			// backoff — so everything written so far must: batching is
			// only for frames that become sendable at the same instant.
			if ok = cn.flushDirty(now); !ok {
				break
			}
			// Wake at the earliest deadline; with none, the next thing
			// that can happen is a response.
			var until time.Time
			if have && !ready {
				until = due
			}
			for _, id := range cn.retryQ {
				if nb := cn.slots[id].notBefore; until.IsZero() || nb.Before(until) {
					until = nb
				}
			}
			ok = cn.wait(until)
		}
	}
	cn.flushDirty(time.Now())
	for _, t := range cn.targets {
		if t.up {
			t.up = false
			t.c.Close()
		}
	}
	// Join the readers: each sends exactly one evDown on its way out.
	for cn.readers > 0 {
		if ev := <-cn.events; ev.slot == evDown {
			cn.readers--
		}
	}
	if !ok {
		e.errs.Add(uint64(cn.outstanding))
	}
	return ok
}

// backoffDur returns the jittered exponential delay before retry
// number attempt (0-based). The shift saturates: past attempt 6 the
// delay is pinned at the 10ms cap rather than overflowing the duration.
func backoffDur(attempt int) time.Duration {
	base := 10 * time.Millisecond
	if attempt < 6 {
		base = 200 * time.Microsecond << uint(attempt)
	}
	return base/2 + time.Duration(rand.Int64N(int64(base)))
}
