package loadmodel

import (
	"fmt"
	"sort"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// Calibration holds the service-time constants the planner's queueing
// model runs on, in nanoseconds. They come from one of two sources:
// DefaultCalibration (rough localhost numbers) or CalibrateLive
// (window-paced probes against a real server on this machine — what
// E17 and the CI smoke use).
type Calibration struct {
	// GetSvcNs is the per-get conn-reader service time: parse, seqlock
	// read, response write, amortized across a pipelined stream.
	// Capacity for a pure-get load is Conns/GetSvcNs.
	GetSvcNs float64 `json:"get_svc_ns"`
	// PutSvcNs is the effective per-put service time at a shard owner
	// (capacity-derived: Shards/PutSvcNs is the saturated put rate, so
	// it folds in the reader's share of the put path too).
	PutSvcNs float64 `json:"put_svc_ns"`
	// FlushNs is the per-batch commit cost (checksum + journal write +
	// table apply downstream of the owner), excluding fsync.
	FlushNs float64 `json:"flush_ns"`
	// FsyncNs is the additional per-batch cost when Fsync is on.
	FsyncNs float64 `json:"fsync_ns"`
	// NetRTTNs is the fixed client<->server round-trip plus client
	// overhead added to every op's latency.
	NetRTTNs float64 `json:"net_rtt_ns"`
	// SealLagNs is how far past the nominal BatchWait deadline the
	// server's seal timer actually fires at the tail (host timer
	// granularity; ~1ms on coarse-tick VMs, ~0 on bare metal). Probed
	// as the p99−mean gap of the lone-put path; the model delays every
	// timer-driven seal by it. Zero for the default calibration.
	SealLagNs float64 `json:"seal_lag_ns"`
	// ReplHopNs is the extra ack delay per batch when the server
	// replicates synchronously before acking (cluster mode).
	ReplHopNs float64 `json:"repl_hop_ns"`

	Source string `json:"source"`
}

// DefaultCalibration is the uncalibrated fallback: localhost-shaped
// constants, right order of magnitude only.
func DefaultCalibration() Calibration {
	return Calibration{
		GetSvcNs:  4_500,
		PutSvcNs:  17_000,
		FlushNs:   20_000,
		FsyncNs:   450_000,
		NetRTTNs:  80_000,
		ReplHopNs: 900_000,
		Source:    "default",
	}
}

// ProbeGeometry tells CalibrateLive the server's shape; Shards/BatchK/
// BatchWait/Streams/Keys/Seed must match the probed server's Config.
type ProbeGeometry struct {
	Shards    int
	BatchK    int
	BatchWait time.Duration
	Streams   int
	Keys      int
	Seed      uint64
	Dur       time.Duration // per throughput probe; default 400ms
	Conns     int           // probe connections; default 4
}

// CalibrateLive derives the constants from four short window-paced
// probes against a running server:
//
//  1. mix c, pipelined  -> GetSvcNs  = Conns / get throughput
//  2. mix a, pipelined  -> PutSvcNs  = Shards / put throughput
//  3. mix c, window 1   -> NetRTTNs  = per-op latency − GetSvcNs
//  4. mix a, window 1   -> FlushNs   = per-op latency − NetRTT − BatchWait
//     (a lone put pads out the full BatchWait deadline, so the
//     remainder after RTT and the deadline is the commit itself);
//     SealLagNs = probe p99 − probe mean, the seal timer's firing
//     slack at the tail on this host. Run three times, medians win.
//
// FsyncNs and ReplHopNs are not probed (the target is a plain
// non-fsync server) and keep their incoming defaults.
func CalibrateLive(addr string, g ProbeGeometry) (Calibration, error) {
	cal := DefaultCalibration()
	if g.Dur <= 0 {
		g.Dur = 400 * time.Millisecond
	}
	if g.Conns <= 0 {
		g.Conns = 4
	}
	// Probes retry overloads like any window-paced client: they measure
	// capacity, not admission control.
	probe := func(mix string, conns, window, ops int) (*Report, error) {
		m := MixLoad{Mix: mix, Dist: "zipfian", Streams: g.Streams, Keys: g.Keys, Seed: g.Seed, Ops: ops}
		if ops == 0 {
			m.Dur = g.Dur
		}
		rep, err := Run(addr, m, Options{Conns: conns, Window: window, MaxRetries: 8})
		if err == nil && rep.Throughput <= 0 {
			err = fmt.Errorf("zero throughput")
		}
		if err != nil {
			return rep, fmt.Errorf("loadmodel: calibration probe (mix %s, window %d): %w", mix, window, err)
		}
		return rep, nil
	}

	rep, err := probe("c", g.Conns, 64, 0)
	if err != nil {
		return cal, err
	}
	cal.GetSvcNs = float64(g.Conns) / rep.Throughput * 1e9

	rep, err = probe("a", g.Conns, 64, 0)
	if err != nil {
		return cal, err
	}
	if rep.Ops > 0 && rep.AckedPuts > 0 {
		putThr := rep.Throughput * float64(rep.AckedPuts) / float64(rep.Ops)
		cal.PutSvcNs = float64(g.Shards) / putThr * 1e9
	}

	rep, err = probe("c", 1, 1, 400)
	if err != nil {
		return cal, err
	}
	perOp := 1e9 / rep.Throughput
	if rtt := perOp - cal.GetSvcNs; rtt > 5_000 {
		cal.NetRTTNs = rtt
	} else {
		cal.NetRTTNs = 5_000
	}

	// Probe 4 is the fragile one — at 200 ops a single scheduler stall
	// on a busy host pollutes both estimates — so it runs three times
	// and the median of each constant wins.
	var flushes, lags []float64
	for i := 0; i < 3; i++ {
		rep, err = probe("a", 1, 1, 200)
		if err != nil {
			return cal, err
		}
		// Only the puts pad out BatchWait; gets return at RTT+GetSvc.
		// With mix a the average per-op time is the mean of the two
		// paths.
		perOp = 2*1e9/rep.Throughput - (cal.NetRTTNs + cal.GetSvcNs)
		flushes = append(flushes, perOp-cal.NetRTTNs-float64(g.BatchWait.Nanoseconds()))
		// The puts also own the top half of the mix-a latency
		// distribution, so the probe's overall p99 is the lone-put
		// tail; its gap over the throughput-derived mean is the seal
		// timer firing late. (A 200-op probe's p99 is its 2nd-worst op
		// — fragile alone, which is what the median across the three
		// probe runs is for.)
		lags = append(lags, rep.Total.P99us*1e3-perOp)
	}
	sort.Float64s(flushes)
	sort.Float64s(lags)
	switch flush := flushes[1]; {
	case flush < 5_000:
		cal.FlushNs = 5_000
	case flush > 2_000_000:
		cal.FlushNs = 2_000_000
	default:
		cal.FlushNs = flush
	}
	if lag := lags[1]; lag > 0 {
		if lag > 2_000_000 {
			lag = 2_000_000
		}
		cal.SealLagNs = lag
	}
	cal.Source = "live:" + addr
	return cal, nil
}

// SealLagFromRun refits SealLagNs from one live shakedown run: the gap
// between the run's measured put p99 and the zero-lag deterministic
// put path (BatchWait + flush + RTT + owner service) is the under-load
// seal-timer slack. Idle window-1 probes systematically understate it
// on a busy host — the timer goroutine competes with the serving load
// for the CPU — so E17 probes the other constants idle, runs its
// calibration workload once, refits the lag from that run, and only
// then predicts the held-out specs. Clamped to [0, 5ms].
func SealLagFromRun(cal Calibration, batchWaitNs int64, meas ClassPlan) float64 {
	base := float64(batchWaitNs) + cal.FlushNs + cal.NetRTTNs + cal.PutSvcNs
	lag := meas.PutP99us*1e3 - base
	switch {
	case lag < 0:
		return 0
	case lag > 5_000_000:
		return 5_000_000
	}
	return lag
}

// PlanConfig is the server geometry the planner models; mirror the
// kvserve.Config the spec will actually run against.
type PlanConfig struct {
	Shards         int   `json:"shards"`
	BatchK         int   `json:"batch_k"`
	Mailbox        int   `json:"mailbox"`
	PipelineDepth  int   `json:"pipeline_depth"`
	BatchWaitNs    int64 `json:"batch_wait_ns"`
	MaxDelayNs     int64 `json:"max_delay_ns"`     // 0 = no per-request deadline
	MaxOpsPerShard int   `json:"maxops_per_shard"` // journal budget; 0 = unlimited
	Conns          int   `json:"conns"`            // client connections the runner will use
	Fsync          bool  `json:"fsync"`
	Replicated     bool  `json:"replicated"`

	Cal Calibration `json:"cal"`
}

func (pc PlanConfig) withDefaults() PlanConfig {
	if pc.Shards == 0 {
		pc.Shards = 4
	}
	if pc.BatchK == 0 {
		pc.BatchK = 32
	}
	if pc.Mailbox == 0 {
		pc.Mailbox = 256
	}
	if pc.PipelineDepth == 0 {
		pc.PipelineDepth = 4
	}
	if pc.BatchWaitNs == 0 {
		pc.BatchWaitNs = int64(500 * time.Microsecond)
	}
	if pc.Conns == 0 {
		pc.Conns = 4
	}
	if pc.Cal == (Calibration{}) {
		pc.Cal = DefaultCalibration()
	}
	return pc
}

// ClassPlan is the planner's prediction (or the runner's measurement)
// for one SLO class.
type ClassPlan struct {
	Name        string  `json:"class"`
	Ops         int     `json:"ops"`
	OfferedOpsS float64 `json:"offered_ops_s"`
	OKOpsS      float64 `json:"ok_ops_s"` // served (acked puts + gets) per second
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	PutP99us    float64 `json:"put_p99_us"`
	MaxUs       float64 `json:"max_us"`
	Overloads   uint64  `json:"overloads"`
	Expired     uint64  `json:"expired"`
	Full        uint64  `json:"full"`
	RejectRate  float64 `json:"reject_rate"` // rejected / offered
}

// PlanReport is the planner's output: per-class and total predictions
// plus steady-state utilization estimates.
type PlanReport struct {
	Spec      string      `json:"spec"`
	DurS      float64     `json:"dur_s"`
	Cfg       PlanConfig  `json:"cfg"`
	Total     ClassPlan   `json:"total"`
	Classes   []ClassPlan `json:"classes"`
	PutUtil   float64     `json:"put_util"`   // offered put load / put capacity
	GetUtil   float64     `json:"get_util"`   // offered get load / get capacity
	FlushUtil float64     `json:"flush_util"` // per-shard flusher occupancy
	Stages    *StagePlan  `json:"stages,omitempty"`
}

// StagePlan is the DES's stage-level latency attribution for the put
// path, mean microseconds per stage. It is the plan-side counterpart
// of the server's kvserve_stage_seconds histograms: `lptrace -vs-plan`
// diffs a measured trace breakdown against these to show where the
// model and the machine disagree.
type StagePlan struct {
	// Puts is how many dispatched puts the queue mean averages over;
	// Batches how many sealed batches back the fill/flush means.
	Puts    int `json:"puts"`
	Batches int `json:"batches"`
	// QueueUs: mailbox enqueue → owner dequeue, per put.
	QueueUs float64 `json:"queue_us"`
	// FillUs: batch open (first put lands) → seal, per batch.
	FillUs float64 `json:"fill_us"`
	// FlushUs: seal → write set durable, per batch, including time
	// queued behind earlier batches in the flush pipeline.
	FlushUs float64 `json:"flush_us"`
	// ReplUs: replication ack hop per batch (the model's constant;
	// zero when not replicated).
	ReplUs float64 `json:"repl_us"`
	// RTTUs: fixed client<->server network round trip.
	RTTUs float64 `json:"rtt_us"`
}

// classAcc accumulates per-class settle results through the DES.
type classAcc struct {
	hist    obs.Histogram // settled-OK latency, ns
	putHist obs.Histogram
	served  uint64
	over    uint64
	exp     uint64
	full    uint64
}

func (a *classAcc) settle(latNs int64, isPut bool) {
	if latNs < 0 {
		latNs = 0
	}
	v := uint64(latNs)
	a.hist.Observe(v)
	if isPut {
		a.putHist.Observe(v)
	}
	a.served++
}

// Plan runs the op stream through a discrete-event model of the
// kvserve pipeline: per-connection get service, per-shard owner queues
// with mailbox admission (Overload) and optional dequeue deadlines
// (Expired), group-commit batches sealed at BatchK or the BatchWait
// deadline, a flush pipeline of depth PipelineDepth with owner
// backpressure, a per-shard journal budget (Full), and fixed network
// RTT — all on the Calibration constants. The result is deterministic:
// a pure function of (ops, cfg).
func Plan(spec *Spec, ops []Op, cfg PlanConfig) *PlanReport {
	cfg = cfg.withDefaults()
	cal := cfg.Cal
	flushNs := int64(cal.FlushNs)
	if cfg.Fsync {
		flushNs += int64(cal.FsyncNs)
	}
	replNs := int64(0)
	if cfg.Replicated {
		replNs = int64(cal.ReplHopNs)
	}
	rttNs := int64(cal.NetRTTNs)
	getNs := int64(cal.GetSvcNs)
	putNs := int64(cal.PutSvcNs)
	sealNs := cfg.BatchWaitNs + int64(cal.SealLagNs)

	accs := make([]classAcc, len(spec.Classes))

	type qput struct {
		op  int32
		enq int64
	}
	type simConn struct {
		q    []int32
		busy bool
	}
	type simBatch struct {
		ops    []int32
		sealAt int64 // flush-stage epoch: queueing behind the ring counts
	}
	type simShard struct {
		q        []qput
		busy     bool
		stalled  bool // owner wants to seal; pipeline ring full
		open     []int32
		openAt   int64 // when the open batch got its first put (fill stage)
		epoch    int64 // open-batch identity for seal timers
		inflight int   // sealed, not yet flushed
		flushQ   []simBatch
		flushing simBatch
		fbusy    bool
		journal  int
	}

	// Stage attribution accumulators (see StagePlan).
	var (
		queueSumNs, fillSumNs, flushSumNs int64
		queuePuts, sealedBatches          int
	)

	conns := make([]simConn, cfg.Conns)
	shards := make([]simShard, cfg.Shards)

	h := &evHeap{}
	seq := int64(0)
	push := func(at int64, kind int8, a int32, b int64) {
		seq++
		h.push(simEv{at: at, seq: seq, kind: kind, a: a, b: b})
	}

	for i := range ops {
		push(ops[i].At, evArr, int32(i), 0)
	}

	settleOK := func(op *Op, at int64) {
		accs[op.Class].settle(at-op.At+rttNs, op.IsPut)
	}

	var doSeal func(now int64, si int32)
	startFlush := func(now int64, si int32) {
		sh := &shards[si]
		if sh.fbusy || len(sh.flushQ) == 0 {
			return
		}
		sh.fbusy = true
		sh.flushing = sh.flushQ[0]
		sh.flushQ = sh.flushQ[1:]
		push(now+flushNs, evFlushDone, si, 0)
	}
	doSeal = func(now int64, si int32) {
		sh := &shards[si]
		fillSumNs += now - sh.openAt
		sealedBatches++
		sh.flushQ = append(sh.flushQ, simBatch{ops: sh.open, sealAt: now})
		sh.journal += len(sh.open) // a sealed batch costs the records it holds
		sh.open = nil
		sh.epoch++
		sh.inflight++
		sh.stalled = false
		startFlush(now, si)
	}
	ownerNext := func(now int64, si int32) {
		sh := &shards[si]
		if sh.busy || sh.stalled {
			return
		}
		for len(sh.q) > 0 {
			p := sh.q[0]
			sh.q = sh.q[1:]
			if cfg.MaxDelayNs > 0 && now-p.enq > cfg.MaxDelayNs {
				accs[ops[p.op].Class].exp++
				continue
			}
			queueSumNs += now - p.enq
			queuePuts++
			sh.busy = true
			push(now+putNs, evOwnerDone, si, int64(p.op))
			return
		}
	}
	connNext := func(now int64, ci int32) {
		c := &conns[ci]
		if c.busy || len(c.q) == 0 {
			return
		}
		opi := c.q[0]
		c.q = c.q[1:]
		c.busy = true
		push(now+getNs, evGetDone, ci, int64(opi))
	}

	for h.len() > 0 {
		e := h.pop()
		now := e.at
		switch e.kind {
		case evArr:
			op := &ops[e.a]
			if !op.IsPut {
				ci := int32(int(op.Client) % cfg.Conns)
				conns[ci].q = append(conns[ci].q, e.a)
				connNext(now, ci)
				break
			}
			si := int32(kvserve.ShardOf(op.Key, cfg.Shards))
			sh := &shards[si]
			if cfg.MaxOpsPerShard > 0 && sh.journal+len(sh.open)+len(sh.q) >= cfg.MaxOpsPerShard {
				accs[op.Class].full++
				break
			}
			if len(sh.q) >= cfg.Mailbox {
				accs[op.Class].over++
				break
			}
			sh.q = append(sh.q, qput{op: e.a, enq: now})
			ownerNext(now, si)

		case evGetDone:
			ci := e.a
			settleOK(&ops[e.b], now)
			conns[ci].busy = false
			connNext(now, ci)

		case evOwnerDone:
			si := e.a
			sh := &shards[si]
			sh.busy = false
			sh.open = append(sh.open, int32(e.b))
			if len(sh.open) == 1 {
				sh.openAt = now
				push(now+sealNs, evSeal, si, sh.epoch)
			}
			if len(sh.open) >= cfg.BatchK {
				if sh.inflight >= cfg.PipelineDepth {
					sh.stalled = true
				} else {
					doSeal(now, si)
				}
			}
			ownerNext(now, si)

		case evSeal:
			si := e.a
			sh := &shards[si]
			if sh.epoch != e.b || len(sh.open) == 0 {
				break // stale timer: batch already sealed
			}
			if sh.inflight >= cfg.PipelineDepth {
				sh.stalled = true
			} else {
				doSeal(now, si)
				ownerNext(now, si)
			}

		case evFlushDone:
			si := e.a
			sh := &shards[si]
			flushSumNs += now - sh.flushing.sealAt
			for _, opi := range sh.flushing.ops {
				settleOK(&ops[opi], now+replNs)
			}
			sh.flushing = simBatch{}
			sh.fbusy = false
			sh.inflight--
			startFlush(now, si)
			if sh.stalled && sh.inflight < cfg.PipelineDepth {
				doSeal(now, si)
			}
			ownerNext(now, si)
		}
	}

	rep := buildReport(spec, ops, cfg, accs)
	st := &StagePlan{
		Puts:    queuePuts,
		Batches: sealedBatches,
		ReplUs:  float64(replNs) / 1e3,
		RTTUs:   float64(rttNs) / 1e3,
	}
	if queuePuts > 0 {
		st.QueueUs = float64(queueSumNs) / float64(queuePuts) / 1e3
	}
	if sealedBatches > 0 {
		st.FillUs = float64(fillSumNs) / float64(sealedBatches) / 1e3
		st.FlushUs = float64(flushSumNs) / float64(sealedBatches) / 1e3
	}
	rep.Stages = st
	return rep
}

func buildReport(spec *Spec, ops []Op, cfg PlanConfig, accs []classAcc) *PlanReport {
	durS := float64(spec.durNs) / 1e9
	rep := &PlanReport{Spec: spec.Name, DurS: durS, Cfg: cfg}
	counts := ClassOps(ops, len(spec.Classes))

	var total classAcc
	totalOps := 0
	puts, gets := 0, 0
	for i := range ops {
		if ops[i].IsPut {
			puts++
		} else {
			gets++
		}
	}
	for ci := range accs {
		a := &accs[ci]
		rep.Classes = append(rep.Classes, classPlanOf(spec.Classes[ci].Name, counts[ci], durS,
			&a.hist, &a.putHist, a.served, a.over, a.exp, a.full))
		totalOps += counts[ci]
		total.served += a.served
		total.over += a.over
		total.exp += a.exp
		total.full += a.full
		total.hist.Merge(&a.hist)
		total.putHist.Merge(&a.putHist)
	}
	rep.Total = classPlanOf("total", totalOps, durS,
		&total.hist, &total.putHist, total.served, total.over, total.exp, total.full)

	cal := cfg.Cal
	putRate := float64(puts) / durS
	getRate := float64(gets) / durS
	rep.PutUtil = putRate * cal.PutSvcNs / 1e9 / float64(cfg.Shards)
	rep.GetUtil = getRate * cal.GetSvcNs / 1e9 / float64(cfg.Conns)
	flushNs := cal.FlushNs
	if cfg.Fsync {
		flushNs += cal.FsyncNs
	}
	rep.FlushUtil = putRate / float64(cfg.BatchK) * flushNs / 1e9 / float64(cfg.Shards)
	return rep
}

// classPlanOf renders one class row from its accumulated outcomes; the
// planner and the engine share it so their rows compare field by field.
func classPlanOf(name string, offered int, durS float64, hist, putHist *obs.Histogram,
	served, over, exp, full uint64) ClassPlan {
	s := hist.Snapshot()
	ps := putHist.Snapshot()
	cp := ClassPlan{
		Name:        name,
		Ops:         offered,
		OfferedOpsS: float64(offered) / durS,
		OKOpsS:      float64(served) / durS,
		P50us:       float64(s.Quantile(0.50)) / 1e3,
		P99us:       float64(s.Quantile(0.99)) / 1e3,
		PutP99us:    float64(ps.Quantile(0.99)) / 1e3,
		MaxUs:       float64(s.Max) / 1e3,
		Overloads:   over,
		Expired:     exp,
		Full:        full,
	}
	if offered > 0 {
		cp.RejectRate = float64(over+exp+full) / float64(offered)
	}
	return cp
}

// simEv kinds.
const (
	evArr int8 = iota
	evGetDone
	evOwnerDone
	evSeal
	evFlushDone
)

type simEv struct {
	at   int64
	seq  int64 // FIFO tie-break: deterministic order at equal times
	kind int8
	a    int32
	b    int64
}

// evHeap is a plain binary min-heap on (at, seq); container/heap's
// interface indirection is noise at this size.
type evHeap struct{ e []simEv }

func (h *evHeap) len() int { return len(h.e) }

func (h *evHeap) less(i, j int) bool {
	if h.e[i].at != h.e[j].at {
		return h.e[i].at < h.e[j].at
	}
	return h.e[i].seq < h.e[j].seq
}

func (h *evHeap) push(e simEv) {
	h.e = append(h.e, e)
	i := len(h.e) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.e[i], h.e[p] = h.e[p], h.e[i]
		i = p
	}
}

func (h *evHeap) pop() simEv {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.e) && h.less(l, small) {
			small = l
		}
		if r < len(h.e) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.e[i], h.e[small] = h.e[small], h.e[i]
		i = small
	}
	return top
}
