package loadmodel

import (
	"fmt"
	"strconv"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// Calibration holds the service-time constants the planner's queueing
// model runs on, in nanoseconds: DefaultCalibration's rough localhost
// numbers until Calibrate reads them off a real server's histograms
// (what E17 and the CI smoke do).
type Calibration struct {
	// GetSvcNs is the per-get conn-reader service time: parse, seqlock
	// read, response write. Capacity for a pure-get load is
	// Conns/GetSvcNs.
	GetSvcNs float64 `json:"get_svc_ns"`
	// PutSvcNs is the per-put service time at a shard owner: its
	// apply, the seals and leak inside it included. Shards/PutSvcNs is
	// the saturated put rate.
	PutSvcNs float64 `json:"put_svc_ns"`
	// FlushNs is the per-batch commit cost: the sealed write set
	// persisted, excluding fsync.
	FlushNs float64 `json:"flush_ns"`
	// FsyncNs is the additional per-batch cost when Fsync is on.
	FsyncNs float64 `json:"fsync_ns"`
	// NetRTTNs is the fixed client<->server round-trip plus client
	// overhead added to every op's latency.
	NetRTTNs float64 `json:"net_rtt_ns"`
	// SealLagNs is how far past the nominal BatchWait deadline an open
	// batch seals at the tail (host timer granularity and owner wake-up;
	// ~1ms on coarse-tick VMs, ~0 on bare metal). The model delays every
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

// Calibrate derives the constants from the server's own histograms
// around one calibration run: before and after scrape its registry on
// either side of the run, run is the client's report of it, and geo is
// the server's geometry (its Shards and BatchWaitNs are read). Each
// constant is read off the run's delta of the server's series:
//
//	FlushNs   = flush-stage mean (seal → write set durable, per batch)
//	ReplHopNs = repl-stage mean, when the server replicated
//	GetSvcNs  = server get latency mean
//	PutSvcNs  = owner apply time per put, mean
//	SealLagNs = fill-stage p99 − BatchWaitNs, floored at 0 (0 when
//	            batches fill by count)
//	NetRTTNs  = client mean − server mean, over every op: the gets'
//	            latency and each shard's put latency
//
// RTT is a difference of means over every op, not of medians and not of
// gets alone: the model adds it to every op, and a client's round trip
// on a busy host is wide (p25 and p75 a factor of 4 apart), so only the
// mean over all of them makes the modelled hops' mean the measured one.
// A put's hops are longer than a get's by the handoff from the flusher
// to the connection writer, which the server's put latency ends before.
// A mean also carries no histogram bucket error.
//
// A constant whose series saw no samples keeps its default, and so does
// FsyncNs: scraped from an fsync server, the flush stage already holds it.
func Calibrate(before, after obs.Scrape, run *Report, geo PlanConfig) Calibration {
	cal := DefaultCalibration()
	delta := func(name string, kv ...string) obs.HistSnapshot {
		return after.Hist(name, 1e-9, kv...).Sub(before.Hist(name, 1e-9, kv...))
	}
	stage := func(st obs.Stage) obs.HistSnapshot { return delta(kvserve.MetricStage, "stage", st.String()) }
	set := func(dst *float64, h obs.HistSnapshot, v float64) {
		if h.Count > 0 {
			*dst = v
		}
	}
	flush, repl, fill := stage(obs.StageFlush), stage(obs.StageRepl), stage(obs.StageFill)
	get, apply := delta(kvserve.MetricGetLatency), delta(kvserve.MetricApply)
	set(&cal.FlushNs, flush, flush.Mean())
	set(&cal.ReplHopNs, repl, repl.Mean())
	set(&cal.GetSvcNs, get, get.Mean())
	set(&cal.PutSvcNs, apply, apply.Mean())
	set(&cal.SealLagNs, fill, max(0, float64(fill.Quantile(0.99))-float64(geo.BatchWaitNs)))
	n, sumNs := get.Count, float64(get.Sum)
	for i := range geo.Shards {
		put := delta(kvserve.MetricPutLatency, "shard", strconv.Itoa(i))
		n, sumNs = n+put.Count, sumNs+float64(put.Sum)
	}
	if n > 0 && run.Total.MeanUs > 0 {
		cal.NetRTTNs = max(0, run.Total.MeanUs*1e3-sumNs/float64(n))
	}
	cal.Source = "stages"
	return cal
}

// CalibrationRun replays src against the server at addr over geo.Conns
// connections and calibrates from that server's registry, which scrape
// reads before and after the run. A run that loses an op is an error.
func CalibrationRun(addr string, src Source, geo PlanConfig, scrape func() (obs.Scrape, error)) (Calibration, *Report, error) {
	before, err := scrape()
	if err != nil {
		return Calibration{}, nil, err
	}
	run, err := Run(addr, src, Options{Conns: geo.Conns, Window: 512})
	if err == nil && (run.Partial || run.Errors > 0) {
		err = fmt.Errorf("loadmodel: run lost %d ops", run.Errors)
	}
	var after obs.Scrape
	if err == nil {
		after, err = scrape()
	}
	if err != nil {
		return Calibration{}, run, err
	}
	return Calibrate(before, after, run, geo), run, nil
}

// PlanConfig is the server geometry the planner models; mirror the
// kvserve.Config the spec will actually run against.
type PlanConfig struct {
	Shards         int   `json:"shards"`
	BatchK         int   `json:"batch_k"`
	Mailbox        int   `json:"mailbox"`
	PipelineDepth  int   `json:"pipeline_depth"`
	BatchWaitNs    int64 `json:"batch_wait_ns"`
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
	MeanUs      float64 `json:"mean_us"`
	MaxUs       float64 `json:"max_us"`
	Overloads   uint64  `json:"overloads"`
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
	Stages    StagePlan   `json:"stage_mean_us"`
}

// StagePlan is the DES's stage-level latency attribution for the put
// path, mean µs per stage in the server's own stage taxonomy (indexed,
// and in JSON ordered, by obs.Stage): `lptrace -vs-plan` diffs a
// measured trace breakdown against it stage by stage to show where the
// model and the machine disagree. It holds only the stages whose mean
// the model predicts, 0 for the others: flush (seal → durable, queueing
// behind earlier batches included) per batch, and repl, the model's
// constant hop, when replicated. Queue and fill are left out:
// the model's queue is the wait for a busy owner, with no mailbox
// wake-up hop, so under light load it is zero whatever the server
// measures; and every timer-sealed batch waits BatchWait plus the
// *tail* seal lag, so the model's fill is a p99 by construction, not a
// mean.
type StagePlan [obs.NumStages]float64

// classAcc accumulates per-class settle results through the DES.
type classAcc struct {
	hist    obs.Histogram // settled-OK latency, ns
	putHist obs.Histogram
	served  uint64
	over    uint64
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
// with mailbox admission (Overload), group-commit batches sealed at
// BatchK or the BatchWait deadline, a flush pipeline of depth
// PipelineDepth with owner backpressure, a per-shard journal budget
// (Full), and fixed network RTT — all on the Calibration constants. The result is deterministic:
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

	type simConn struct {
		q    []int32
		busy bool
	}
	type simBatch struct {
		ops    []int32
		sealAt int64 // flush-stage epoch: queueing behind the ring counts
	}
	type simShard struct {
		q        []int32
		busy     bool
		stalled  bool // owner wants to seal; pipeline ring full
		open     []int32
		epoch    int64 // open-batch identity for seal timers
		inflight int   // sealed, not yet flushed
		flushQ   []simBatch
		flushing simBatch
		fbusy    bool
		journal  int
	}

	// Stage attribution accumulators (see StagePlan).
	var flushSumNs int64
	var flushedBatches int

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
		if sh.busy || sh.stalled || len(sh.q) == 0 {
			return
		}
		op := sh.q[0]
		sh.q = sh.q[1:]
		sh.busy = true
		push(now+putNs, evOwnerDone, si, int64(op))
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
			sh.q = append(sh.q, e.a)
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
			flushedBatches++
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
	if flushedBatches > 0 {
		rep.Stages[obs.StageFlush] = float64(flushSumNs) / float64(flushedBatches) / 1e3
	}
	if cfg.Replicated {
		rep.Stages[obs.StageRepl] = float64(replNs) / 1e3
	}
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
			&a.hist, &a.putHist, a.served, a.over, a.full))
		totalOps += counts[ci]
		total.served += a.served
		total.over += a.over
		total.full += a.full
		total.hist.Merge(&a.hist)
		total.putHist.Merge(&a.putHist)
	}
	rep.Total = classPlanOf("total", totalOps, durS,
		&total.hist, &total.putHist, total.served, total.over, total.full)

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
	served, over, full uint64) ClassPlan {
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
		MeanUs:      s.Mean() / 1e3,
		MaxUs:       float64(s.Max) / 1e3,
		Overloads:   over,
		Full:        full,
	}
	if offered > 0 {
		cp.RejectRate = float64(over+full) / float64(offered)
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
