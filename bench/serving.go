package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"lazyp/internal/cluster"
	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// Serving geometry shared by every serving workload. Only image-
// geometry fields of kvserve.Config are ever set: the sealing and
// backpressure knobs keep their defaults so ROADMAP item 2 can delete
// them under the benchmark.
const (
	driverConns = 2 // = nproc on the sandbox; one writer and one reader goroutine each
	batchK      = 32
	streams     = 4
	keysPerConn = 65536 // keys per stream unless stated: 262 144 preloaded keys, 8 MB of table; the server has no cache of its own
	setupReps   = 5     // set-ups per run; setup_s is the fastest
)

var (
	mixPut = workloads.KVMix{Name: "w", Update: 100}
	mixGet = workloads.KVMix{Name: "c", Read: 100}
	mixA   = workloads.KVMix{Name: "a", Read: 50, Update: 50}
)

// servingSpec is one serving workload. See README.md for why each is
// here.
type servingSpec struct {
	name    string
	mix     workloads.KVMix
	keys    int // kvserve.Config.Keys: keys per stream; connection c draws from stream c
	window  int // frames in flight per connection
	warmOps int // unmeasured ops before the window opens, over both connections
	maxOps  int // kvserve.Config.MaxOps: per-shard journal capacity
	// journalPerPut is the journal-budget rule: the worst-case number
	// of journal entries the hottest shard spends per client put. The
	// driver stops a phase early rather than send more than
	// maxOps/journalPerPut puts in a run, so a faster machine ends the
	// window sooner instead of answering StatusFull.
	journalPerPut float64
	stride        int // every stride-th op of a kind leaves an exact latency sample
	cluster       bool
	primary       int // the op kind whose latency is the end-to-end p50/p90
}

var servingSpecs = []servingSpec{
	// hottest shard takes 28% of a zipfian put stream; a put_few put
	// may seal alone in a K-entry batch.
	{name: "put_few", mix: mixPut, keys: keysPerConn, window: 8, warmOps: 10_000, maxOps: 1 << 21,
		journalPerPut: 0.28 * batchK, stride: 1, primary: kindPut},
	// batches fill by count; stay under 75% of the hottest journal.
	{name: "put_sat", mix: mixPut, keys: keysPerConn, window: 64, warmOps: 300_000, maxOps: 1 << 21,
		journalPerPut: 0.28 / 0.75, stride: 4, primary: kindPut},
	{name: "get_sat", mix: mixGet, keys: keysPerConn, window: 64, warmOps: 1_000_000, maxOps: 1 << 15,
		stride: 16, primary: kindGet},
	{name: "mix_sat", mix: mixA, keys: keysPerConn, window: 64, warmOps: 500_000, maxOps: 1 << 21,
		journalPerPut: 0.28 / 0.75, stride: 4, primary: kindGet},
	// a node journals its own puts and its pair peer's; the hotter of
	// its two shards takes ~45% of client puts at ~4 entries per put
	// (batches seal at 8-9 puts under replication).
	{name: "cluster_mix", mix: mixA, keys: keysPerConn, window: 64, warmOps: 100_000, maxOps: 1 << 21,
		journalPerPut: 0.45 * 4, stride: 1, cluster: true, primary: kindPut},
}

// gen returns connection id's op stream, a pure function of (seed, id).
func (sp servingSpec) gen(seed uint64, id int) *workloads.KVGen {
	return workloads.NewKVGen(seed, id, sp.keys, sp.mix, "zipfian")
}

func (sp servingSpec) scaledMaxOps(scale float64) int {
	n := batchK * 64
	for float64(n) < float64(sp.maxOps)*scale {
		n <<= 1
	}
	return n
}

func (sp servingSpec) config(opt options, path string) kvserve.Config {
	cfg := kvserve.Config{
		Addr: "127.0.0.1:0", Path: path, Mode: lpstore.ModeLP,
		Shards: 4, MaxOps: sp.scaledMaxOps(opt.scale), BatchK: batchK,
		Streams: streams, Keys: sp.keys, Seed: opt.seed,
	}
	if sp.cluster {
		cfg.Shards = 2
	}
	cfg.Capacity = 2 * sp.keys * streams / cfg.Shards // tables half full
	return cfg
}

// stack is a booted system under test: one kvserve node, or three
// cluster members behind a router.
type stack struct {
	addr    string // where the driver connects
	servers []*kvserve.Server
	nodes   []*cluster.Node
	router  *cluster.Router
	paths   []string
}

func (sp servingSpec) boot(opt options) (*stack, error) {
	st := &stack{}
	if !sp.cluster {
		path := filepath.Join(opt.dir, sp.name+".img")
		st.paths = append(st.paths, path)
		srv, err := kvserve.New(sp.config(opt, path))
		if err != nil {
			return st, err
		}
		st.servers = append(st.servers, srv)
		if err := srv.Start(); err != nil {
			return st, err
		}
		st.addr = srv.Addr()
		return st, nil
	}
	var infos []cluster.NodeInfo
	for _, id := range []string{"n0", "n1", "n2"} {
		path := filepath.Join(opt.dir, sp.name+"."+id+".img")
		st.paths = append(st.paths, path)
		n, err := cluster.StartNode(cluster.NodeConfig{
			ID: id, Server: sp.config(opt, path), Repl: cluster.ReplConfig{Window: 512},
		})
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, n)
		st.servers = append(st.servers, n.Server())
		infos = append(infos, cluster.NodeInfo{ID: id, Addr: n.Server().Addr(), Ctrl: "http://" + n.CtrlAddr()})
	}
	// A long lease: the members share two saturated cores with the
	// driver, and a heartbeat missed under load must not read as a
	// death — no workload here kills a node.
	r, err := cluster.StartRouter(cluster.RouterConfig{Nodes: infos, Heartbeat: 250 * time.Millisecond, LeaseMiss: 8})
	if err != nil {
		return st, err
	}
	st.router = r
	st.addr = r.Addr()
	for _, n := range st.nodes {
		if n.Repl().Epoch() == 0 {
			return st, fmt.Errorf("cluster: node %s holds no topology after router start", n.ID)
		}
	}
	return st, nil
}

// stop tears the stack down and removes its images. Abort skips the
// final seal and sync (throw-away set-ups); a graceful stop reports
// any backing-file error the servers hit.
func (st *stack) stop(abort bool) error {
	var first error
	if st.router != nil {
		st.router.Close()
	}
	stopOne := func(graceful, lossy func() error) {
		if abort {
			lossy() // a throw-away: whatever it reports changes nothing
		} else if err := graceful(); err != nil && first == nil {
			first = err
		}
	}
	if st.nodes != nil {
		for _, n := range st.nodes {
			stopOne(n.Close, n.Abort)
		}
	} else {
		for _, s := range st.servers {
			stopOne(s.Close, s.Abort)
		}
	}
	removeImages(st.paths...)
	return first
}

// removeImages deletes backing images and then syncs, so that the
// filesystem frees (and, mounted with discard, trims) their blocks now.
// Left to the next journal commit, that work lands up to five seconds
// later — inside the next measured window or the next timed set-up —
// and stalls every page fault that needs the journal while it runs: on
// the sandbox's ext4 it was the difference between a put_sat p99 of
// 480-530 us on every run and one of 500-1 560 us.
func removeImages(paths ...string) {
	for _, p := range paths {
		os.Remove(p)
	}
	syscall.Sync()
}

// setUp boots the stack and dials the driver's connections — workload
// start to "the first frame could be sent" — setupReps times, keeping
// the last. setup_s is the fastest of them: the first builds its image on
// cold heap, and of the rest more than half meet the disk (ten runs of
// cluster_mix: the five set-ups of one run read 0.64-3.3 s, their fastest
// 0.61-0.75 s over the ten runs, their lower quartile 0.65-1.11 s). Each
// throw-away is collected before the next boot, so the process peaks at
// one image, not five.
func (sp servingSpec) setUp(opt options) (*stack, []*conn, float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		st, err := sp.boot(opt)
		if err != nil {
			st.stop(true)
			return nil, nil, 0, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		conns := make([]*conn, driverConns)
		for i := range conns {
			if conns[i], err = dialConn(st.addr, i, opt.seed, sp); err != nil {
				closeConns(conns[:i])
				st.stop(true)
				return nil, nil, 0, fmt.Errorf("%s: set-up: %w", sp.name, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			return st, conns, slices.Min(times), nil
		}
		closeConns(conns)
		st.stop(true)
		runtime.GC()
	}
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// runPhaseAll drives one phase on every connection at once and returns
// when all have drained. sendEnd is when the last writer stopped
// sending.
func runPhaseAll(conns []*conn, ph phase) (sendEnd int64, err error) {
	ends := make([]int64, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = c.runPhase(ph)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	return slices.Max(ends), err
}

// hostUsage is the benchmark process's resource reading (source H).
type hostUsage struct {
	cpuNs      int64
	allocBytes uint64
	gcCycles   uint32
}

func rusage() (ru syscall.Rusage) {
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func readHost() hostUsage {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

func rssPeakMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// measured is one measured phase, merged over the connections.
type measured struct {
	opsPerS   float64
	intervals int // full intervals (ivlNs) behind the figures (0 = whole-window figures)
	done      [opKinds]uint64
	sumNs     [opKinds]uint64
	samples   [opKinds]int
	p50Ns     [opKinds]float64
	p90Ns     [opKinds]float64
	p99Ns     [opKinds]float64
	host      hostUsage // delta over the phase
}

func (m *measured) ops() uint64 { return m.done[kindGet] + m.done[kindPut] }

// quantile is the exact q-quantile of sorted values (nearest rank).
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// quantileOf is quantile for a short unsorted list, which it leaves
// as it was.
func quantileOf(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, q)
}

// medianOf is the median of a short unsorted list, the mean of the two
// middle values when there are two: with a handful of units (sixteen
// specs, four shards) the nearest rank is one unit's time, and which unit
// holds that rank changes from run to run.
func medianOf(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// The host disturbs a run from one side only: a stolen core or a late
// timer makes an interval or a repetition slower, never faster. Figures
// taken per repetition are therefore summarised by the quartile on the
// undisturbed side — the lower quartile of times — which stays put while
// up to three quarters of the repetitions are disturbed and, unlike the
// extreme, does not chase one lucky repetition.
const undisturbedTime = 0.25

// A serving window has many more intervals than a repetition-based
// workload has repetitions — 64 of 125 ms in 8 s — so it can afford the
// decile: the figure stays put while up to nine tenths of the window are
// disturbed and is still the seventh best interval, not the best. Ten
// put_few runs on a host whose mood changed every few seconds read a p95
// spread (interquartile, of the median) of 9.6% as the lower quartile of
// 500 ms intervals and 6.5% as the lower decile of 125 ms intervals; the
// p90, 6.2% and 4.8%.
const (
	intervalRate = 0.90 // upper decile of the interval rates
	intervalTime = 0.10 // lower decile of the interval percentiles
	minIntervals = 20   // fewer full intervals than this: whole-window figures
)

// measure runs phase id for seconds on every connection and merges
// what the readers recorded.
func measure(conns []*conn, sp servingSpec, id int, seconds float64, maxOps int, traced bool) (*measured, int64, int64, error) {
	for _, c := range conns {
		c.arm(id, sp.mix, seconds, traced)
	}
	runtime.GC() // start every window from a collected heap
	h0 := readHost()
	t0 := nanos()
	for _, c := range conns {
		c.stats[id].t0.Store(t0)
	}
	ph := phase{id: id, maxOps: maxOps / len(conns), deadline: t0 + int64(seconds*float64(time.Second)), traced: traced}
	sendEnd, err := runPhaseAll(conns, ph)
	h1 := readHost()
	if err != nil {
		return nil, t0, sendEnd, err
	}
	m := &measured{host: hostUsage{h1.cpuNs - h0.cpuNs, h1.allocBytes - h0.allocBytes, h1.gcCycles - h0.gcCycles}}
	ivl := make([]float64, len(conns[0].stats[id].ivl))
	for _, c := range conns {
		st := &c.stats[id]
		for k := 0; k < opKinds; k++ {
			m.done[k] += st.done[k]
			m.sumNs[k] += st.sumNs[k]
			m.samples[k] += len(st.lat[k])
		}
		for i, n := range st.ivl {
			ivl[i] += float64(n)
		}
	}
	// Throughput and the percentiles are taken per full interval of the
	// window — the rate of each interval, and the exact p50, p90 and p99
	// of the samples that completed in it — and summarised by the
	// undisturbed decile. Too short a window falls back to whole-window
	// figures.
	full := int((sendEnd - t0) / ivlNs)
	if full < minIntervals {
		m.opsPerS = float64(m.ops()) / (float64(sendEnd-t0) / 1e9)
		full = 0
	} else {
		m.intervals = full
		m.opsPerS = quantileOf(ivl[:full], intervalRate) / (float64(ivlNs) / 1e9)
	}
	for k := 0; k < opKinds; k++ {
		if m.samples[k] == 0 {
			continue
		}
		var p50s, p90s, p99s []float64
		var buf []uint32
		for i := 0; i < max(full, 1); i++ {
			buf = buf[:0]
			for _, c := range conns {
				if full == 0 {
					buf = append(buf, c.stats[id].lat[k]...)
				} else {
					buf = append(buf, c.stats[id].samples(k, i)...)
				}
			}
			if len(buf) == 0 {
				continue
			}
			slices.Sort(buf)
			p50s = append(p50s, quantile(buf, 0.50))
			p90s = append(p90s, quantile(buf, 0.90))
			p99s = append(p99s, quantile(buf, 0.99))
		}
		m.p50Ns[k] = quantileOf(p50s, intervalTime)
		m.p90Ns[k] = quantileOf(p90s, intervalTime)
		m.p99Ns[k] = quantileOf(p99s, intervalTime)
	}
	return m, t0, sendEnd, nil
}

// runServing executes one serving workload.
func runServing(sp servingSpec, opt options, rec *spanRec) (*result, error) {
	res := newResult(sp.name)
	root := rec.begin(0, "workload")
	ph := rec.begin(root, "setup")
	st, conns, setupS, err := sp.setUp(opt)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			closeConns(conns)
			st.stop(true)
		}
	}()

	budget := 1 << 40 // ops; get_sat journals nothing
	if sp.journalPerPut > 0 {
		puts := float64(sp.scaledMaxOps(opt.scale)) / sp.journalPerPut
		budget = int(puts * 100 / float64(sp.mix.Update))
	}
	warm := min(int(float64(sp.warmOps)*opt.scale), budget/8)
	budget -= warm

	ph = rec.next(ph, "warm")
	if _, err := runPhaseAll(conns, phase{maxOps: warm / len(conns)}); err != nil {
		return nil, err
	}

	// An untraced run measures once. A traced run splits the window:
	// first half untraced, second half with a client.op span for every
	// 64th op, and the ratio of the two rates is the tracing overhead.
	ph = rec.next(ph, "measure")
	measureSpan := ph
	seconds := opt.seconds
	if opt.trace {
		seconds /= 2
		budget /= 2
	}
	m, _, sendEnd, err := measure(conns, sp, 1, seconds, budget, false)
	if err != nil {
		return nil, err
	}
	var traced *measured
	if opt.trace {
		var t0 int64
		if traced, t0, sendEnd, err = measure(conns, sp, 2, seconds, budget, true); err != nil {
			return nil, err
		}
		for _, c := range conns {
			cs := rec.add(measureSpan, "conn#"+strconv.Itoa(c.id), t0, sendEnd)
			for _, op := range c.stats[2].spans {
				rec.add(cs, op.Name, op.Start, op.End)
			}
		}
	}
	ph = rec.nextAt(ph, "drain", sendEnd)

	ph = rec.next(ph, "verify")
	var sent, failed, okPuts uint64
	for _, c := range conns {
		sent += c.sent
		failed += c.failed
		okPuts += c.okPuts
		if c.firstBad != "" {
			res.note("%s", c.firstBad)
		}
		if c.recv != c.sent {
			res.note("conn %d: %d sent, %d answered", c.id, c.sent, c.recv)
			failed += c.sent - c.recv
		}
		keys := make([]uint64, sp.keys)
		for i := range keys {
			keys[i] = workloads.KVKey(c.id, i)
		}
		vals, err := readBack(st.addr, keys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		written, bad := checkFinal(c, opt.seed, sp, func(idx uint32) uint64 { return vals[idx] })
		if bad > 0 {
			res.note("conn %d: %d of %d written keys read back a value other than the last one sent", c.id, bad, written)
			failed += uint64(bad)
		}
		sent += uint64(len(keys))
	}
	res.Attempted, res.Failed = sent, failed

	// Always-on instruments, read before the graceful close pads and
	// seals one more batch per shard.
	sm := readServerSide(st, sp, opt, okPuts)

	ph = rec.next(ph, "close")
	stopped = true
	closeConns(conns)
	if err := st.stop(false); err != nil {
		return nil, fmt.Errorf("%s: close: %w", sp.name, err)
	}
	rec.end(ph)
	rec.end(root)

	res.note("window %.2fs, %d ops, ops_per_s is the upper decile of %d intervals of %d ms", seconds, m.ops(), m.intervals, ivlNs/1e6)
	res.note("latency samples: %d puts, %d gets (every %d-th op); percentiles are the lower decile of the per-interval figures", m.samples[kindPut], m.samples[kindGet], sp.stride)

	res.set("setup_s", setupS)
	res.set("ops_per_s", m.opsPerS)
	res.set("p50_us", m.p50Ns[sp.primary]/1e3)
	res.set("p90_us", m.p90Ns[sp.primary]/1e3)
	res.set("rss_peak_mb", rssPeakMB())

	res.set("driver.put_p50_us", m.p50Ns[kindPut]/1e3)
	res.set("driver.put_p99_us", m.p99Ns[kindPut]/1e3)
	res.set("driver.get_p50_us", m.p50Ns[kindGet]/1e3)
	res.set("driver.get_p99_us", m.p99Ns[kindGet]/1e3)
	for name, v := range sm {
		res.set(name, v)
	}
	if m.done[kindPut] > 0 {
		driverPutUs := float64(m.sumNs[kindPut]) / float64(m.done[kindPut]) / 1e3
		res.set("kvserve.put_outside_us", driverPutUs-sm["kvserve.put_server_us"])
	}
	res.set("host.cpu_us_per_op", float64(m.host.cpuNs)/1e3/float64(m.ops()))
	res.set("host.alloc_bytes_per_op", float64(m.host.allocBytes)/float64(m.ops()))
	res.set("host.gc_cycles", float64(m.host.gcCycles))
	if traced != nil {
		res.set("trace.overhead_share", 1-traced.opsPerS/m.opsPerS)
	}
	return res, nil
}

// readServerSide reads the servers' always-on instruments (source S):
// Server.Stats, Server.Metrics and Router.Metrics. No tracer is
// involved.
func readServerSide(st *stack, sp servingSpec, opt options, clientPuts uint64) map[string]float64 {
	out := map[string]float64{}
	cfg := sp.config(opt, "")
	var stats kvserve.Stats
	var regs []*obs.Registry
	for _, s := range st.servers {
		x := s.Stats()
		stats.Gets += x.Gets
		stats.Puts += x.Puts
		stats.AckedPuts += x.AckedPuts
		stats.Batches += x.Batches
		stats.Pads += x.Pads
		stats.Overloads += x.Overloads
		stats.Expired += x.Expired
		stats.Full += x.Full
		stats.LeakedLines += x.LeakedLines
		regs = append(regs, s.Metrics())
	}
	shardLabels := make([][]string, cfg.Shards)
	for i := range shardLabels {
		shardLabels[i] = []string{"shard", strconv.Itoa(i)}
	}
	// meanOf merges one histogram family over every registry and label
	// set given and returns its mean in the raw unit.
	meanOf := func(name string, seconds bool, labelSets ...[]string) float64 {
		if len(labelSets) == 0 {
			labelSets = [][]string{nil}
		}
		var sum, count uint64
		for _, r := range regs {
			for _, ls := range labelSets {
				sc := r.Scope(ls...)
				var h *obs.Histogram
				if seconds {
					h = sc.HistogramScaled(name, 1e-9)
				} else {
					h = sc.Histogram(name)
				}
				snap := h.Snapshot()
				sum += snap.Sum
				count += snap.Count
			}
		}
		if count == 0 {
			return 0
		}
		return float64(sum) / float64(count)
	}
	counter := func(rs []*obs.Registry, name string) (n uint64) {
		for _, r := range rs {
			n += r.Counter(name).Load()
		}
		return n
	}

	var stages float64
	for _, stage := range []string{"queue", "fill", "flush", "repl"} {
		us := meanOf("kvserve_stage_seconds", true, []string{"stage", stage}) / 1e3
		out["kvserve.stage_"+stage+"_us"] = us
		stages += us
	}
	server := meanOf("kvserve_put_latency_seconds", true, shardLabels...) / 1e3
	out["kvserve.put_server_us"] = server
	if server > 0 {
		gap := server - stages
		if gap < 0 {
			gap = -gap
		}
		out["kvserve.closure_gap_share"] = gap / server
	}
	out["kvserve.frames_per_writev"] = meanOf("kvserve_writev_frames_per_syscall", false)
	if stats.Gets > 0 {
		out["kvserve.seqlock_retries_per_mget"] = float64(counter(regs, "kvserve_seqlock_retries_total")) / float64(stats.Gets) * 1e6
	}
	out["kvserve.rejects_overload"] = float64(stats.Overloads)
	out["kvserve.rejects_full"] = float64(stats.Full)
	out["kvserve.rejects_expired"] = float64(stats.Expired)
	var highWater int64
	var peak float64
	for _, r := range regs {
		for _, ls := range shardLabels {
			sc := r.Scope(ls...)
			highWater = max(highWater, sc.Gauge("kvserve_mailbox_high_water").Load())
			peak = max(peak, float64(sc.Gauge("kvserve_journal_used").Load())/float64(cfg.MaxOps))
		}
	}
	out["kvserve.mailbox_high_water"] = float64(highWater)
	out["kvserve.journal_peak_share"] = peak

	if clientPuts > 0 && stats.Batches > 0 {
		// A sealed batch persists its K journal entries (16 B each) and
		// one checksum line; table lines reach the file only by leaking.
		// Summed over every node and divided by the puts acked to the
		// driver: on the cluster a put is journaled by its primary and
		// its follower, and both are bytes persisted for that one put.
		lines := stats.Batches*(batchK*16/64+1) + stats.LeakedLines
		out["kvserve.persist_bytes_per_put"] = 64 * float64(lines) / float64(clientPuts)
		out["kvserve.puts_per_batch"] = float64(stats.AckedPuts) / float64(stats.Batches)
		out["kvserve.pad_share"] = float64(stats.Pads) / float64(stats.Pads+stats.Puts)
		out["kvserve.leaked_lines_per_put"] = float64(stats.LeakedLines) / float64(clientPuts)
	}

	if sp.cluster {
		out["cluster.repl_puts_per_frame"] = meanOf("cluster_repl_batch_puts", false)
		out["cluster.repl_lag_us"] = meanOf("cluster_repl_lag_seconds", true) / 1e3
		out["cluster.repl_retries"] = float64(counter(regs, "cluster_repl_retries_total"))
		out["cluster.repl_degraded"] = float64(counter(regs, "cluster_repl_degraded_total"))
		rr := []*obs.Registry{st.router.Metrics()}
		if reqs := counter(rr, "cluster_router_requests_total"); reqs > 0 {
			out["cluster.router_bytes_per_op"] = float64(counter(rr, "router_proxy_bytes_total")) / float64(reqs)
		}
		out["cluster.router_backend_resets"] = float64(counter(rr, "cluster_router_backend_resets_total"))
	}
	return out
}
