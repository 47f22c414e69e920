package ep

import (
	"fmt"

	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// WAL is the write-ahead-logging durable-transaction strategy of the
// paper's Figure 2, generalized from one loop iteration to one region:
//
//  1. create undo-log entries (address, old value) for every store in
//     the region, flush them, fence;
//  2. set the per-thread logStatus word to "in transaction" with the
//     region key, flush, fence;
//  3. apply the region's data stores, flush their lines, fence;
//  4. clear logStatus (publishing the key as committed), flush, fence.
//
// Four flush+fence sequences per region, exactly as in Figure 2. Because
// all log entries must be durable *before* any data store, the region's
// stores are buffered until End; kernels must therefore not read a
// location they stored earlier in the same region (none of the paper's
// kernels do — each region writes each output element once).
type WAL struct {
	// Status holds each thread's logStatus word: key<<1 | inTx.
	Status Markers
	// Obs, when non-nil, tallies transactions/flushes/fences (one
	// branch and three atomic adds per committed transaction).
	Obs    *Tally
	logs   []pmem.U64
	counts []pmem.U64
	thr    []*walTS
}

// walStatus packs a region key and the in-transaction bit.
func walStatus(key int, inTx bool) uint64 {
	v := uint64(key) << 1
	if inTx {
		v |= 1
	}
	return v
}

// WALStatus unpacks a status word (for recovery and tests). ok is false
// for the durable initial value (no transaction ever ran).
func WALStatus(v uint64) (key int, inTx, ok bool) {
	if v == MarkerNone {
		return 0, false, false
	}
	return int(v >> 1), v&1 != 0, true
}

// NewWAL builds the WAL strategy. maxStores bounds the stores a single
// region may perform (log capacity); exceeding it panics.
func NewWAL(m *memsim.Memory, name string, nthreads, maxStores int) *WAL {
	s := LayoutWAL(m, name, nthreads, maxStores)
	s.Status.Format(m)
	return s
}

// LayoutWAL is NewWAL with the status words laid out but not formatted
// (Status.Format is the caller's, on a blank image only). Logs and entry
// counts start at zero, which fresh memory already is.
func LayoutWAL(m *memsim.Memory, name string, nthreads, maxStores int) *WAL {
	s := &WAL{Status: LayoutMarkers(m, name+".status", nthreads)}
	s.logs = make([]pmem.U64, nthreads)
	s.counts = make([]pmem.U64, nthreads)
	s.thr = make([]*walTS, nthreads)
	for i := range s.thr {
		s.logs[i] = pmem.AllocU64(m, fmt.Sprintf("%s.log%d", name, i), 2*maxStores)
		s.counts[i] = pmem.AllocU64(m, fmt.Sprintf("%s.logcount%d", name, i), markerStride)
		s.thr[i] = &walTS{parent: s, tid: i, max: maxStores, lines: NewLineSet()}
	}
	return s
}

// Name implements lp.Strategy.
func (s *WAL) Name() string { return "wal" }

// Thread implements lp.Strategy.
func (s *WAL) Thread(tid int) lp.ThreadStrategy { return s.thr[tid] }

// Log exposes thread tid's undo log (recovery, tests).
func (s *WAL) Log(tid int) pmem.U64 { return s.logs[tid] }

// LogCount exposes thread tid's persistent entry-count word.
func (s *WAL) LogCount(tid int) pmem.U64 { return s.counts[tid] }

type pendingStore struct {
	addr memsim.Addr
	val  uint64
}

type walTS struct {
	parent *WAL
	tid    int
	key    int
	max    int
	buf    []pendingStore
	lines  *LineSet
}

func (t *walTS) Begin(c pmem.Ctx, key int) {
	t.key = key
	t.buf = t.buf[:0]
	c.Compute(1)
}

func (t *walTS) Store64(c pmem.Ctx, a memsim.Addr, v uint64) {
	if len(t.buf) >= t.max {
		panic(fmt.Sprintf("ep: WAL region exceeded maxStores=%d", t.max))
	}
	t.buf = append(t.buf, pendingStore{addr: a, val: v})
	c.Compute(2) // log bookkeeping
}

func (t *walTS) StoreF(c pmem.Ctx, a memsim.Addr, v float64) {
	t.Store64(c, a, pmem.Float64Bits(v))
}

func (t *walTS) End(c pmem.Ctx) {
	p := t.parent
	log := p.logs[t.tid]
	count := p.counts[t.tid]

	// (1) Create and persist the undo log: (address, old value) pairs.
	for i, st := range t.buf {
		old := c.Load64(st.addr)
		log.Store(c, 2*i, uint64(st.addr))
		log.Store(c, 2*i+1, old)
	}
	count.Store(c, 0, uint64(len(t.buf)))
	PersistRange(c, log.Addr(0), 2*len(t.buf)*pmem.WordSize)
	c.Flush(count.Addr(0))
	c.Fence()

	// (2) Durably enter the transaction.
	p.Status.StoreEager(c, t.tid, walStatus(t.key, true))

	// (3) Apply and persist the data stores.
	t.lines.Reset()
	for _, st := range t.buf {
		c.Store64(st.addr, st.val)
		t.lines.Add(st.addr)
	}
	for _, la := range t.lines.Lines() {
		c.Flush(la)
	}
	c.Fence()

	// (4) Durably commit (clear inTx, publish the key).
	p.Status.StoreEager(c, t.tid, walStatus(t.key, false))

	if o := p.Obs; o != nil {
		// Mirror the flush sequence above: the log window's lines plus
		// the count line (1), the two status publishes (2), and the
		// region's deduplicated data lines.
		logLines := 0
		if n := 2 * len(t.buf); n > 0 {
			logLines = int(memsim.LineOf(log.Addr(n-1))-memsim.LineOf(log.Addr(0)))/memsim.LineSize + 1
		}
		o.Regions.Inc()
		o.Flushes.Add(uint64(logLines + 3 + len(t.lines.Lines())))
		o.Fences.Add(4)
	}
}

// WALRecover rolls back any in-flight transaction of thread tid using
// its undo log, eagerly persisting the restored values. It returns the
// key found in the status word and whether the crash interrupted that
// transaction (inTx): if inTx, region key was rolled back and must be
// re-executed; otherwise key committed and execution resumes after it.
// ok is false when the thread never started a transaction.
//
// Rollback is idempotent and the status word is left untouched until the
// re-executed region commits, so a second failure during or after
// recovery simply rolls back again — forward progress is preserved.
func (s *WAL) WALRecover(c pmem.Ctx, tid int) (key int, inTx, ok bool) {
	k, in, valid := WALStatus(s.Status.Load(c, tid))
	if !valid || !in {
		return k, false, valid
	}
	// Crash happened inside transaction k: restore old values.
	n := int(s.counts[tid].Load(c, 0))
	log := s.logs[tid]
	for i := 0; i < n; i++ {
		addr := memsim.Addr(log.Load(c, 2*i))
		old := log.Load(c, 2*i+1)
		c.Store64(addr, old)
		c.Flush(addr)
	}
	c.Fence()
	return k, true, true
}
