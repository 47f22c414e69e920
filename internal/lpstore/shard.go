package lpstore

import (
	"fmt"

	"lazyp/internal/checksum"
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
)

// Mode selects the persistence discipline a Writer applies per put.
type Mode uint8

// The four disciplines of the KV experiment (Figure-10 analogue).
const (
	ModeBase Mode = iota
	ModeLP
	ModeEP
	ModeWAL
)

func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeLP:
		return "lp"
	case ModeEP:
		return "ep"
	case ModeWAL:
		return "wal"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Shard is one thread's share of the store: a table plus, when built
// with NewShardLP, the LP mechanism — a persistent op journal and the
// per-window checksum table that acknowledges journal prefixes.
type Shard struct {
	ID  int
	Tab *Store

	// LP mechanism; nil/zero unless built by NewShardLP.
	Jrn    pmem.U64  // 2 words per put: (key, value), append-only
	Ack    *lp.Table // one checksum slot per window of BatchK journal records
	BatchK int
	MaxOps int
	kind   checksum.Kind

	// Obs, when non-nil, receives journal/recovery counters and trace
	// events (see obs.go). Left nil by the closed-loop simulator.
	Obs *Metrics
}

// NewShard builds a shard without the LP mechanism (base/EP/WAL runs).
func NewShard(m *memsim.Memory, name string, id, capacity int) *Shard {
	return &Shard{ID: id, Tab: NewStore(m, name+".tab", capacity)}
}

// NewShardLP builds a shard with the LP journal and a formatted ack
// table, sized for at most maxOps puts in batches of batchK.
func NewShardLP(m *memsim.Memory, name string, id, capacity, maxOps, batchK int, kind checksum.Kind) *Shard {
	sh := LayoutShardLP(m, name, id, capacity, maxOps, batchK, kind)
	sh.Ack.Format(m)
	return sh
}

// LayoutShardLP is NewShardLP without the format: it writes nothing, so it
// is safe over an image holding a prior run; over a blank one the caller
// formats Ack. The journal needs none: fresh memory is durably zero, and
// key word 0 marks a never-written entry, which is how recovery measures
// a window's length (a window sealed short holds fewer than batchK, and
// the Modular checksum cannot distinguish trailing zero words by itself).
func LayoutShardLP(m *memsim.Memory, name string, id, capacity, maxOps, batchK int, kind checksum.Kind) *Shard {
	if batchK < 1 || maxOps < 1 {
		panic("lpstore: batchK and maxOps must be positive")
	}
	sh := NewShard(m, name, id, capacity)
	sh.Jrn = pmem.AllocU64(m, name+".jrn", 2*maxOps)
	sh.Ack = lp.LayoutTable(m, name+".ack", (maxOps+batchK-1)/batchK+1)
	sh.BatchK = batchK
	sh.MaxOps = maxOps
	sh.kind = kind
	return sh
}

// windows returns the journal's window capacity.
func (sh *Shard) windows() int { return (sh.MaxOps + sh.BatchK - 1) / sh.BatchK }

// Preload inserts n keys directly into the table — architectural and
// durable images both, no simulation — before measured execution, the
// same convention as the kernels' Fill. keyval yields the i-th pair;
// the result is the bytes persisted (the whole table).
func (sh *Shard) Preload(m *memsim.Memory, n int, keyval func(i int) (k, v uint64)) int {
	c := &pmem.Native{Mem: m}
	base := lp.Base{}.Thread(0)
	for i := 0; i < n; i++ {
		k, v := keyval(i)
		sh.Tab.Put(c, base, k, v)
	}
	m.Persist(sh.Tab.kv.Base, 2*sh.Tab.cap*pmem.WordSize)
	return 2 * sh.Tab.cap * pmem.WordSize
}

// Writer drives one shard under one persistence discipline. It is
// thread-private (one Writer per simulated thread, over that thread's
// shard) and holds the discipline's region cadence:
//
//	base — plain stores, no regions;
//	lp   — one region per window of BatchK journal records, their words
//	       folded into the region checksum, which is committed when the
//	       window fills and by every Seal before that, each time over a
//	       longer prefix; data stores plain (lazy);
//	ep   — one region per put (flush+fence+marker via ep.Recompute);
//	wal  — one durable transaction per put (ep.WAL).
type Writer struct {
	Sh   *Shard
	mode Mode

	mut lp.ThreadStrategy // slot-store interceptor (base/ep/wal TS)
	jr  lp.ThreadStrategy // LP: journal folding TS (lpTS over Ack)

	seq   int // puts issued (journal cursor; ep/wal region key)
	inWin int // LP: records in the open journal window (seq % BatchK)

	// Host-side op counters for reporting.
	Reads, Puts, Inserts uint64
}

// NewWriter wires a writer for base/EP/WAL: mut is the per-thread
// strategy instance supplied by the caller (lp.Base{}.Thread(tid),
// ep.Recompute.Thread(tid), or ep.WAL.Thread(tid)).
func (sh *Shard) NewWriter(mode Mode, mut lp.ThreadStrategy) *Writer {
	if mode == ModeLP {
		panic("lpstore: use NewLPWriter for ModeLP")
	}
	return &Writer{Sh: sh, mode: mode, mut: mut}
}

// NewLPWriter wires the LP writer over the shard's own acknowledgment
// table. The shard has a single writer thread, so the LP strategy is
// built with one thread and no state is shared.
func (sh *Shard) NewLPWriter() *Writer {
	if sh.Ack == nil {
		panic("lpstore: shard was not built with NewShardLP")
	}
	return &Writer{
		Sh:   sh,
		mode: ModeLP,
		mut:  lp.Base{}.Thread(0), // data stores stay lazy under LP
		jr:   lp.NewLP(sh.Ack, sh.kind, 1).Thread(0),
	}
}

// Mode returns the writer's discipline.
func (w *Writer) Mode() Mode { return w.mode }

// Get reads k. Reads are plain loads under every discipline.
func (w *Writer) Get(c pmem.Ctx, k uint64) (uint64, bool) {
	w.Reads++
	return w.Sh.Tab.Get(c, k)
}

// Put inserts or updates k under the writer's discipline.
func (w *Writer) Put(c pmem.Ctx, k, v uint64) {
	w.Puts++
	switch w.mode {
	case ModeBase:
		if w.Sh.Tab.Put(c, w.mut, k, v) {
			w.Inserts++
		}
	case ModeEP, ModeWAL:
		// One region — one flush+fence(+marker) sequence or one durable
		// transaction — per mutation, keyed by the put sequence number.
		w.mut.Begin(c, w.seq)
		if w.Sh.Tab.Put(c, w.mut, k, v) {
			w.Inserts++
		}
		w.mut.End(c)
		w.seq++
	case ModeLP:
		if w.seq >= w.Sh.MaxOps {
			panic("lpstore: LP journal capacity exceeded")
		}
		if w.inWin == 0 {
			w.jr.Begin(c, w.seq/w.Sh.BatchK)
		}
		// Journal first (the record that makes the op replayable), then
		// the table mutation; both are plain lazy stores — only the
		// journal words fold into the batch checksum, because table
		// slots are routinely overwritten by later batches and their
		// post-hoc checksums would not be verifiable.
		w.jr.Store64(c, w.Sh.Jrn.Addr(2*w.seq), k)
		w.jr.Store64(c, w.Sh.Jrn.Addr(2*w.seq+1), v)
		if w.Sh.Tab.Put(c, w.mut, k, v) {
			w.Inserts++
		}
		if m := w.Sh.Obs; m != nil {
			m.JournalAppends.Inc()
			m.trace(obs.EvJournalAppend, int32(w.Sh.ID), uint64(w.seq), k)
		}
		w.seq++
		w.inWin++
		if w.inWin == w.Sh.BatchK {
			w.commit(c)
			w.inWin = 0
		}
	}
}

// Seal acknowledges the puts journaled so far: it lazily commits the
// open window's checksum over the records the window holds, and leaves
// the window open — the next Put appends to it and the next commit
// covers a longer prefix. A no-op when the last put filled its window
// (Put committed it) and under the other disciplines (they acknowledge
// per put).
func (w *Writer) Seal(c pmem.Ctx) {
	if w.mode == ModeLP && w.inWin > 0 {
		w.commit(c)
	}
}

// commit stores the running checksum into the open window's slot.
func (w *Writer) commit(c pmem.Ctx) {
	w.jr.End(c)
	if m := w.Sh.Obs; m != nil {
		m.BatchSeals.Inc()
	}
}

// Seq returns the number of puts issued (the journal cursor under LP,
// the region key under EP/WAL).
func (w *Writer) Seq() int { return w.seq }

// ResumeAt positions a freshly built LP writer at put sequence seq so
// it continues appending to a journal recovered from a previous
// incarnation (kvserve restart). seq may fall inside a window: the
// window's seq % BatchK acknowledged records are folded again through
// the journal strategy (stored back unchanged), which rebuilds the
// running checksum the next commit extends.
func (w *Writer) ResumeAt(c pmem.Ctx, seq int) {
	if w.mode != ModeLP || seq < 0 || seq > w.Sh.MaxOps {
		panic(fmt.Sprintf("lpstore: ResumeAt(%d) outside an LP journal of %d", seq, w.Sh.MaxOps))
	}
	w.seq = seq
	w.inWin = seq % w.Sh.BatchK
	if w.inWin > 0 {
		w.jr.Begin(c, seq/w.Sh.BatchK)
		for i := 2 * (seq - w.inWin); i < 2*seq; i++ {
			w.jr.Store64(c, w.Sh.Jrn.Addr(i), w.Sh.Jrn.Load(c, i))
		}
	}
}
