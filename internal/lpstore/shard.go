package lpstore

import (
	"fmt"

	"lazyp/internal/checksum"
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
)

// NopKey is the reserved key of journal padding records. Group-commit
// callers (kvserve) close a partial LP batch by padding it to BatchK
// entries with no-op records so every committed batch occupies exactly
// its aligned journal window — the invariant that lets a restarted
// writer resume appending at a batch boundary. NOP entries fold into
// the batch checksum and count toward AckedPrefix like real puts, but
// replay and rebuild skip them; they never touch the table. Clients of
// a store must not use this key (or 0, the empty-slot sentinel).
const NopKey = ^uint64(0)

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
// per-batch checksum table that acknowledges journal prefixes.
type Shard struct {
	ID  int
	Tab *Store

	// LP mechanism; nil/zero unless built by NewShardLP.
	Jrn    pmem.U64  // 2 words per put: (key, value), append-only
	Ack    *lp.Table // one checksum slot per batch of BatchK puts
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
// a batch's length (sealed partial batches are shorter than batchK, and
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

// batches returns the journal's batch capacity.
func (sh *Shard) batches() int { return (sh.MaxOps + sh.BatchK - 1) / sh.BatchK }

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
//	lp   — one region per BatchK puts, journal words folded into the
//	       region checksum, data stores plain (lazy);
//	ep   — one region per put (flush+fence+marker via ep.Recompute);
//	wal  — one durable transaction per put (ep.WAL).
type Writer struct {
	Sh   *Shard
	mode Mode

	mut lp.ThreadStrategy // slot-store interceptor (base/ep/wal TS)
	jr  lp.ThreadStrategy // LP: journal folding TS (lpTS over Ack)

	seq     int // puts issued (journal cursor; ep/wal region key)
	inBatch int // puts in the open LP batch
	batch   int // current LP batch index

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
	if k == NopKey {
		panic("lpstore: NopKey is reserved for journal padding")
	}
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
		if w.inBatch == 0 {
			w.jr.Begin(c, w.batch)
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
		w.inBatch++
		if w.inBatch == w.Sh.BatchK {
			w.jr.End(c)
			w.batch++
			w.inBatch = 0
			if m := w.Sh.Obs; m != nil {
				m.BatchSeals.Inc()
			}
		}
	}
}

// Seal closes an open partial LP batch at the end of a run, lazily
// committing its checksum so the tail ops become acknowledgeable. A
// no-op under the other disciplines (they acknowledge per put).
func (w *Writer) Seal(c pmem.Ctx) {
	if w.mode == ModeLP && w.inBatch > 0 {
		w.jr.End(c)
		w.batch++
		w.inBatch = 0
		if m := w.Sh.Obs; m != nil {
			m.BatchSeals.Inc()
		}
	}
}

// Seq returns the number of puts issued (the journal cursor under LP,
// the region key under EP/WAL).
func (w *Writer) Seq() int { return w.seq }

// InBatch returns the number of puts in the open LP batch (0 when no
// batch is open or the writer is not in LP mode).
func (w *Writer) InBatch() int { return w.inBatch }

// Batch returns the index of the current (next-to-commit) LP batch.
func (w *Writer) Batch() int { return w.batch }

// PadBatch closes an open LP batch by journaling NopKey records until
// the batch reaches BatchK entries, which triggers the normal lazy
// checksum commit. It returns the number of padding records written (0
// if no batch was open). Unlike Seal, the committed batch fills its
// whole aligned journal window, so a restarted writer can resume at
// the next batch boundary and AckedPrefix never sees a short batch
// followed by live data. Group-commit services use this on batch
// timeout and drain; the closed-loop harness keeps using Seal.
func (w *Writer) PadBatch(c pmem.Ctx) int {
	if w.mode != ModeLP || w.inBatch == 0 {
		return 0
	}
	pads := 0
	for w.inBatch > 0 {
		if w.seq >= w.Sh.MaxOps {
			panic("lpstore: LP journal capacity exceeded while padding")
		}
		w.jr.Store64(c, w.Sh.Jrn.Addr(2*w.seq), NopKey)
		w.jr.Store64(c, w.Sh.Jrn.Addr(2*w.seq+1), 0)
		if m := w.Sh.Obs; m != nil {
			m.JournalAppends.Inc()
		}
		w.seq++
		w.inBatch++
		pads++
		if w.inBatch == w.Sh.BatchK {
			w.jr.End(c)
			w.batch++
			w.inBatch = 0
			if m := w.Sh.Obs; m != nil {
				m.BatchSeals.Inc()
			}
		}
	}
	return pads
}

// ResumeAt positions a freshly built LP writer at put sequence seq so
// it continues appending to a journal recovered from a previous
// incarnation (kvserve restart). seq must be a batch boundary — the
// acknowledged prefix of a journal whose batches were all committed
// full (PadBatch) always is — because the running checksum of a
// half-open batch cannot be reconstructed.
func (w *Writer) ResumeAt(seq int) {
	if w.mode != ModeLP {
		panic("lpstore: ResumeAt is only meaningful for LP writers")
	}
	if seq < 0 || seq > w.Sh.MaxOps || seq%w.Sh.BatchK != 0 {
		panic(fmt.Sprintf("lpstore: ResumeAt(%d) is not a batch boundary (BatchK %d)", seq, w.Sh.BatchK))
	}
	w.seq = seq
	w.batch = seq / w.Sh.BatchK
	w.inBatch = 0
}
