// Package ep implements the Eager Persistency baselines the paper
// compares against (§V-C, Figure 10):
//
//   - Recompute — the state-of-the-art EagerRecompute scheme of
//     Elnawawy et al. (PACT 2017): no logging; each region's stores are
//     flushed with clflushopt and fenced at region end, then a per-thread
//     progress marker is persisted. Recovery rolls back to the marker and
//     recomputes everything after it.
//   - WAL — durable transactions with write-ahead (undo) logging built
//     from Intel PMEM primitives, following the paper's Figure 2: four
//     flush+fence sequences per transaction (log creation, logStatus set,
//     data persist, logStatus clear).
//
// Package ep also provides the eager primitives (PersistRange, LineSet)
// that Lazy Persistency's *recovery* code uses: recovery is always eager
// so that it makes forward progress across repeated failures (§III-E).
package ep

import (
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
)

// Tally counts a discipline's eager ordering points — completed
// regions and the flushes and fences they issued. Attached optionally
// (nil, the simulator's configuration, costs one branch per region
// end); kvserve wires one per discipline so the eager baselines'
// write-amplification story is scrapeable next to LP's journal
// counters.
type Tally struct {
	Regions *obs.Counter // ep_regions_total: regions (EP) / transactions (WAL) completed
	Flushes *obs.Counter // ep_flushes_total: clflushopt-equivalents issued
	Fences  *obs.Counter // ep_fences_total: persist fences issued
}

// NewTally resolves the counters under sc with the discipline label.
func NewTally(sc obs.Scope, discipline string) *Tally {
	sc = sc.With("discipline", discipline)
	return &Tally{
		Regions: sc.Counter("ep_regions_total"),
		Flushes: sc.Counter("ep_flushes_total"),
		Fences:  sc.Counter("ep_fences_total"),
	}
}

// PersistRange flushes every cache line overlapping [base, base+size).
// The caller issues the Fence (flushes from one fence batch overlap, as
// with clflushopt on real hardware).
func PersistRange(c pmem.Ctx, base memsim.Addr, size int) {
	first := memsim.LineOf(base)
	last := memsim.LineOf(base + memsim.Addr(size) - 1)
	for la := first; la <= last; la += memsim.LineSize {
		c.Flush(la)
	}
}

// PersistValue stores v at a, flushes the line, and fences — the
// store/clflushopt/sfence triple of the PMEM model.
func PersistValue(c pmem.Ctx, a memsim.Addr, v uint64) {
	c.Store64(a, v)
	c.Flush(a)
	c.Fence()
}

// LineSet deduplicates the cache lines written by a region so each line
// is flushed once per region end, matching how the paper's tile size is
// chosen "so that one stride is persisted using only one clflushopt".
// Small regions — a KV put writes one or two lines — dedup by scanning
// the order slice; the map only materializes once a region outgrows the
// scan threshold (kernel regions with hundreds of lines) and is then
// kept across Resets.
type LineSet struct {
	seen  map[memsim.Addr]struct{} // nil while the linear scan suffices
	order []memsim.Addr
}

// lineSetScanMax is the set size beyond which Add switches from the
// linear scan to the map.
const lineSetScanMax = 16

// NewLineSet returns an empty set.
func NewLineSet() *LineSet {
	return &LineSet{}
}

// Add records the line containing a. It returns true on first sight.
func (s *LineSet) Add(a memsim.Addr) bool {
	la := memsim.LineOf(a)
	if s.seen == nil {
		for _, x := range s.order {
			if x == la {
				return false
			}
		}
		s.order = append(s.order, la)
		if len(s.order) > lineSetScanMax {
			s.seen = make(map[memsim.Addr]struct{}, 2*lineSetScanMax)
			for _, x := range s.order {
				s.seen[x] = struct{}{}
			}
		}
		return true
	}
	if _, ok := s.seen[la]; ok {
		return false
	}
	s.seen[la] = struct{}{}
	s.order = append(s.order, la)
	return true
}

// Lines returns the recorded lines in first-write order.
func (s *LineSet) Lines() []memsim.Addr { return s.order }

// Reset empties the set, retaining capacity.
func (s *LineSet) Reset() {
	if s.seen != nil {
		clear(s.seen)
	}
	s.order = s.order[:0]
}

// MarkerNone is the durable initial value of progress markers: no region
// completed yet.
const MarkerNone = ^uint64(0)

// markerStride spaces per-thread marker words one cache line apart so
// markers of different threads never share (and ping-pong) a line.
const markerStride = memsim.LineSize / pmem.WordSize

// Markers is a per-thread array of durable progress words, one cache
// line apart.
type Markers struct {
	words pmem.U64
}

// NewMarkers allocates and durably initializes one marker per thread.
func NewMarkers(m *memsim.Memory, name string, nthreads int) Markers {
	mk := LayoutMarkers(m, name, nthreads)
	mk.Format(m)
	return mk
}

// LayoutMarkers allocates the markers' addresses and writes nothing; see
// lp.LayoutTable for who wants that.
func LayoutMarkers(m *memsim.Memory, name string, nthreads int) Markers {
	return Markers{words: pmem.AllocU64(m, name, nthreads*markerStride)}
}

// Format durably initializes every marker to MarkerNone and returns the
// bytes it persisted.
func (mk Markers) Format(m *memsim.Memory) int { return mk.words.Fill(m, MarkerNone) }

// Addr returns the address of thread tid's marker.
func (mk Markers) Addr(tid int) memsim.Addr { return mk.words.Addr(tid * markerStride) }

// Load reads thread tid's marker.
func (mk Markers) Load(c pmem.Ctx, tid int) uint64 { return mk.words.Load(c, tid*markerStride) }

// StoreEager durably publishes thread tid's marker (store+flush+fence).
func (mk Markers) StoreEager(c pmem.Ctx, tid int, v uint64) {
	mk.words.Store(c, tid*markerStride, v)
	c.Flush(mk.Addr(tid))
	c.Fence()
}

// Recompute is the EagerRecompute strategy.
type Recompute struct {
	// Markers holds each thread's last-completed region key.
	Markers Markers
	// Obs, when non-nil, tallies regions/flushes/fences (one branch
	// and at most three atomic adds per region end).
	Obs     *Tally
	threads []*recomputeTS
}

// NewRecompute builds the EagerRecompute strategy for nthreads threads,
// allocating its persistent progress markers from m.
func NewRecompute(m *memsim.Memory, name string, nthreads int) *Recompute {
	s := LayoutRecompute(m, name, nthreads)
	s.Markers.Format(m)
	return s
}

// LayoutRecompute is NewRecompute with the markers laid out but not
// formatted (Markers.Format is the caller's, on a blank image only).
func LayoutRecompute(m *memsim.Memory, name string, nthreads int) *Recompute {
	s := &Recompute{Markers: LayoutMarkers(m, name+".markers", nthreads)}
	s.threads = make([]*recomputeTS, nthreads)
	for i := range s.threads {
		s.threads[i] = &recomputeTS{parent: s, tid: i}
	}
	return s
}

// Name implements lp.Strategy.
func (s *Recompute) Name() string { return "ep" }

// Thread implements lp.Strategy.
func (s *Recompute) Thread(tid int) lp.ThreadStrategy { return s.threads[tid] }

type recomputeTS struct {
	parent   *Recompute
	tid      int
	key      int
	lastLine memsim.Addr
	nflush   int // flushes issued by the open region (thread-private)
}

func (t *recomputeTS) Begin(c pmem.Ctx, key int) {
	t.key = key
	t.lastLine = 0
	t.nflush = 0
	c.Compute(1)
}

// Store64 persists "as it goes": when the store moves to a new cache
// line, the just-completed line is flushed immediately, overlapping the
// controller's drain with the region's remaining computation. The
// paper's tile size is chosen so "one stride is persisted using only one
// clflushopt" — this is that inline flush. Lines written more than once
// in a region (none of our kernels do this within a region) would simply
// be flushed more than once, which is correct but wasteful — exactly
// EagerRecompute's coalescing weakness the paper measures.
func (t *recomputeTS) Store64(c pmem.Ctx, a memsim.Addr, v uint64) {
	c.Store64(a, v)
	c.Compute(1) // flush bookkeeping
	la := memsim.LineOf(a)
	if la != t.lastLine {
		if t.lastLine != 0 {
			c.Flush(t.lastLine)
			t.nflush++
		}
		t.lastLine = la
	}
}

func (t *recomputeTS) StoreF(c pmem.Ctx, a memsim.Addr, v float64) {
	t.Store64(c, a, pmem.Float64Bits(v))
}

// End flushes the final line, waits for all of the region's flushes to
// reach the durability domain, then durably advances the thread's
// progress marker — EagerRecompute "waits after finishing each tile
// until all data modified in the transaction is persistent".
func (t *recomputeTS) End(c pmem.Ctx) {
	if t.lastLine != 0 {
		c.Flush(t.lastLine)
		t.nflush++
		t.lastLine = 0
	}
	c.Fence()
	t.parent.Markers.StoreEager(c, t.tid, uint64(t.key))
	if o := t.parent.Obs; o != nil {
		o.Regions.Inc()
		o.Flushes.Add(uint64(t.nflush) + 1) // +1: the marker's flush
		o.Fences.Add(2)                     // region fence + marker fence
	}
}
