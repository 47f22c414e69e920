package sim

import (
	"math"

	"lazyp/internal/memsim"
	"lazyp/internal/obs"
)

// Hazards counts structural-hazard events per thread. The fields mirror
// the paper's Table VI with documented proxies (DESIGN.md §1):
//
//   - MSHRFull      — a miss found all MSHRs busy ("MSHR" column).
//   - IssueBurst    — instructions issued in the burst that follows any
//     pipeline stall; a proxy for integer-FU saturation ("FUI").
//   - ROBStall      — issue blocked because a load miss aged out of the
//     reorder window; a proxy for load-queue pressure ("FUR").
//   - WriteQFull    — a flush found the MC write queue full ("FUW").
//   - StoreQFull    — a store found the store buffer full.
//   - WBThrottle    — a cache miss whose dirty eviction found the shared
//     MC write queue backlogged stalled until a slot drained: NVMM
//     write-bandwidth backpressure on natural write-backs, which hits
//     every scheme, base included (see Thread.bookWritebacks). It
//     shares the paper's "FUW" column as its proxy with WriteQFull —
//     FUW counts flush-path write-queue pressure, WBThrottle the
//     eviction-path pressure the paper's MC write queue also exerts.
//   - FenceStalls / FenceCycles — sfence events and the cycles they cost.
type Hazards struct {
	MSHRFull    uint64
	IssueBurst  uint64
	ROBStall    uint64
	WriteQFull  uint64
	StoreQFull  uint64
	WBThrottle  uint64
	FenceStalls uint64
	FenceCycles int64
	StallCycles int64
}

func (h *Hazards) add(o Hazards) {
	h.MSHRFull += o.MSHRFull
	h.IssueBurst += o.IssueBurst
	h.ROBStall += o.ROBStall
	h.WriteQFull += o.WriteQFull
	h.StoreQFull += o.StoreQFull
	h.WBThrottle += o.WBThrottle
	h.FenceStalls += o.FenceStalls
	h.FenceCycles += o.FenceCycles
	h.StallCycles += o.StallCycles
}

// OpCounts tallies the dynamic operations a thread performed.
type OpCounts struct {
	Loads   uint64
	Stores  uint64
	Flushes uint64
	Fences  uint64
	Instrs  uint64
}

func (o *OpCounts) add(p OpCounts) {
	o.Loads += p.Loads
	o.Stores += p.Stores
	o.Flushes += p.Flushes
	o.Fences += p.Fences
	o.Instrs += p.Instrs
}

// missEntry tracks one outstanding non-L1 access for the ROB/MSHR model.
type missEntry struct {
	instr uint64 // instruction count at issue
	done  int64  // completion cycle
}

// missRing is a fixed-capacity FIFO of outstanding misses.
type missRing struct {
	buf  []missEntry
	head int
	n    int
}

func (r *missRing) init(capacity int) { r.buf = make([]missEntry, capacity); r.head, r.n = 0, 0 }
func (r *missRing) full() bool        { return r.n == len(r.buf) }
func (r *missRing) empty() bool       { return r.n == 0 }
func (r *missRing) front() missEntry  { return r.buf[r.head] }

// The rings wrap with a compare-and-subtract rather than %: these run on
// every load/store, and an integer divide there is measurable.
func (r *missRing) pop() {
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}
func (r *missRing) push(e missEntry) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

// timeRing is a fixed-capacity FIFO of completion times (store buffer and
// MC write queue).
type timeRing struct {
	buf  []int64
	head int
	n    int
	maxT int64 // largest completion time ever pushed; see maxPending
}

func (r *timeRing) init(capacity int) { r.buf = make([]int64, capacity); r.head, r.n = 0, 0 }
func (r *timeRing) full() bool        { return r.n == len(r.buf) }
func (r *timeRing) front() int64      { return r.buf[r.head] }
func (r *timeRing) pop() {
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}
func (r *timeRing) push(t int64) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = t
	r.n++
	if t > r.maxT {
		r.maxT = t
	}
}

// drainDone pops entries completed by cycle now.
func (r *timeRing) drainDone(now int64) {
	for r.n > 0 && r.front() <= now {
		r.pop()
	}
}

// maxPending stands in for "latest completion among pending entries"
// without walking the ring: entries leave only via drainDone, which pops
// nothing completing after now, so whenever maxT exceeds the caller's
// clock its entry is still pending and maxT equals the true pending max;
// when maxT is at or below the clock the true max is too, and both
// answers impose no wait. Callers only compare the result against their
// clock, so the two are interchangeable.
func (r *timeRing) maxPending() int64 { return r.maxT }

// Thread is one simulated hardware thread pinned to its own core. All
// methods must be called from the thread's own body function; the engine
// guarantees only one thread executes at a time.
//
// Thread satisfies the pmem.Ctx interface, so workload kernels written
// against pmem run unchanged on the simulator and natively.
type Thread struct {
	id  int
	eng *Engine

	// mem/hier shadow eng.Mem/eng.Hier: the load/store fast paths
	// touch both on every operation, and reaching them in one hop
	// instead of two through eng keeps the hops off the hot path.
	mem  *memsim.Memory
	hier *memsim.Hierarchy

	now        int64
	grantUntil int64
	width      int // cfg.IssueWidth, copied to keep issue's fast path flat

	// widthShift/widthMask replace issueSlow's divide by width with a
	// shift and mask when the width is a power of two (it always is in
	// practice); widthMask < 0 selects the generic divide.
	widthShift uint8
	widthMask  int32

	// yield suspends the thread's coroutine to Run's trampoline; see
	// suspend.
	yield func(dispatchKind) bool

	instr     uint64
	opCarry   int
	burstLeft int

	// robGate is the instruction count at which the oldest outstanding
	// miss ages out of the reorder window (maxUint64 when none is
	// outstanding): mshr.front().instr + ROBWindow, maintained by
	// robCheck and outstanding. While instr stays below the gate the
	// ROB check cannot pop-stall, so the op fast paths compare against
	// it instead of running robCheck's drain loop on every issue.
	robGate uint64

	mshr   missRing
	storeq timeRing

	haz Hazards
	ops OpCounts
}

// ThreadID returns the thread's index in [0, Config.Threads).
func (t *Thread) ThreadID() int { return t.id }

// Now returns the thread's local cycle clock.
func (t *Thread) Now() int64 { return t.now }

// Hazards returns the thread's hazard counters.
func (t *Thread) Hazards() Hazards { return t.haz }

// Ops returns the thread's dynamic operation counts. Instrs is carried
// in t.instr (the ROB-age counter) rather than incremented twice on the
// per-instruction hot path.
func (t *Thread) Ops() OpCounts {
	o := t.ops
	o.Instrs = t.instr
	return o
}

// burstWindow is how many post-stall instructions count toward the FUI
// (issue-burst) proxy.
func (t *Thread) burstWindow() int { return t.eng.cfg.IssueWidth * 4 }

// stallTo advances the clock to cycle c, accounting the stall and arming
// the post-stall issue burst.
func (t *Thread) stallTo(c int64) {
	if c > t.now {
		t.haz.StallCycles += c - t.now
		t.now = c
		t.burstLeft = t.burstWindow()
	}
}

// Issuing n instructions of front-end issue bandwidth is open-coded at
// every op site ("issue(n) by hand"): the fast path — carry stays under
// the issue width, no post-stall burst window open, no outstanding miss
// to age against the ROB — is two adds and three compares, but as a
// function it sits just over the compiler's inlining budget, so each op
// repeats it inline and falls into issueSlow for the rest.
//
// issueSlow handles that rest: clock advance on a filled issue group,
// burst accounting, and the ROB-age check (robCheck is a no-op when no
// miss is outstanding, which is why the fast path may skip it).
func (t *Thread) issueSlow(c, n int) {
	if c < t.width {
		t.opCarry = c
	} else if t.widthMask >= 0 {
		t.now += int64(c >> t.widthShift)
		t.opCarry = c & int(t.widthMask)
	} else {
		t.now += int64(c / t.width)
		t.opCarry = c % t.width
	}
	if t.burstLeft > 0 {
		b := n
		if b > t.burstLeft {
			b = t.burstLeft
		}
		t.haz.IssueBurst += uint64(b)
		t.burstLeft -= b
	}
	if t.instr >= t.robGate {
		t.robCheck()
	}
}

// robCheck enforces the reorder-window bound: the thread may not issue
// past an incomplete miss that is ROBWindow instructions old.
func (t *Thread) robCheck() {
	for !t.mshr.empty() {
		f := t.mshr.front()
		if f.done <= t.now {
			t.mshr.pop()
			continue
		}
		if t.instr-f.instr >= uint64(t.eng.cfg.ROBWindow) {
			t.haz.ROBStall++
			if s := t.eng.sink; s != nil {
				s.Event(obs.EvROBStall, int32(t.id), t.now, uint64(f.done-t.now), 0)
			}
			t.stallTo(f.done)
			t.mshr.pop()
			continue
		}
		break
	}
	t.setROBGate()
}

// setROBGate recomputes robGate from the current MSHR front. Deferring
// drains of completed entries until the gate is crossed is safe: the
// front's completed-or-aged state is re-examined wherever it matters —
// here, and in outstanding before the occupancy check.
func (t *Thread) setROBGate() {
	if t.mshr.empty() {
		t.robGate = ^uint64(0)
	} else {
		t.robGate = t.mshr.front().instr + uint64(t.eng.cfg.ROBWindow)
	}
}

// outstanding records a non-L1 load completing after lat cycles,
// stalling on MSHR exhaustion.
func (t *Thread) outstanding(lat int64) {
	for !t.mshr.empty() && t.mshr.front().done <= t.now {
		t.mshr.pop()
	}
	if t.mshr.full() {
		t.haz.MSHRFull++
		t.stallTo(t.mshr.front().done)
		for !t.mshr.empty() && t.mshr.front().done <= t.now {
			t.mshr.pop()
		}
	}
	t.mshr.push(missEntry{instr: t.instr, done: t.now + lat})
	t.setROBGate()
}

// Compute charges n ALU instructions.
func (t *Thread) Compute(n int) {
	t.instr += uint64(n) // issue(n) by hand, as in Load64
	if c := t.opCarry + n; c < t.width && t.burstLeft == 0 && t.instr < t.robGate {
		t.opCarry = c
	} else {
		t.issueSlow(c, n)
	}
	t.checkYield()
}

// bookWritebacks charges any dirty write-backs a cache access just
// caused to the shared memory controller. Write-backs do not stall the
// thread directly, but when the controller's write queue is full —
// its drain point has run more than WriteQ service slots ahead of the
// thread — the miss that caused the eviction must wait for a free
// queue entry. This applies the NVMM write-bandwidth limit to every
// scheme, base included: a write-saturated kernel is equally throttled
// whether its lines leave by eviction or by flush, which is why eager
// flushing costs little on streaming write-bound code but shows up
// clearly on cache-blocked code (§VI).
// Call sites compare NVMMWriteTotal themselves and only pay this call
// when an access actually evicted something — the rare case.
func (t *Thread) bookWritebacks(before, after uint64) {
	e := t.eng
	for i := before; i < after; i++ {
		e.mcAccept(t.now)
	}
	if free := e.mcLast - int64(e.cfg.WriteQ)*e.writeService(); free > t.now {
		t.haz.WBThrottle++
		t.stallTo(free)
	}
}

// Load64 performs a 64-bit load through the cache hierarchy.
func (t *Thread) Load64(a memsim.Addr) uint64 {
	// issue(1) by hand: the compiler can't inline issue (the issueSlow
	// call puts it just over budget) and loads/stores are the two
	// hottest op kinds in every workload.
	t.instr++
	if c := t.opCarry + 1; c < t.width && t.burstLeft == 0 && t.instr < t.robGate {
		t.opCarry = c
	} else {
		t.issueSlow(c, 1)
	}
	t.ops.Loads++
	cfg := &t.eng.cfg
	wb := t.mem.NVMMWriteTotal()
	switch t.hier.Access(t.id, a, false, t.now) {
	case memsim.AccessL1:
		// L1 hit latency is hidden by the out-of-order window.
	case memsim.AccessL2:
		t.outstanding(cfg.L2HitLat)
	case memsim.AccessMem:
		t.outstanding(cfg.L2HitLat + cfg.MemReadLat)
	}
	if after := t.mem.NVMMWriteTotal(); after != wb {
		t.bookWritebacks(wb, after)
	}
	t.checkYield()
	return t.mem.Load64(a)
}

// Store64 performs a 64-bit store through the cache hierarchy
// (write-back, write-allocate). The store retires into the store buffer;
// only sfence waits for its completion.
func (t *Thread) Store64(a memsim.Addr, v uint64) {
	t.instr++ // issue(1) by hand, as in Load64
	if c := t.opCarry + 1; c < t.width && t.burstLeft == 0 && t.instr < t.robGate {
		t.opCarry = c
	} else {
		t.issueSlow(c, 1)
	}
	t.ops.Stores++
	cfg := &t.eng.cfg
	var fill int64 = 1
	wb := t.mem.NVMMWriteTotal()
	switch t.hier.Access(t.id, a, true, t.now) {
	case memsim.AccessL1:
	case memsim.AccessL2:
		fill = cfg.L2HitLat
	case memsim.AccessMem:
		fill = cfg.L2HitLat + cfg.MemReadLat
	}
	t.storeq.drainDone(t.now)
	if t.storeq.full() {
		t.haz.StoreQFull++
		t.stallTo(t.storeq.front())
		t.storeq.drainDone(t.now)
	}
	t.storeq.push(t.now + fill)
	if after := t.mem.NVMMWriteTotal(); after != wb {
		t.bookWritebacks(wb, after)
	}
	t.mem.Store64(a, v)
	t.checkYield()
}

// LoadF and StoreF are float64 conveniences over Load64/Store64.
func (t *Thread) LoadF(a memsim.Addr) float64 { return math.Float64frombits(t.Load64(a)) }

// StoreF stores a float64 at a.
func (t *Thread) StoreF(a memsim.Addr, v float64) { t.Store64(a, math.Float64bits(v)) }

// Flush issues clflushopt for the line containing a: the line is
// invalidated everywhere and its dirty content is sent to the memory
// controller.
//
// Costs, following the paper's observation that flush instructions "are
// long latency since they deal with the entire cache hierarchy":
//
//   - The flush serializes at the cache port for the L2 probe — it
//     consumes L2HitLat cycles of pipeline time. This is the dominant
//     eager-persistency execution-time cost for flush-heavy code.
//   - A dirty line becomes durable when it reaches the memory
//     controller (ADR): MCFlushLat cycles later, or when the shared
//     controller can accept it (one line per MemWriteLat/FlushBanks
//     cycles), whichever is later. sfence waits for this completion
//     through the store queue, and a full store queue stalls the flush
//     (FUW).
func (t *Thread) Flush(a memsim.Addr) {
	t.instr++ // issue(1) by hand, as in Load64
	if c := t.opCarry + 1; c < t.width && t.burstLeft == 0 && t.instr < t.robGate {
		t.opCarry = c
	} else {
		t.issueSlow(c, 1)
	}
	t.ops.Flushes++
	if s := t.eng.sink; s != nil {
		s.Event(obs.EvFlush, int32(t.id), t.now, uint64(a), 0)
	}
	cfg := &t.eng.cfg
	dirty := t.hier.Flush(t.id, a, t.now)
	t.now += cfg.L2HitLat // cache-port occupancy
	done := t.now + 1
	if dirty {
		done = t.now + cfg.MCFlushLat
		if m := t.eng.mcAccept(t.now); m > done {
			done = m
		}
	}
	t.storeq.drainDone(t.now)
	if t.storeq.full() {
		t.haz.WriteQFull++ // flush found the queue full: FUW
		t.stallTo(t.storeq.front())
		t.storeq.drainDone(t.now)
	}
	t.storeq.push(done)
	t.checkYield()
}

// Fence issues sfence: the thread waits until every outstanding store
// and flush it issued has completed (reached the ADR durability domain).
func (t *Thread) Fence() {
	t.instr++ // issue(1) by hand, as in Load64
	if c := t.opCarry + 1; c < t.width && t.burstLeft == 0 && t.instr < t.robGate {
		t.opCarry = c
	} else {
		t.issueSlow(c, 1)
	}
	t.ops.Fences++
	target := t.storeq.maxPending()
	if s := t.eng.sink; s != nil {
		stall := int64(0)
		if target > t.now {
			stall = target - t.now
		}
		s.Event(obs.EvFence, int32(t.id), t.now, uint64(stall), 0)
	}
	if target > t.now {
		t.haz.FenceStalls++
		t.haz.FenceCycles += target - t.now
		t.stallTo(target)
	}
	t.storeq.drainDone(t.now)
	t.checkYield()
}

// finish drains all outstanding activity at the end of the thread body so
// the final clock covers in-flight misses and writes.
func (t *Thread) finish() {
	end := t.now
	if !t.mshr.empty() {
		for i := 0; i < t.mshr.n; i++ {
			e := t.mshr.buf[(t.mshr.head+i)%len(t.mshr.buf)]
			if e.done > end {
				end = e.done
			}
		}
	}
	if s := t.storeq.maxPending(); s > end {
		end = s
	}
	t.now = end
}
