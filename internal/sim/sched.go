package sim

// Coroutine scheduling (DESIGN.md §3a).
//
// Exactly one simulated thread executes at a time, and every thread of
// a Run is a coroutine of the goroutine that called Run: the thread
// that exhausts its window (or blocks at a barrier) runs the scheduling
// decision below itself. When the decision picks the caller again — it
// is still the minimum-clock schedulable thread — its window is
// extended in place and nothing switches at all. Otherwise it suspends
// to Run's trampoline, which resumes the chosen thread: two coroutine
// switches that never enter the Go scheduler, so no other P is woken
// whatever GOMAXPROCS is.
//
// The decision procedure is byte-for-byte the old central loop's: pick
// the (clock, id)-minimum schedulable thread, fire periodic cleanups
// the minimum clock has crossed, inject a due crash, and bound the
// window by the second-smallest clock plus one quantum (soloQuanta
// quanta when alone), clamped to the next cleanup or crash boundary.
// Scheduling therefore depends only on thread clocks, and simulations
// stay bit-reproducible.

// dispatchKind is the outcome of one scheduling decision.
type dispatchKind int

const (
	// dispatchHandoff: another thread is the minimum; its window is set
	// and the trampoline resumes it next.
	dispatchHandoff dispatchKind = iota
	// dispatchExtend: the caller stays the minimum and runs on to its
	// new window bound. Never returned to the trampoline or from the
	// blocking path.
	dispatchExtend
	// dispatchCrashed: the crash cycle was reached and Engine.crashed is
	// set; the trampoline stops every live thread.
	dispatchCrashed
	// dispatchDeadlock: no schedulable thread remains but live threads
	// exist — all of them are parked at a barrier.
	dispatchDeadlock
)

// SchedCounts counts an engine's scheduling decisions by outcome:
// Handoffs moved the grant to another thread (a coroutine switch pair),
// Extensions let the running thread continue in place (no switch).
type SchedCounts struct{ Handoffs, Extensions int64 }

// dispatch runs one scheduling decision and stores the window bound in
// the chosen thread's grantUntil. The caller has already restored the
// heap for its own state change (heapFix after running, heapPop after
// blocking or exiting). self is the calling thread's id — it selects
// the in-place extension path when the caller remains the minimum — or
// -1 when the trampoline dispatches.
func (e *Engine) dispatch(self int) dispatchKind {
	if len(e.heap) == 0 {
		return dispatchDeadlock
	}
	next := e.heap[0]
	t := e.threads[next]

	// Periodic cleanup fires when the globally-minimal clock crosses
	// the boundary (all threads have passed it).
	for e.nextClean > 0 && t.now >= e.nextClean {
		e.Hier.CleanOlder(e.nextClean, e.cfg.CleanPeriod)
		e.nextClean += e.cleanTick
	}

	// Crash: once the slowest thread passes the crash cycle, nobody runs
	// another operation.
	if e.cfg.CrashCycle > 0 && t.now >= e.cfg.CrashCycle {
		e.crashed = true
		return dispatchCrashed
	}

	second := e.heapSecond()
	until := second + e.cfg.Quantum
	if second == maxClock { // only one runnable thread left
		until = t.now + soloQuanta*e.cfg.Quantum
	}
	if until <= t.now {
		until = t.now + 1
	}
	if e.nextClean > 0 && until > e.nextClean {
		until = e.nextClean
		if until <= t.now {
			until = t.now + 1
		}
	}
	if e.cfg.CrashCycle > 0 && until > e.cfg.CrashCycle {
		until = e.cfg.CrashCycle
		if until <= t.now {
			until = t.now + 1
		}
	}
	t.grantUntil = until

	if next == self {
		// Extension in place: the common case whenever the window was
		// clamped by a cleanup boundary, and the steady state when the
		// caller is the only schedulable thread.
		e.sched.Extensions++
		return dispatchExtend
	}
	// The root runs in place — its clock only grows while it runs, so
	// one sift-down when it gives the grant up restores the heap.
	e.sched.Handoffs++
	return dispatchHandoff
}

// reschedule is called by the running thread when its window is
// exhausted: re-run the scheduling decision and either continue in
// place or give the grant up.
func (e *Engine) reschedule(t *Thread) {
	e.heapFix()
	if kind := e.dispatch(t.id); kind != dispatchExtend {
		t.suspend(kind)
	}
}

// block parks the running thread at a barrier: it leaves the
// schedulable set and gives the grant up until a release pushes it back
// (unblock) and a later decision picks it.
func (e *Engine) block(t *Thread) {
	e.heapPop() // t sits at the root: it was granted in place
	t.suspend(e.dispatch(t.id))
}

// suspend hands the decision just made to Run's trampoline and returns
// when a later decision picks t again. yield reports false when Run is
// stopping the thread instead (crash, deadlock, or another body's
// panic): errStopped then unwinds the body up to the coroutine wrapper.
func (t *Thread) suspend(kind dispatchKind) {
	if !t.yield(kind) {
		panic(errStopped)
	}
}

// heapLess orders schedulable threads by (clock, id); the id tiebreak
// reproduces the lowest-index-wins behavior of the original linear scan.
func (e *Engine) heapLess(a, b int) bool {
	ta, tb := e.threads[a], e.threads[b]
	return ta.now < tb.now || (ta.now == tb.now && a < b)
}

// heapPush inserts thread id into the schedulable heap.
func (e *Engine) heapPush(id int) {
	e.heap = append(e.heap, id)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// heapPop removes the root (minimum-clock thread).
func (e *Engine) heapPop() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	e.siftDown(0)
}

// heapFix restores heap order after the root's clock advanced in place
// while it ran. Barrier releases during the grant only push threads with
// clocks at or above the running thread's, so the root cannot have been
// displaced positionally and a single sift-down suffices.
func (e *Engine) heapFix() { e.siftDown(0) }

// siftDown restores heap order below i after e.heap[i]'s key grew.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && e.heapLess(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && e.heapLess(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// heapSecond returns the second-smallest schedulable clock (which must
// sit at one of the root's children), or maxClock when the root is the
// only schedulable thread.
func (e *Engine) heapSecond() int64 {
	s := maxClock
	for c := 1; c <= 2 && c < len(e.heap); c++ {
		if now := e.threads[e.heap[c]].now; now < s {
			s = now
		}
	}
	return s
}

// unblock returns a barrier-released thread to the schedulable heap.
// Called by the running (releasing) thread.
func (e *Engine) unblock(w *Thread) {
	e.heapPush(w.id)
}

// checkYield re-runs the scheduling decision once the thread exhausted
// its window. Every public Thread operation calls it.
func (t *Thread) checkYield() {
	if t.now < t.grantUntil {
		return
	}
	t.eng.reschedule(t)
}
