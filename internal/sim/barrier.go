package sim

// Barrier synchronizes all threads of a session at bulk-synchronous
// phase boundaries (Cholesky columns, Gaussian-elimination steps, FFT
// stages). Arriving threads park until the last thread arrives; every
// thread then resumes at the release cycle — the latest arrival time
// plus a small synchronization overhead — matching a sense-reversing
// software barrier's cost model.
//
// A Barrier is created per session with Engine.NewBarrier and reused for
// every phase of the run. Barriers interoperate with crash injection:
// threads parked at a barrier are aborted like any other parked thread.
type Barrier struct {
	eng     *Engine
	n       int
	arrived int
	latest  int64
	waiters []*Thread
}

// barrierOverhead is the per-episode synchronization cost in cycles.
const barrierOverhead = 50

// NewBarrier returns a barrier spanning all threads of the session. It
// must be created before Run and used only by that Run's threads.
func (e *Engine) NewBarrier() *Barrier {
	return &Barrier{eng: e, n: e.cfg.Threads}
}

// BarrierWait parks the calling thread until every thread of the session
// has arrived. With a single-thread session it only charges the
// synchronization overhead.
func (t *Thread) BarrierWait(b *Barrier) {
	if b.n == 1 {
		t.now += barrierOverhead
		t.checkYield()
		return
	}
	if t.now > b.latest {
		b.latest = t.now
	}
	b.arrived++
	if b.arrived < b.n {
		// Not last: leave the schedulable set and park until released.
		// block gives the grant to the next runnable thread; no
		// decision picks this thread again until the last arriver
		// pushes it back via unblock below.
		b.waiters = append(b.waiters, t)
		t.eng.block(t)
		return
	}
	// Last arriver: release everyone at the common release cycle.
	release := b.latest + barrierOverhead
	for _, w := range b.waiters {
		w.now = release
		t.eng.unblock(w)
	}
	b.waiters = b.waiters[:0]
	b.arrived = 0
	b.latest = 0
	t.now = release
	t.checkYield()
}
