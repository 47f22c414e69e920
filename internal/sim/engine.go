//go:build go1.23

// The constraint admits iter.Pull (go1.23) to this file under the
// module's go 1.22 line; see DESIGN.md §3a.

package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"

	"lazyp/internal/memsim"
	"lazyp/internal/obs"
)

// errStopped unwinds a suspended thread's body when Run stops its
// coroutine (crash, deadlock, or another body's panic); the coroutine
// wrapper recovers it.
var errStopped = errors.New("sim: thread stopped")

// maxClock is the sentinel "no second runnable thread" clock value.
const maxClock = int64(1) << 62

// soloQuanta is the grant-window multiplier when a single thread is
// runnable: with no other clock to stay close to, the thread may run
// this many quanta before re-running the scheduling decision.
const soloQuanta = 4

// Engine owns one simulation session: the memory hierarchy plus the set
// of simulated threads. A session may call Run several times (e.g.
// warm-up then measurement, or recovery then resumed execution) — cache
// state and clocks persist across calls; Memory.ResetCounters starts a
// new window of NVMM traffic counts.
//
// Scheduling is by coroutines (DESIGN.md §3a): every simulated thread
// of a Run is a coroutine of the goroutine that called Run. The running
// thread makes the scheduling decision itself and either extends its
// own window in place or suspends to Run's trampoline, which resumes
// the thread the decision picked.
type Engine struct {
	cfg  Config
	Mem  *memsim.Memory
	Hier *memsim.Hierarchy

	startCycle int64
	crashed    bool

	threads []*Thread

	// Scheduler state. Only the running thread — or Run's trampoline
	// while every thread is suspended — touches it, and all of them are
	// coroutines of one goroutine, so accesses are ordered without
	// locks. heap holds the ids of schedulable (suspended, not
	// barrier-blocked, not finished) threads ordered by (clock, id);
	// dead and alive track retirement.
	heap      []int
	dead      []bool
	alive     int
	nextClean int64
	cleanTick int64
	sched     SchedCounts

	// mcLast is the shared memory controller's drain pointer: the cycle
	// at which the most recently accepted NVMM line write finishes
	// draining. Every write — natural eviction, flush, or cleanup —
	// occupies the controller for writeService cycles; flush-heavy
	// threads observe the backlog through their store-queue entries.
	mcLast int64

	haz Hazards
	ops OpCounts

	// sink receives persistency events when attached; see sink.go.
	sink obs.Sink
}

// New builds a session over mem with the given configuration.
func New(cfg Config, mem *memsim.Memory) *Engine {
	cfg = cfg.WithDefaults()
	if cfg.Threads < 1 || cfg.Threads > 32 {
		panic(fmt.Sprintf("sim: thread count %d out of range [1,32]", cfg.Threads))
	}
	e := &Engine{
		cfg:  cfg,
		Mem:  mem,
		Hier: memsim.NewHierarchy(cfg.Hier, mem),
	}
	if sb := globalSink.Load(); sb != nil {
		e.SetSink(sb.s)
	}
	return e
}

// Config returns the session configuration.
func (e *Engine) Config() Config { return e.cfg }

// Crashed reports whether a crash was injected during a Run.
func (e *Engine) Crashed() bool { return e.crashed }

// ExecCycles returns the cycles consumed by Runs so far (max thread
// clock, i.e. parallel makespan).
func (e *Engine) ExecCycles() int64 { return e.startCycle }

// Hazards returns hazard counters summed over all threads and Runs.
func (e *Engine) Hazards() Hazards { return e.haz }

// Ops returns dynamic operation counts summed over all threads and Runs.
func (e *Engine) Ops() OpCounts { return e.ops }

// Sched returns scheduling-decision counts summed over all Runs.
func (e *Engine) Sched() SchedCounts { return e.sched }

// Run executes body on every thread (body receives the Thread) and
// blocks until all threads complete or a crash is injected. It returns
// true when the session crashed; the caller must then call Mem.Crash()
// and Hier.Reset() — or simply start a fresh engine after Mem.Crash() —
// before inspecting durable state. A panic in a body propagates out of
// Run.
func (e *Engine) Run(body func(t *Thread)) (crashed bool) {
	if e.crashed {
		panic("sim: Run after crash — start a new engine on the crashed memory")
	}
	n := e.cfg.Threads
	threads := make([]*Thread, n)
	resume := make([]func() (dispatchKind, bool), n)
	stop := make([]func(), n)
	e.threads = threads
	e.dead = make([]bool, n)
	e.alive = n
	e.heap = e.heap[:0]
	for i := 0; i < n; i++ {
		t := &Thread{id: i, eng: e, mem: e.Mem, hier: e.Hier, now: e.startCycle, width: e.cfg.IssueWidth, robGate: ^uint64(0)}
		if w := e.cfg.IssueWidth; w&(w-1) == 0 {
			t.widthShift = uint8(bits.TrailingZeros(uint(w)))
			t.widthMask = int32(w - 1)
		} else {
			t.widthMask = -1
		}
		t.mshr.init(e.cfg.MSHRs)
		t.storeq.init(e.cfg.StoreQ)
		threads[i] = t
		resume[i], stop[i] = iter.Pull(func(yield func(dispatchKind) bool) {
			t.yield = yield
			defer func() {
				if r := recover(); r != nil && r != errStopped {
					panic(r)
				}
			}()
			body(t)
			t.finish()
		})
		e.heapPush(i)
	}
	// Periodic cleanup runs as a spaced background sweep: every
	// period/8 cycles, lines dirty for longer than the period are
	// written back (non-bursty, per the paper's §III-E.1).
	e.nextClean, e.cleanTick = 0, 0
	if e.cfg.CleanPeriod > 0 {
		e.cleanTick = e.cfg.CleanPeriod / 8
		if e.cleanTick < 1 {
			e.cleanTick = 1
		}
		e.nextClean = e.startCycle + e.cleanTick
	}

	// No coroutine outlives Run, however it ends. Completion leaves none
	// alive; after a crash, a deadlock, or a body's panic on its way out
	// through resume, every thread still live is stopped here — its body
	// unwinds on errStopped (one that never started simply never runs) —
	// and its counters are folded into the session totals.
	defer func() {
		for i, t := range threads {
			if !e.dead[i] {
				stop[i]()
				e.retire(t)
			}
		}
	}()

	// The trampoline: resume the thread the last decision picked (the
	// heap root) and get control back with the decision that thread
	// made when it gave the grant up.
	kind := e.dispatch(-1)
	for kind == dispatchHandoff {
		id := e.heap[0]
		var suspended bool
		if kind, suspended = resume[id](); !suspended {
			// The body returned with the grant in hand: the thread
			// leaves the heap in place and the trampoline decides.
			e.heapPop()
			e.retire(threads[id])
			if e.alive == 0 {
				break
			}
			kind = e.dispatch(-1)
		}
	}
	if kind == dispatchDeadlock {
		panic("sim: scheduler deadlock — every live thread is blocked at a barrier")
	}

	// Advance the session clock to the makespan.
	for _, t := range threads {
		if t.now > e.startCycle {
			e.startCycle = t.now
		}
	}
	return e.crashed
}

// writeService is the shared MC drain time per NVMM line write.
func (e *Engine) writeService() int64 {
	svc := e.cfg.MemWriteLat / int64(e.cfg.FlushBanks)
	if svc < 1 {
		svc = 1
	}
	return svc
}

// mcAccept queues one line write at the shared controller at cycle now
// and returns its drain-completion cycle.
func (e *Engine) mcAccept(now int64) int64 {
	start := e.mcLast
	if now > start {
		start = now
	}
	e.mcLast = start + e.writeService()
	return e.mcLast
}

// retire folds t's counters into the session totals and removes it from
// the live set.
func (e *Engine) retire(t *Thread) {
	e.haz.add(t.haz)
	e.ops.add(t.Ops())
	e.dead[t.id] = true
	e.alive--
}
