package sim

import (
	"runtime"
	"testing"

	"lazyp/internal/memsim"
)

func testEngine(threads int) (*Engine, memsim.Addr) {
	mem := memsim.NewMemory(1 << 22)
	base := mem.Alloc("data", 1<<20)
	cfg := DefaultConfig(threads)
	cfg.Hier = memsim.Config{Cores: threads, L1Size: 4 << 10, L1Ways: 4, L2Size: 32 << 10, L2Ways: 8}
	return New(cfg, mem), base
}

func TestSingleThreadClockAdvances(t *testing.T) {
	e, base := testEngine(1)
	e.Run(func(th *Thread) {
		start := th.Now()
		th.Compute(100)
		if th.Now() <= start {
			t.Error("Compute did not advance the clock")
		}
		th.Load64(base)
	})
	// The final clock covers the in-flight NVMM miss (thread drain).
	if e.ExecCycles() < DefaultConfig(1).MemReadLat {
		t.Fatalf("final clock %d does not cover the outstanding miss", e.ExecCycles())
	}
	if e.Ops().Instrs != 101 {
		t.Fatalf("instrs = %d, want 101", e.Ops().Instrs)
	}
}

func TestIssueWidth(t *testing.T) {
	e, _ := testEngine(1)
	e.Run(func(th *Thread) {
		th.Compute(400)
	})
	// 400 instructions at width 4 = 100 cycles.
	if got := e.ExecCycles(); got != 100 {
		t.Fatalf("400 ops took %d cycles, want 100", got)
	}
}

func TestStoreVisibleImmediately(t *testing.T) {
	e, base := testEngine(1)
	e.Run(func(th *Thread) {
		th.Store64(base, 777)
		if th.Load64(base) != 777 {
			t.Error("store not visible to subsequent load")
		}
		th.StoreF(base+8, 2.5)
		if th.LoadF(base+8) != 2.5 {
			t.Error("float store not visible")
		}
	})
}

func TestFenceWaitsForFlush(t *testing.T) {
	e, base := testEngine(1)
	var beforeFence, afterFence int64
	e.Run(func(th *Thread) {
		th.Store64(base, 1)
		th.Flush(base)
		beforeFence = th.Now()
		th.Fence()
		afterFence = th.Now()
	})
	if afterFence <= beforeFence {
		t.Fatalf("fence after dirty flush should stall: before=%d after=%d", beforeFence, afterFence)
	}
	if e.Mem.DurableLoad64(base) != 1 {
		t.Fatal("flush did not persist")
	}
	if e.Hazards().FenceStalls != 1 {
		t.Fatalf("fence stalls = %d, want 1", e.Hazards().FenceStalls)
	}
}

func TestFlushCleanLineCheap(t *testing.T) {
	e, base := testEngine(1)
	e.Run(func(th *Thread) {
		th.Load64(base) // clean line
		th.Flush(base)
		before := th.Now()
		th.Fence()
		if th.Now()-before > 2 {
			t.Errorf("fence after clean flush stalled %d cycles", th.Now()-before)
		}
	})
	if w, _, _, _ := e.Mem.NVMMWrites(); w != 0 {
		t.Fatal("clean flush wrote NVMM")
	}
}

func TestMemLatencyExposedThroughROB(t *testing.T) {
	mkRun := func(readLat int64) int64 {
		mem := memsim.NewMemory(1 << 22)
		base := mem.Alloc("d", 1<<20)
		cfg := DefaultConfig(1)
		cfg.MemReadLat = readLat
		// Strided loads: each a fresh miss, no prefetchable stream.
		cfg.Hier = memsim.Config{Cores: 1, L1Size: 4 << 10, L1Ways: 4, L2Size: 32 << 10, L2Ways: 8}
		e := New(cfg, mem)
		e.Run(func(th *Thread) {
			for i := 0; i < 64; i++ {
				th.Load64(base + memsim.Addr(i*4096))
				th.Compute(300) // long dependent work ages the miss out
			}
		})
		return e.ExecCycles()
	}
	slow, fast := mkRun(600), mkRun(60)
	if slow <= fast {
		t.Fatalf("NVMM latency not reflected: slow=%d fast=%d", slow, fast)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	e, base := testEngine(1)
	e.Run(func(th *Thread) {
		// Burst of strided misses with no compute between them.
		for i := 0; i < 64; i++ {
			th.Load64(base + memsim.Addr(i*4096))
		}
	})
	if e.Hazards().MSHRFull == 0 {
		t.Fatal("a miss burst should exhaust the MSHRs")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, uint64) {
		mem := memsim.NewMemory(1 << 22)
		base := mem.Alloc("d", 1<<20)
		cfg := DefaultConfig(4)
		e := New(cfg, mem)
		e.Run(func(th *Thread) {
			off := memsim.Addr(th.ThreadID() * 128 * 1024)
			for i := 0; i < 5000; i++ {
				a := base + off + memsim.Addr((i*104729)%(96*1024))
				if i%3 == 0 {
					th.Store64(a, uint64(i))
				} else {
					th.Load64(a)
				}
				th.Compute(2)
			}
		})
		w, _, _, _ := e.Mem.NVMMWrites()
		return e.ExecCycles(), w
	}
	c1, w1 := run()
	c2, w2 := run()
	if c1 != c2 || w1 != w2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", c1, w1, c2, w2)
	}
}

func TestParallelSpeedup(t *testing.T) {
	run := func(threads int) int64 {
		mem := memsim.NewMemory(1 << 22)
		base := mem.Alloc("d", 1<<20)
		e := New(DefaultConfig(threads), mem)
		e.Run(func(th *Thread) {
			// Purely local compute + private data.
			off := memsim.Addr(th.ThreadID() * 4096)
			for i := 0; i < 20000/threads; i++ {
				th.Compute(40)
				th.Load64(base + off)
			}
		})
		return e.ExecCycles()
	}
	t1, t4 := run(1), run(4)
	if float64(t1)/float64(t4) < 3.0 {
		t.Fatalf("embarrassingly parallel work sped up only %0.2fx on 4 threads", float64(t1)/float64(t4))
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	e := New(DefaultConfig(4), mem)
	b := e.NewBarrier()
	releases := make([]int64, 4)
	e.Run(func(th *Thread) {
		// Imbalanced work before the barrier.
		th.Compute(1000 * (th.ThreadID() + 1))
		th.BarrierWait(b)
		releases[th.ThreadID()] = th.Now()
	})
	for i := 1; i < 4; i++ {
		if releases[i] != releases[0] {
			t.Fatalf("threads released at different cycles: %v", releases)
		}
	}
	// The slowest thread computed 4000 ops = 1000 cycles.
	if releases[0] < 1000 {
		t.Fatalf("barrier released before the slowest arrival: %d", releases[0])
	}
}

func TestBarrierReuse(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	e := New(DefaultConfig(3), mem)
	b := e.NewBarrier()
	e.Run(func(th *Thread) {
		for phase := 0; phase < 5; phase++ {
			th.Compute(100 * (th.ThreadID() + 1))
			th.BarrierWait(b)
		}
	})
	// Completing without deadlock is the assertion.
}

func TestCrashInjection(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	base := mem.Alloc("d", 1<<20)
	cfg := DefaultConfig(2)
	cfg.CrashCycle = 1000
	e := New(cfg, mem)
	crashed := e.Run(func(th *Thread) {
		for i := 0; ; i++ {
			th.Store64(base+memsim.Addr(th.ThreadID()*65536+i%1024*64), uint64(i))
			th.Compute(10)
		}
	})
	if !crashed || !e.Crashed() {
		t.Fatal("crash was not injected")
	}
	if e.ExecCycles() < 1000 {
		t.Fatalf("crash before the configured cycle: %d", e.ExecCycles())
	}
}

func TestCrashAtBarrier(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	cfg := DefaultConfig(2)
	cfg.CrashCycle = 500
	e := New(cfg, mem)
	b := e.NewBarrier()
	crashed := e.Run(func(th *Thread) {
		if th.ThreadID() == 0 {
			th.BarrierWait(b) // waits forever: thread 1 spins past the crash
			return
		}
		for {
			th.Compute(100)
		}
	})
	if !crashed {
		t.Fatal("expected crash to release the barrier-blocked thread")
	}
}

func TestPanicPropagates(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	e := New(DefaultConfig(2), mem)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	e.Run(func(th *Thread) {
		if th.ThreadID() == 1 {
			th.Compute(100)
			panic("boom")
		}
		for i := 0; i < 10; i++ {
			th.Compute(1000)
		}
	})
}

func TestPeriodicCleanBoundsDirtyAge(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	base := mem.Alloc("d", 1<<20)
	cfg := DefaultConfig(1)
	cfg.CleanPeriod = 2000
	e := New(cfg, mem)
	e.Run(func(th *Thread) {
		th.Store64(base, 42)
		for i := 0; i < 3000; i++ {
			th.Compute(10) // ~7500 cycles: several clean ticks pass
		}
	})
	if mem.DurableLoad64(base) != 42 {
		t.Fatal("periodic cleanup did not persist an old dirty line")
	}
	_, _, _, clean := mem.NVMMWrites()
	if clean == 0 {
		t.Fatal("no cleanup writes recorded")
	}
}

func TestEngineRunAfterCrashPanics(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	cfg := DefaultConfig(1)
	cfg.CrashCycle = 10
	e := New(cfg, mem)
	e.Run(func(th *Thread) {
		for {
			th.Compute(100)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Run after crash should panic")
		}
	}()
	e.Run(func(*Thread) {})
}

// TestCrashDuringGrantExtension injects the crash while the only
// runnable thread is extending its own grant in place — the running
// thread, not Run's trampoline, makes the decision that detects the
// crash, and its counters must still be collected.
func TestCrashDuringGrantExtension(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	cfg := DefaultConfig(1)
	cfg.CrashCycle = 10_000
	e := New(cfg, mem)
	crashed := e.Run(func(th *Thread) {
		for {
			th.Compute(100)
		}
	})
	if !crashed || !e.Crashed() {
		t.Fatal("crash was not injected on the extension path")
	}
	if e.ExecCycles() < 10_000 {
		t.Fatalf("crash before the configured cycle: %d", e.ExecCycles())
	}
	if e.Ops().Instrs == 0 {
		t.Fatal("crashed thread's counters were not collected")
	}
}

// TestCrashAtBarrierManyWaiters parks all threads but one at a barrier
// and lets the straggler spin past the crash cycle: the spinning thread
// holds the grant (solo extension) when it detects the crash, and every
// barrier-parked thread must be unwound with it.
func TestCrashAtBarrierManyWaiters(t *testing.T) {
	for _, threads := range []int{4, 8} {
		cfg := DefaultConfig(threads)
		cfg.CrashCycle = 500
		e := New(cfg, memsim.NewMemory(1<<22))
		b := e.NewBarrier()
		crashed := e.Run(func(th *Thread) {
			if th.ThreadID() != threads-1 {
				th.BarrierWait(b) // parks forever: the straggler crashes first
				return
			}
			for {
				th.Compute(100)
			}
		})
		if !crashed {
			t.Fatalf("threads=%d: worker-held crash did not abort barrier waiters", threads)
		}
	}
}

// TestCrashBeforeFirstGrant drives a session whose first Run finishes
// with drained clocks already past the crash cycle (the final dispatch
// retires the last thread without a crash check, like the old engine's
// loop). The second Run must then crash at the trampoline's initial
// dispatch, before any thread body executes an operation.
func TestCrashBeforeFirstGrant(t *testing.T) {
	mem := memsim.NewMemory(1 << 22)
	base := mem.Alloc("d", 1<<20)
	cfg := DefaultConfig(2)
	cfg.CrashCycle = 200 // below one NVMM fill drain (311 cycles)
	e := New(cfg, mem)
	if e.Run(func(th *Thread) {
		// One miss whose in-flight drain pushes the final clock past
		// the crash cycle without any dispatch observing it.
		th.Load64(base + memsim.Addr(th.ThreadID()*4096))
	}) {
		t.Fatal("first run should complete: no dispatch sees the crash cycle")
	}
	if e.ExecCycles() <= cfg.CrashCycle {
		t.Fatalf("test premise broken: drained clock %d not past crash cycle", e.ExecCycles())
	}
	ran := false
	if !e.Run(func(th *Thread) { ran = true }) {
		t.Fatal("second run must crash at the initial dispatch")
	}
	if ran {
		t.Fatal("a thread body executed after the crash cycle had passed")
	}
}

// TestCrashSweepDirectHandoff sweeps the crash cycle across a
// barrier-synchronized multi-thread run with periodic cleanup enabled,
// so aborts land at every dispatch site — yield, barrier block, thread
// exit, and cleanup-clamped grant extension — and asserts every crash
// point is deterministic.
func TestCrashSweepDirectHandoff(t *testing.T) {
	run := func(threads int, crashCycle int64) (bool, int64, uint64, uint64) {
		mem := memsim.NewMemory(1 << 22)
		base := mem.Alloc("d", 1<<20)
		cfg := DefaultConfig(threads)
		cfg.CrashCycle = crashCycle
		cfg.CleanPeriod = 3000
		e := New(cfg, mem)
		b := e.NewBarrier()
		crashed := e.Run(func(th *Thread) {
			off := memsim.Addr(th.ThreadID() * 65536)
			for i := 0; i < 400; i++ {
				a := base + off + memsim.Addr(i%512*64)
				th.Store64(a, uint64(i))
				th.Load64(a)
				th.Compute(5)
				if i%100 == 99 {
					th.BarrierWait(b)
				}
			}
		})
		w, _, _, _ := mem.NVMMWrites()
		return crashed, e.ExecCycles(), w, e.Ops().Instrs
	}
	for _, threads := range []int{2, 4, 8} {
		_, full, _, _ := run(threads, 0)
		if crashed, _, _, _ := run(threads, 2*full); crashed {
			t.Fatalf("threads=%d: crash cycle past the makespan still crashed", threads)
		}
		for i := 0; i < 12; i++ {
			cc := 1 + int64(i)*full*9/10/12
			c1, cyc1, w1, i1 := run(threads, cc)
			c2, cyc2, w2, i2 := run(threads, cc)
			if c1 != c2 || cyc1 != cyc2 || w1 != w2 || i1 != i2 {
				t.Fatalf("threads=%d crash@%d not deterministic: (%v,%d,%d,%d) vs (%v,%d,%d,%d)",
					threads, cc, c1, cyc1, w1, i1, c2, cyc2, w2, i2)
			}
			if !c1 {
				t.Fatalf("threads=%d: no crash at cycle %d (full run = %d)", threads, cc, full)
			}
			if cyc1 < cc {
				t.Fatalf("threads=%d: crashed at %d, before the configured cycle %d", threads, cyc1, cc)
			}
		}
	}
}

func TestStoreQueueBackpressure(t *testing.T) {
	mem := memsim.NewMemory(1 << 23)
	base := mem.Alloc("d", 1<<22)
	cfg := DefaultConfig(1)
	cfg.Hier = memsim.Config{Cores: 1, L1Size: 4 << 10, L1Ways: 4, L2Size: 32 << 10, L2Ways: 8}
	e := New(cfg, mem)
	e.Run(func(th *Thread) {
		// Flood with dirty flushes: their drain-limited completions
		// clog the store queue.
		for i := 0; i < 4096; i++ {
			a := base + memsim.Addr(i*64)
			th.Store64(a, 1)
			th.Flush(a)
		}
	})
	h := e.Hazards()
	if h.WriteQFull+h.StoreQFull == 0 {
		t.Fatal("flush flood did not backpressure the store queue")
	}
}

// TestRunLeavesNoGoroutines checks that every way a Run can end —
// completion, a crash caught mid-window or with threads parked at a
// barrier, a body panic, a barrier deadlock — leaves no thread of the
// Run behind once Run has returned or its panic has been recovered.
func TestRunLeavesNoGoroutines(t *testing.T) {
	spin := func(th *Thread) {
		for {
			th.Compute(100)
		}
	}
	rows := []struct {
		name       string
		crashCycle int64
		wantPanic  bool
		body       func(th *Thread, b *Barrier)
	}{
		{"completion", 0, false, func(th *Thread, b *Barrier) {
			th.Compute(1000 * (th.ThreadID() + 1))
			th.BarrierWait(b)
			th.Compute(1000)
		}},
		{"crash mid-window", 5000, false, func(th *Thread, b *Barrier) { spin(th) }},
		{"crash at barrier", 5000, false, func(th *Thread, b *Barrier) {
			if th.ThreadID() != 0 {
				th.BarrierWait(b)
			}
			spin(th)
		}},
		{"body panic", 0, true, func(th *Thread, b *Barrier) {
			if th.ThreadID() == 1 {
				th.Compute(3000)
				panic("boom")
			}
			if th.ThreadID() == 2 {
				th.BarrierWait(b)
			}
			spin(th)
		}},
		{"barrier deadlock", 0, true, func(th *Thread, b *Barrier) {
			if th.ThreadID() != 0 {
				th.BarrierWait(b)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CrashCycle = row.crashCycle
			e := New(cfg, memsim.NewMemory(1<<22))
			b := e.NewBarrier()
			before := runtime.NumGoroutine()
			func() {
				defer func() {
					if r := recover(); (r != nil) != row.wantPanic {
						t.Errorf("recovered %v, want panic = %v", r, row.wantPanic)
					}
				}()
				if crashed := e.Run(func(th *Thread) { row.body(th, b) }); crashed != (row.crashCycle > 0) {
					t.Errorf("crashed = %v with crash cycle %d", crashed, row.crashCycle)
				}
			}()
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before Run, %d after it ended", before, after)
			}
		})
	}
}

// TestDeterminismAcrossGOMAXPROCS runs one barrier-heavy 8-thread
// session of flush+fence episodes — to completion, and cut by a crash —
// on one P and on four: simulated results may not depend on the host's
// CPU count.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	type outcome struct {
		crashed       bool
		cycles        int64
		writes, reads uint64
		haz           Hazards
		ops           OpCounts
	}
	run := func(procs int, crashCycle int64) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mem := memsim.NewMemory(1 << 22)
		base := mem.Alloc("d", 1<<20)
		cfg := DefaultConfig(8)
		cfg.CrashCycle = crashCycle
		cfg.CleanPeriod = 3000
		e := New(cfg, mem)
		b := e.NewBarrier()
		crashed := e.Run(func(th *Thread) {
			off := memsim.Addr(th.ThreadID() * 65536)
			for i := 0; i < 600; i++ {
				a := base + off + memsim.Addr(i*712%65536&^7)
				th.Load64(a)
				th.Store64(a, uint64(i))
				th.Compute(3 + th.ThreadID())
				if i%8 == 7 {
					th.Flush(a)
					th.Fence()
				}
				if i%50 == 49 {
					th.BarrierWait(b)
				}
			}
		})
		w, _, _, _ := mem.NVMMWrites()
		return outcome{crashed, e.ExecCycles(), w, mem.NVMMReads(), e.Hazards(), e.Ops()}
	}
	full := run(1, 0)
	if full.crashed || full.ops.Flushes == 0 || full.haz.FenceStalls == 0 {
		t.Fatalf("test premise broken: %+v", full)
	}
	for _, crashCycle := range []int64{0, full.cycles / 2} {
		one, four := run(1, crashCycle), run(4, crashCycle)
		if one != four {
			t.Errorf("crash cycle %d: GOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", crashCycle, one, four)
		}
		if one.crashed != (crashCycle > 0) {
			t.Errorf("crash cycle %d: crashed = %v", crashCycle, one.crashed)
		}
	}
}
