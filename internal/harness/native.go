package harness

import (
	"fmt"
	"sync"
	"time"

	"lazyp/internal/pmem"
	"lazyp/internal/workloads"
)

// nativeBarrier is a reusable sense-counting barrier for native parallel
// runs (the real-machine experiment of Table VII).
type nativeBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
}

func newNativeBarrier(n int) *nativeBarrier {
	b := &nativeBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *nativeBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	g := b.gen
	for b.gen == g {
		b.cond.Wait()
	}
}

// NativeRun executes the workload natively — real goroutines, direct
// memory access, no simulation — and returns the wall-clock time. This
// is the paper's real-machine methodology (§V-B): with no NVMM
// available, only the execution-time overhead of the persistence code is
// measured.
func NativeRun(spec Spec) (time.Duration, error) {
	spec.defaults()
	ses := NewSession(spec) // reuse allocation/strategy wiring; engine unused
	bar := newNativeBarrier(spec.Threads)
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < spec.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			env := workloads.Env{
				C:       &pmem.Native{Mem: ses.Mem, ID: tid},
				Tid:     tid,
				Threads: spec.Threads,
				Barrier: bar.wait,
			}
			ses.Work.Run(env, ses.Strat.Thread(tid))
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ses.Work.Verify(ses.Mem); err != nil {
		return elapsed, fmt.Errorf("harness: native run produced wrong output: %w", err)
	}
	return elapsed, nil
}
