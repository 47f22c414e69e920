// Benchmarks regenerating the paper's tables and figures (one bench
// family per artifact — see DESIGN.md §6 for the index) plus ablations
// of the design choices §III discusses. Simulation benches use the same
// calibrated configurations as cmd/lpbench, which also prints the
// paper's numbers side by side.
package lazyp_test

import (
	"testing"
	"time"

	"lazyp/internal/checksum"
	"lazyp/internal/harness"
	"lazyp/internal/memsim"
	"lazyp/internal/sim"
	"lazyp/internal/workloads"
	"lazyp/internal/workloads/native"
)

// benchTMM is the calibrated TMM configuration shared by the figure
// benches — the same one cmd/lpbench uses (DESIGN.md §4).
func benchTMM(v harness.Variant) harness.Spec {
	return harness.Spec{
		Workload: "tmm", Variant: v,
		N: 256, Tile: 16, Threads: 8, WindowOuter: 2,
	}
}

// runSim executes one simulation per b.N iteration and reports the
// paper's metrics (cycles and NVMM writes per run).
func runSim(b *testing.B, spec harness.Spec) {
	b.Helper()
	var cycles int64
	var writes uint64
	for i := 0; i < b.N; i++ {
		ses := harness.NewSession(spec)
		res := ses.Execute()
		if res.Crashed {
			b.Fatal("unexpected crash")
		}
		cycles, writes = res.Cycles, res.Writes
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
	b.ReportMetric(float64(writes), "nvmmwrites/run")
}

// --- Figure 10: execution time and writes, TMM base/LP/EP/WAL ---------

func BenchmarkFig10(b *testing.B) {
	for _, v := range []harness.Variant{
		harness.VariantBase, harness.VariantLP, harness.VariantEP, harness.VariantWAL,
	} {
		b.Run(string(v), func(b *testing.B) { runSim(b, benchTMM(v)) })
	}
}

// --- Table VI: structural hazards ------------------------------------

func BenchmarkTable6(b *testing.B) {
	for _, v := range []harness.Variant{harness.VariantBase, harness.VariantEP, harness.VariantLP} {
		b.Run(string(v), func(b *testing.B) {
			var h sim.Hazards
			for i := 0; i < b.N; i++ {
				res := harness.NewSession(benchTMM(v)).Execute()
				h = res.Haz
			}
			b.ReportMetric(float64(h.MSHRFull), "mshrfull/run")
			b.ReportMetric(float64(h.WriteQFull+h.StoreQFull), "fuw/run")
			b.ReportMetric(float64(h.StallCycles), "stallcycles/run")
		})
	}
}

// --- Figure 11: periodic flushing write overhead ----------------------

func BenchmarkFig11(b *testing.B) {
	base := harness.NewSession(benchTMM(harness.VariantBase)).Execute()
	for _, frac := range []float64{0.001, 0.01, 0.1, 0.33} {
		frac := frac
		b.Run(formatPct(frac), func(b *testing.B) {
			spec := benchTMM(harness.VariantLP)
			spec.Sim.CleanPeriod = int64(frac * float64(base.Cycles))
			if spec.Sim.CleanPeriod < 1 {
				spec.Sim.CleanPeriod = 1
			}
			var writes uint64
			for i := 0; i < b.N; i++ {
				writes = harness.NewSession(spec).Execute().Writes
			}
			b.ReportMetric(100*(float64(writes)/float64(base.Writes)-1), "extrawrites%")
		})
	}
}

func formatPct(f float64) string {
	switch {
	case f < 0.005:
		return "period=0.1%"
	case f < 0.05:
		return "period=1%"
	case f < 0.2:
		return "period=10%"
	default:
		return "period=33%"
	}
}

// --- Figures 12 & 13: all benchmarks, LP vs EagerRecompute ------------

func benchWorkload(name string, v harness.Variant) harness.Spec {
	s := harness.Spec{Workload: name, Variant: v, Threads: 8}
	switch name {
	case "tmm":
		s.N, s.Tile, s.WindowOuter = 256, 16, 2
	case "cholesky":
		s.N = 256
	case "conv2d":
		s.N, s.Tile, s.WindowOuter = 256, 8, 3
	case "gauss":
		s.N, s.WindowOuter = 256, 4
	case "fft":
		s.N, s.WindowOuter = 16384, 2
	}
	return s
}

func BenchmarkFig12and13(b *testing.B) {
	for _, wl := range []string{"tmm", "cholesky", "conv2d", "gauss", "fft"} {
		for _, v := range []harness.Variant{harness.VariantBase, harness.VariantLP, harness.VariantEP} {
			b.Run(wl+"/"+string(v), func(b *testing.B) {
				runSim(b, benchWorkload(wl, v))
			})
		}
	}
}

// --- Table VII: native (real-machine) overhead ------------------------

// BenchmarkTable7Native measures the five kernels natively — true
// wall-clock testing.B benchmarks of the base and Lazy Persistency
// variants; the LP/base time ratio is the paper's Table VII.
func BenchmarkTable7Native(b *testing.B) {
	sizes := map[string]int{"tmm": 128, "cholesky": 256, "conv2d": 256, "gauss": 384, "fft": 1 << 14}
	for _, wl := range []string{"tmm", "cholesky", "conv2d", "gauss", "fft"} {
		w, err := native.New(wl, sizes[wl])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl+"/base", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Base()
			}
		})
		b.Run(wl+"/lp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.LP()
			}
		})
	}
}

// --- Figure 14(a): NVMM latency sensitivity ---------------------------

func BenchmarkFig14a(b *testing.B) {
	for _, p := range [][2]int64{{60, 150}, {150, 300}} {
		for _, v := range []harness.Variant{harness.VariantBase, harness.VariantLP, harness.VariantEP} {
			b.Run(formatLat(p)+"/"+string(v), func(b *testing.B) {
				spec := benchTMM(v)
				spec.Sim.MemReadLat = p[0] * sim.CyclesPerNs
				spec.Sim.MemWriteLat = p[1] * sim.CyclesPerNs
				runSim(b, spec)
			})
		}
	}
}

func formatLat(p [2]int64) string {
	if p[0] == 60 {
		return "lat=60-150ns"
	}
	return "lat=150-300ns"
}

// --- Figure 14(b): thread scaling -------------------------------------

func BenchmarkFig14b(b *testing.B) {
	for _, th := range []int{1, 4, 8} {
		for _, v := range []harness.Variant{harness.VariantBase, harness.VariantLP} {
			b.Run(string(v)+"/threads="+string(rune('0'+th)), func(b *testing.B) {
				spec := benchTMM(v)
				spec.Threads = th
				runSim(b, spec)
			})
		}
	}
}

// --- Figure 15(a): L2 size sensitivity --------------------------------

func BenchmarkFig15a(b *testing.B) {
	for _, kb := range []int{64, 128, 256} {
		for _, v := range []harness.Variant{harness.VariantBase, harness.VariantLP} {
			b.Run("l2="+itoa(kb)+"KB/"+string(v), func(b *testing.B) {
				spec := benchTMM(v)
				h := memsim.DefaultConfig(spec.Threads)
				h.L2Size = kb << 10
				spec.Sim.Hier = h
				runSim(b, spec)
			})
		}
	}
}

// --- Figure 15(b): error-detection code sensitivity --------------------

func BenchmarkFig15b(b *testing.B) {
	for _, k := range checksum.Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			spec := benchTMM(harness.VariantLP)
			spec.Kind = k
			runSim(b, spec)
		})
	}
}

// --- §III-D accuracy ----------------------------------------------------

func BenchmarkChecksumAccuracy(b *testing.B) {
	for _, k := range checksum.Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			missed := 0
			for i := 0; i < b.N; i++ {
				missed += checksum.MeasureAccuracy(k, 64, 10000, int64(i)).Missed
			}
			b.ReportMetric(float64(missed), "missed")
		})
	}
}

// --- Ablations of §III design choices ---------------------------------

// Checksum persistence discipline: lazy (the paper's choice) vs eagerly
// flushing every region checksum (§III-D's rejected alternative).
func BenchmarkAblationEagerChecksum(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy-checksum"
		if eager {
			name = "eager-checksum"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchTMM(harness.VariantLP)
			spec.EagerChecksum = eager
			runSim(b, spec)
		})
	}
}

// LP region granularity (§IV: ii is the paper's pick; jj pays more
// checksum traffic, kk loses more work on a failure).
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []struct {
		name string
		g    workloads.Granularity
	}{{"ii", workloads.GranII}, {"jj", workloads.GranJJ}, {"kk", workloads.GranKK}} {
		b.Run(g.name, func(b *testing.B) {
			spec := benchTMM(harness.VariantLP)
			spec.Gran = g.g
			runSim(b, spec)
		})
	}
}

// Checksum organization: the paper's dense standalone table (Figure
// 7(b)) vs checksums embedded through the data's address range (Figure
// 7(a), rejected in §III-D).
func BenchmarkAblationEmbeddedTable(b *testing.B) {
	for _, embedded := range []bool{false, true} {
		name := "standalone-table"
		if embedded {
			name = "embedded-table"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchTMM(harness.VariantLP)
			spec.EmbeddedTable = embedded
			runSim(b, spec)
		})
	}
}

// WAL transaction granularity: one durable transaction per region vs
// the literal per-element structure of Figure 2.
func BenchmarkAblationWALGranularity(b *testing.B) {
	for _, elem := range []bool{false, true} {
		name := "region-tx"
		if elem {
			name = "element-tx"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchTMM(harness.VariantWAL)
			spec.ElementTx = elem
			if elem {
				spec.N = 64 // element transactions are very slow
				spec.WindowOuter = 1
			}
			runSim(b, spec)
		})
	}
}

// --- KV store (beyond the paper): request-driven persistence ----------

// BenchmarkKV runs the YCSB-style KV store under each persistence
// discipline — the `kv` experiment's core comparison (base/LP/EP/WAL
// on mix A) with all 8 simulated threads and a request phase large
// enough that simulation, not native setup, dominates wall-clock.
func BenchmarkKV(b *testing.B) {
	for _, v := range []harness.Variant{
		harness.VariantBase, harness.VariantLP, harness.VariantEP, harness.VariantWAL,
	} {
		b.Run(string(v), func(b *testing.B) {
			spec := harness.KVSpec{
				Variant: v, Mix: "a", Threads: 8,
				Preload: 512, Ops: 4096, Seed: 1,
			}
			var cycles int64
			var writes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer() // session setup: native preload, no simulation
				ses := harness.NewKVSession(spec)
				b.StartTimer()
				res := ses.Execute()
				if res.Crashed {
					b.Fatal("unexpected crash")
				}
				cycles, writes = res.Cycles, res.Writes
			}
			b.ReportMetric(float64(cycles), "simcycles/run")
			b.ReportMetric(float64(writes), "nvmmwrites/run")
		})
	}
}

// --- Experiment-runner benchmarks --------------------------------------

// runnerSpecs is a small batch of independent runs, the unit of work the
// parallel runner fans out.
func runnerSpecs() []harness.Spec {
	var specs []harness.Spec
	for _, v := range []harness.Variant{
		harness.VariantBase, harness.VariantLP, harness.VariantEP, harness.VariantWAL,
	} {
		specs = append(specs, harness.Spec{Workload: "tmm", Variant: v, N: 64, Tile: 16, Threads: 4})
	}
	return specs
}

// BenchmarkRunnerSequential executes the batch on a single pool worker
// without memoization — the pre-pool baseline.
func BenchmarkRunnerSequential(b *testing.B) {
	pool := harness.NewRunPool(1, nil)
	defer pool.Close()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunAll(runnerSpecs()...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerPool fans the batch out across GOMAXPROCS workers.
func BenchmarkRunnerPool(b *testing.B) {
	pool := harness.NewRunPool(0, nil)
	defer pool.Close()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunAll(runnerSpecs()...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMemoized measures the warm-cache path: after the first
// iteration every run is a cache hit.
func BenchmarkRunnerMemoized(b *testing.B) {
	pool := harness.NewRunPool(0, harness.NewCache())
	defer pool.Close()
	if _, err := pool.RunAll(runnerSpecs()...); err != nil {
		b.Fatal(err) // warm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunAll(runnerSpecs()...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scheduler benchmarks ----------------------------------------------

// engineSession is the scheduler-stress session behind BenchmarkEngine*:
// every thread interleaves loads, stores, and compute over a small
// per-thread working set (mostly cache-resident, so per-access memsim
// work is cheap), with frequent flush+fence episodes — the op mix of an
// eager-persistency kernel, whose fence stalls jump the clock and force
// a yield — and a barrier every 1024 iterations. Wall-clock here is
// dominated by the engine's per-quantum cost (scheduling decisions and
// the handoffs they cause); BenchmarkKV covers the memory-bound
// profile. quantum overrides the scheduling window (0 = default). It
// returns the handoffs the session made and the host time of its Run.
func engineSession(mem *memsim.Memory, threads, iters int, quantum int64) (int64, time.Duration) {
	base := mem.Alloc("d", 256<<10)
	cfg := sim.DefaultConfig(threads)
	cfg.Quantum = quantum
	eng := sim.New(cfg, mem)
	bar := eng.NewBarrier()
	start := time.Now()
	eng.Run(func(t *sim.Thread) {
		off := memsim.Addr(t.ThreadID() * 16 << 10)
		for i := 0; i < iters; i++ {
			a := base + off + memsim.Addr((i*712)%(16<<10)&^7)
			t.Load64(a)
			t.Store64(a, uint64(i))
			t.Compute(8)
			if i%16 == 15 {
				t.Flush(a)
				t.Fence()
			}
			if i%1024 == 1023 {
				t.BarrierWait(bar)
			}
		}
	})
	return eng.Sched().Handoffs, time.Since(start)
}

// benchEngine reports, beside ns/op, the handoffs one session makes and
// — for multi-thread sessions — what each costs. The cost is taken as a
// difference: the same session is first run off the clock with a
// quantum so large that threads switch only at barriers, which does the
// same simulated work on the same footprint with a few dozen handoffs
// instead of thousands; the extra wall time over the extra handoffs is
// the price of one.
func benchEngine(b *testing.B, threads int) {
	const iters = 20000
	var handoffs, coarseHandoffs int64
	var run, coarseRun time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer() // memory allocation + zeroing is not engine work
		if threads > 1 {
			h, d := engineSession(memsim.NewMemory(1<<20), threads, iters, 1<<40)
			coarseHandoffs += h
			coarseRun += d
		}
		mem := memsim.NewMemory(1 << 20)
		b.StartTimer()
		h, d := engineSession(mem, threads, iters, 0)
		handoffs += h
		run += d
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
	if threads > 1 {
		b.ReportMetric(float64((run-coarseRun).Nanoseconds())/float64(handoffs-coarseHandoffs), "ns/handoff")
	}
}

// BenchmarkEngine1T..8T measure one scheduler-stress session per
// iteration at fixed per-thread work; compare each size against its
// earlier number (EXPERIMENTS.md "Scheduler v3") rather than across
// sizes.
func BenchmarkEngine1T(b *testing.B) { benchEngine(b, 1) }

func BenchmarkEngine2T(b *testing.B) { benchEngine(b, 2) }

func BenchmarkEngine4T(b *testing.B) { benchEngine(b, 4) }

func BenchmarkEngine8T(b *testing.B) { benchEngine(b, 8) }

// --- Simulator self-benchmark ------------------------------------------

// BenchmarkSimulatorThroughput measures the simulator's own speed in
// simulated memory accesses per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mem := memsim.NewMemory(16 << 20)
	base := mem.Alloc("d", 8<<20)
	eng := sim.New(sim.DefaultConfig(1), mem)
	b.ResetTimer()
	eng.Run(func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Load64(base + memsim.Addr((i*64)%(8<<20)))
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
