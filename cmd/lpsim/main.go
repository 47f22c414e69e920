// Command lpsim runs one configurable simulation and dumps the full
// machine statistics — a workbench for exploring how the memory
// hierarchy, the timing model, and the persistence disciplines interact
// outside the fixed experiment configurations of lpbench.
//
// Usage:
//
//	lpsim -workload tmm -variant lp
//	lpsim -workload gauss -variant ep -n 192 -threads 4 -l2 131072
//	lpsim -workload fft -variant wal -read 60 -write 150
//	lpsim -workload tmm -variant lp -clean 50000 -window 2
//
// The paper's figure/table experiments are lpbench's job
// (lpbench -exp all); -trace here dumps one run's persistency events.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"lazyp/internal/checksum"
	"lazyp/internal/harness"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/profiling"
	"lazyp/internal/sim"
)

func main() {
	var (
		workload = flag.String("workload", "tmm", "tmm | cholesky | conv2d | gauss | fft")
		variant  = flag.String("variant", "lp", "base | lp | ep | wal")
		n        = flag.Int("n", 0, "problem size (0 = default)")
		tile     = flag.Int("tile", 0, "TMM tile size / conv2d block rows (0 = default)")
		threads  = flag.Int("threads", 8, "worker threads")
		window   = flag.Int("window", 0, "simulate only this many outer iterations (0 = full run)")
		kind     = flag.String("cksum", "modular", "modular | parity | adler32 | dual")
		l1       = flag.Int("l1", 0, "L1 size in bytes (0 = default 32KiB)")
		l2       = flag.Int("l2", 0, "L2 size in bytes (0 = default 256KiB)")
		readNs   = flag.Int64("read", 0, "NVMM read latency in ns (0 = default 150)")
		writeNs  = flag.Int64("write", 0, "NVMM write latency in ns (0 = default 300)")
		clean    = flag.Int64("clean", 0, "periodic flush period in cycles (0 = off)")
		verify   = flag.Bool("verify", false, "verify the output (full runs only)")
		traceOut = flag.String("trace", "", "write persistency events (flush/fence/evict/rob_stall…) as JSONL to this file")
		traceCap = flag.Int("tracecap", 1<<20, "trace ring-buffer capacity in events (oldest dropped beyond)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles := profiling.Start("lpsim", *cpuprofile, *memprofile)
	defer stopProfiles()

	var k checksum.Kind
	switch *kind {
	case "modular":
		k = checksum.Modular
	case "parity":
		k = checksum.Parity
	case "adler32":
		k = checksum.Adler32
	case "dual":
		k = checksum.Dual
	default:
		fmt.Fprintf(os.Stderr, "lpsim: unknown checksum %q\n", *kind)
		os.Exit(2)
	}

	spec := harness.Spec{
		Workload:    *workload,
		Variant:     harness.Variant(*variant),
		N:           *n,
		Tile:        *tile,
		Threads:     *threads,
		Kind:        k,
		WindowOuter: *window,
	}
	spec.Sim.CleanPeriod = *clean
	if *readNs > 0 {
		spec.Sim.MemReadLat = *readNs * 2 // 2 GHz
	}
	if *writeNs > 0 {
		spec.Sim.MemWriteLat = *writeNs * 2
	}
	if *l1 > 0 || *l2 > 0 {
		h := memsim.DefaultConfig(*threads)
		if *l1 > 0 {
			h.L1Size = *l1
		}
		if *l2 > 0 {
			h.L2Size = *l2
		}
		spec.Sim.Hier = h
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*traceCap)
		tracer.Enable(true)
		sim.SetGlobalSink(tracer)
		defer sim.SetGlobalSink(nil)
	}

	ses := harness.NewSession(spec)
	res := ses.Execute()

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpsim: %v\n", err)
			os.Exit(1)
		}
		evs := tracer.Drain(0)
		if err := obs.WriteJSONL(f, evs); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpsim: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lpsim: %d events traced to %s (%d dropped by the ring)\n",
			len(evs), *traceOut, tracer.Dropped())
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s (n=%d, %d threads, %s variant, %s checksum)\n",
		spec.Workload, ses.Spec.N, spec.Threads, spec.Variant, k)
	fmt.Fprintf(tw, "exec cycles\t%d\n", res.Cycles)
	fmt.Fprintf(tw, "instructions\t%d\n", res.Ops.Instrs)
	fmt.Fprintf(tw, "loads / stores\t%d / %d\n", res.Ops.Loads, res.Ops.Stores)
	fmt.Fprintf(tw, "flushes / fences\t%d / %d\n", res.Ops.Flushes, res.Ops.Fences)
	fmt.Fprintf(tw, "NVMM writes\t%d (evict %d, flush %d, cleanup %d)\n",
		res.Writes, res.EvictW, res.FlushW, res.CleanW)
	fmt.Fprintf(tw, "NVMM reads\t%d\n", res.Reads)
	fmt.Fprintf(tw, "L1 hits\t%d\n", res.Cache.L1Hits)
	fmt.Fprintf(tw, "L2 accesses / misses\t%d / %d (miss rate %.3f)\n",
		res.Cache.L2Accesses, res.Cache.L2Misses, res.Cache.L2MissRate())
	fmt.Fprintf(tw, "prefetches\t%d\n", res.Cache.Prefetches)
	fmt.Fprintf(tw, "coherence\t%d invalidations, %d interventions, %d upgrades\n",
		res.Cache.Invalidations, res.Cache.Interventions, res.Cache.Upgrades)
	fmt.Fprintf(tw, "max volatility duration\t%d cycles\n", res.Cache.MaxVdur)
	if res.Cache.NumVdur > 0 {
		fmt.Fprintf(tw, "mean volatility duration\t%d cycles\n", res.Cache.SumVdur/res.Cache.NumVdur)
	}
	fmt.Fprintf(tw, "hazards\tMSHR-full %d, ROB %d, storeQ %d, flushQ %d, WB-throttle %d\n",
		res.Haz.MSHRFull, res.Haz.ROBStall, res.Haz.StoreQFull, res.Haz.WriteQFull, res.Haz.WBThrottle)
	fmt.Fprintf(tw, "fence stalls\t%d (%d cycles)\n", res.Haz.FenceStalls, res.Haz.FenceCycles)
	fmt.Fprintf(tw, "total stall cycles\t%d\n", res.Haz.StallCycles)
	tw.Flush()

	if *verify {
		if spec.WindowOuter > 0 {
			fmt.Fprintln(os.Stderr, "lpsim: -verify needs a full run (window=0)")
			os.Exit(2)
		}
		if err := ses.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "lpsim: VERIFY FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("output verified ✓")
	}
}
