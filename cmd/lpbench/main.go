// Command lpbench regenerates the tables and figures of "Lazy
// Persistency: A High-Performing and Write-Efficient Software
// Persistency Technique" (ISCA 2018) on the simulated machine.
//
// Usage:
//
//	lpbench -list                 # show available experiments
//	lpbench -exp fig10            # run one experiment
//	lpbench -exp all              # run everything
//	lpbench -exp all -parallel 8  # fan simulations out across 8 workers
//	lpbench -exp fig12 -quick     # smaller inputs, faster
//	lpbench -exp fig10 -threads 4 # override the worker-thread count
//	lpbench -json                 # machine-readable benchmark matrix
//
// The serving stack's benchmark is the nested bench/ module
// (`go run -C bench .`, declared in BENCHMARK.json), not this command.
//
// Independent simulations are executed by a worker pool (-parallel,
// default GOMAXPROCS) and memoized process-wide — byte-identical specs
// shared between experiments run once (-nocache disables). Results are
// deterministic regardless of either setting; timing and the runner
// summary go to stderr so stdout depends only on simulated results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lazyp/internal/harness"
	"lazyp/internal/profiling"
	"lazyp/internal/sim"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id(s), comma-separated (see -list), or \"all\"")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "shrink problem sizes for a fast pass")
		threads    = flag.Int("threads", 0, "override simulated worker-thread count (default 8)")
		parallel   = flag.Int("parallel", 0, "host worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
		nocache    = flag.Bool("nocache", false, "disable Spec→Result memoization")
		jsonOut    = flag.Bool("json", false, "run the benchmark matrix and emit JSON metrics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	noWork := *exp == "" && !*jsonOut
	if *list || noWork {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if noWork && !*list {
			os.Exit(2)
		}
		return
	}

	stopProfiles := profiling.Start("lpbench", *cpuprofile, *memprofile)
	defer stopProfiles()

	var cache *harness.Cache
	if !*nocache {
		cache = harness.NewCache()
	}
	pool := harness.NewRunPool(*parallel, cache)
	defer pool.Close()
	opt := harness.Options{Quick: *quick, Threads: *threads, Pool: pool}

	start := time.Now()
	var err error
	if *jsonOut {
		err = runJSON(os.Stdout, opt)
	} else if *exp != "" {
		var exps []harness.Experiment
		exps, err = harness.Select(*exp)
		if err == nil {
			err = harness.RunExperiments(os.Stdout, os.Stderr, exps, opt)
		}
	}
	printSummary(pool, time.Since(start))
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpbench: %v\n", err)
		stopProfiles()
		os.Exit(1)
	}
}

// runJSON executes the standard benchmark matrix and emits one JSON
// document with per-benchmark metrics, the runner's statistics
// (including memo-cache hits/misses), and the resolved simulator
// configuration the records were produced under, plus its short hash.
func runJSON(w io.Writer, opt harness.Options) error {
	records, err := harness.RunBenchMatrix(opt)
	if err != nil {
		return err
	}
	doc := struct {
		Quick   bool `json:"quick"`
		Threads int  `json:"threads,omitempty"`
		harness.Counters
		Sim        sim.Config            `json:"sim"`
		SimHash    string                `json:"sim_hash"`
		Benchmarks []harness.BenchRecord `json:"benchmarks"`
	}{opt.Quick, opt.Threads, opt.Pool.Counters(),
		opt.ResolvedSim(), harness.ConfigHash(opt.ResolvedSim()), records}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// printSummary reports runner statistics on stderr.
func printSummary(pool *harness.RunPool, wall time.Duration) {
	fmt.Fprintf(os.Stderr, "runner: %s, %.1fs wall\n", pool.Counters(), wall.Seconds())
}
