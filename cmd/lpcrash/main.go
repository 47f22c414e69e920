// Command lpcrash is an interactive crash-and-recovery demonstrator: it
// runs a chosen workload under a chosen persistence discipline, pulls
// the power at a chosen point, recovers, and verifies the output
// against an independent reference — printing what happened at every
// step.
//
// Usage:
//
//	lpcrash                                   # TMM + LP, crash at 50%
//	lpcrash -workload fft -at 0.8             # FFT, crash at 80%
//	lpcrash -variant ep -at 0.3               # EagerRecompute recovery
//	lpcrash -workload gauss -double           # crash during recovery too
//	lpcrash -clean 0.02                       # periodic flushing at 2% of exec
//	lpcrash -workload kv -mix a               # the KV store under YCSB-A
//	lpcrash -workload kv -variant wal -at 0.7 # KV, WAL transactions
//	lpcrash -workload kv -json                # machine-readable recovery report
//
// With -json (kv only) the narration moves to stderr and stdout gets
// one JSON document whose per-shard entries use the same
// lpstore.RecoverStats schema lpserve logs at startup and emits from
// -dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lazyp/internal/harness"
	"lazyp/internal/lpstore"
	"lazyp/internal/sim"
)

func main() {
	var (
		workload = flag.String("workload", "tmm", "tmm | cholesky | conv2d | gauss | fft | kv")
		variant  = flag.String("variant", "lp", "lp | ep | wal (kernel ep/wal recovery: tmm only)")
		at       = flag.Float64("at", 0.5, "crash point as a fraction of the failure-free runtime")
		double   = flag.Bool("double", false, "also crash halfway through recovery")
		clean    = flag.Float64("clean", 0, "periodic flush period as a fraction of exec (0 = off)")
		n        = flag.Int("n", 0, "problem size (0 = a small default)")
		threads  = flag.Int("threads", 4, "worker threads")
		mix      = flag.String("mix", "a", "kv only: request mix a | b | c | d")
		jsonOut  = flag.Bool("json", false, "kv only: emit a JSON recovery report on stdout")
	)
	flag.Parse()

	if *jsonOut && *workload != "kv" {
		fmt.Fprintln(os.Stderr, "lpcrash: -json is only supported with -workload kv")
		os.Exit(1)
	}
	if *workload == "kv" {
		runKV(*variant, *mix, *at, *clean, *threads, *double, *jsonOut)
		return
	}

	spec := harness.Spec{
		Workload: *workload,
		Variant:  harness.Variant(*variant),
		Threads:  *threads,
		N:        *n,
	}
	if *n == 0 {
		switch *workload {
		case "tmm", "cholesky":
			spec.N = 128
		case "conv2d", "gauss":
			spec.N = 128
		case "fft":
			spec.N = 4096
		}
	}
	if *workload == "tmm" {
		spec.Tile = 16
	}
	if *workload == "conv2d" {
		spec.Tile = 8
	}

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "lpcrash: "+format+"\n", args...)
		os.Exit(1)
	}

	// Failure-free calibration run.
	fmt.Printf("· failure-free %s/%s run (n=%d, %d threads)…\n", *workload, *variant, spec.N, *threads)
	cleanSes := harness.NewSession(spec)
	res := cleanSes.Execute()
	if err := cleanSes.Verify(); err != nil {
		fail("failure-free run produced a wrong result: %v", err)
	}
	fmt.Printf("  %d cycles, %d NVMM line writes\n", res.Cycles, res.Writes)

	// The crashing run.
	spec.Sim.CrashCycle = int64(*at * float64(res.Cycles))
	if spec.Sim.CrashCycle < 1 {
		spec.Sim.CrashCycle = 1
	}
	if *clean > 0 {
		spec.Sim.CleanPeriod = int64(*clean * float64(res.Cycles))
	}
	fmt.Printf("· re-running with a power failure at cycle %d (%.0f%%)…\n",
		spec.Sim.CrashCycle, 100**at)
	ses := harness.NewSession(spec)
	r := ses.Execute()
	if !r.Crashed {
		fail("the run completed before the crash point")
	}
	ses.Crash()
	fmt.Println("  crashed; caches lost, NVMM contents retained")

	// Recovery (optionally crashing again inside it).
	rcfg := sim.Config{}
	if *double {
		rcfg.CrashCycle = res.Cycles // roughly mid-recovery
		fmt.Println("· recovering — with a second failure injected into recovery…")
	} else {
		fmt.Println("· recovering…")
	}
	rr := ses.Recover(rcfg)
	if rr.Crashed {
		fmt.Println("  recovery itself crashed — recovering again…")
		ses.Crash()
		rr = ses.Recover(sim.Config{})
		if rr.Crashed {
			fail("second recovery crashed unexpectedly")
		}
	}
	fmt.Printf("  recovery took %d cycles\n", rr.RecoverCyc)

	if err := ses.Verify(); err != nil {
		fail("recovered output is WRONG: %v", err)
	}
	fmt.Println("✓ recovered output verified against an independent reference")
}

// runKV is the request-driven flow: crash the KV store mid-stream,
// recover, and verify that NVMM holds exactly the durably-acknowledged
// prefix of each thread's op stream. With jsonOut the narration goes to
// stderr and stdout carries one machine-readable report.
func runKV(variant, mix string, at, clean float64, threads int, double, jsonOut bool) {
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "lpcrash: "+format+"\n", args...)
		os.Exit(1)
	}
	var out io.Writer = os.Stdout
	if jsonOut {
		out = os.Stderr
	}
	spec := harness.KVSpec{Variant: harness.Variant(variant), Mix: mix, Threads: threads}
	if spec.Variant == harness.VariantBase {
		fail("the base variant has no recovery — pick lp, ep, or wal")
	}

	fmt.Fprintf(out, "· failure-free kv/%s run (mix %s, %d threads)…\n", variant, mix, threads)
	cleanSes := harness.NewKVSession(spec)
	res := cleanSes.Execute()
	if err := cleanSes.VerifyAcked(cleanSes.FullAck()); err != nil {
		fail("failure-free run produced wrong contents: %v", err)
	}
	fmt.Fprintf(out, "  %d cycles, %d NVMM line writes\n", res.Cycles, res.Writes)

	spec.Sim.CrashCycle = int64(at * float64(res.Cycles))
	if spec.Sim.CrashCycle < 1 {
		spec.Sim.CrashCycle = 1
	}
	if clean > 0 {
		spec.Sim.CleanPeriod = int64(clean * float64(res.Cycles))
	}
	fmt.Fprintf(out, "· re-running with a power failure at cycle %d (%.0f%%)…\n",
		spec.Sim.CrashCycle, 100*at)
	ses := harness.NewKVSession(spec)
	if r := ses.Execute(); !r.Crashed {
		fail("the run completed before the crash point")
	}
	ses.Crash()
	fmt.Fprintln(out, "  crashed; caches lost, NVMM contents retained")

	rcfg := sim.Config{}
	if double {
		rcfg.CrashCycle = res.Cycles / 4
		fmt.Fprintln(out, "· recovering — with a second failure injected into recovery…")
	} else {
		fmt.Fprintln(out, "· recovering…")
	}
	rr := ses.Recover(rcfg)
	if rr.Crashed {
		fmt.Fprintln(out, "  recovery itself crashed — recovering again…")
		ses.Crash()
		if rr = ses.Recover(sim.Config{}); rr.Crashed {
			fail("second recovery crashed unexpectedly")
		}
	}
	fmt.Fprintf(out, "  recovery took %d cycles\n", rr.RecoverCyc)
	for tid, w := range ses.Writers {
		line := fmt.Sprintf("  shard %d: %d puts acknowledged", tid, ses.Acked()[tid])
		if spec.Variant == harness.VariantLP && tid < len(ses.Stats) {
			st := ses.Stats[tid]
			if st.Verified {
				line += fmt.Sprintf(" (in %d journal windows; table verified in place)", st.AckedBatches)
			} else {
				line += fmt.Sprintf(" (in %d journal windows; %d deviations — shard rebuilt eagerly)",
					st.AckedBatches, st.Repaired)
			}
		}
		_ = w
		fmt.Fprintln(out, line)
	}
	if spec.Variant == harness.VariantLP && spec.Sim.CleanPeriod == 0 {
		fmt.Fprintln(out, "  (tip: without -clean, dirty journal lines rarely reach NVMM, so few batches acknowledge)")
	}

	if err := ses.VerifyAcked(ses.Acked()); err != nil {
		fail("recovered contents are WRONG: %v", err)
	}
	fmt.Fprintln(out, "✓ NVMM contents equal a failure-free execution of the acknowledged op prefix")

	if jsonOut {
		doc := struct {
			Workload   string                 `json:"workload"`
			Variant    string                 `json:"variant"`
			Mix        string                 `json:"mix"`
			Threads    int                    `json:"threads"`
			CrashCycle int64                  `json:"crash_cycle"`
			RecoverCyc int64                  `json:"recover_cycles"`
			AckedPuts  []int                  `json:"acked_puts"`
			Shards     []lpstore.RecoverStats `json:"shards,omitempty"`
			Verified   bool                   `json:"verified"`
		}{"kv", variant, mix, threads, spec.Sim.CrashCycle, rr.RecoverCyc,
			ses.Acked(), ses.Stats, true}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fail("encode: %v", err)
		}
	}
}
