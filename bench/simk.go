package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"

	"lazyp/internal/harness"
)

// sim_kernels is the paper's own evaluation: the five kernels under
// base/LP/EP plus the TMM WAL reference, each spec through
// harness.NewSession(spec).Execute() — no pool, no memo cache. Host
// time is the simulator's speed; the simulated ratios are
// deterministic, must be identical on every pass, and are the
// reproduction's result. No serving layer runs.

const minSimPasses = 2 // a second pass is what proves the first deterministic

func buildSessions(specs []harness.Spec) []*harness.Session {
	out := make([]*harness.Session, len(specs))
	for i, s := range specs {
		out[i] = harness.NewSession(s)
	}
	return out
}

func runSimKernels(opt options, rec *spanRec) (*result, error) {
	res := newResult("sim_kernels")
	root := rec.begin(0, "workload")
	ph := rec.begin(root, "setup")
	ho := harness.Options{Quick: opt.scale < 1}
	var specs []harness.Spec
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		specs = harness.BenchMatrix(ho)
		buildSessions(specs)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // as in servingSpec.setUp
	}

	var first []harness.Result
	specS := make([][]float64, len(specs)) // per spec: one execution time per pass
	passes := minSimPasses
	if opt.scale < 1 {
		passes = 1 // bench_test.go
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for p := 0; p < passes || time.Now().Before(deadline); p++ {
		ph = rec.next(ph, "pass#"+strconv.Itoa(p+1))
		results := make([]harness.Result, len(specs))
		for i, spec := range specs {
			ses := harness.NewSession(spec)
			sid := rec.begin(ph, spec.Workload+"/"+string(spec.Variant))
			s0 := time.Now()
			results[i] = ses.Execute()
			specS[i] = append(specS[i], time.Since(s0).Seconds())
			rec.end(sid)
		}
		// One session alive at a time and a collected heap before every
		// pass: built sixteen at once and left to the pacer, the process
		// peaked at 370 MB when three passes fit the window and at 660 MB
		// when four did.
		runtime.GC()
		for i, r := range results {
			res.Attempted++
			switch {
			case r.Crashed:
				res.note("pass %d: %s/%s crashed", p+1, specs[i].Workload, specs[i].Variant)
				res.Failed++
			case first != nil && r != first[i]:
				res.note("pass %d: %s/%s differs from pass 1", p+1, specs[i].Workload, specs[i].Variant)
				res.Failed++
			}
		}
		if first == nil {
			first = results
		}
	}
	rec.end(ph)
	rec.end(root)
	res.note("%d passes over %d specs", len(specS[0]), len(specs))

	// by[workload][variant] indexes pass 1.
	by := map[string]map[harness.Variant]harness.Result{}
	var kernels []string // in matrix order, so float sums repeat exactly
	var instrs uint64
	var cycles, stalls int64
	var l1Hits, l2Acc, l2Miss uint64
	for i, s := range specs {
		if by[s.Workload] == nil {
			by[s.Workload] = map[harness.Variant]harness.Result{}
			kernels = append(kernels, s.Workload)
		}
		r := first[i]
		by[s.Workload][s.Variant] = r
		instrs += r.Ops.Instrs
		cycles += r.Cycles
		stalls += r.Haz.StallCycles
		l1Hits += r.Cache.L1Hits
		l2Acc += r.Cache.L2Accesses
		l2Miss += r.Cache.L2Misses
	}
	// geomean over the kernels of a variant's ratio to base.
	geomean := func(v harness.Variant, f func(harness.Result) float64) float64 {
		sum, n := 0.0, 0
		for _, k := range kernels {
			rs := by[k]
			r, ok := rs[v]
			if !ok || f(rs[harness.VariantBase]) == 0 {
				continue // no such variant, or (quick sizes only) a base that wrote nothing
			}
			sum += math.Log(f(r) / f(rs[harness.VariantBase]))
			n++
		}
		return math.Exp(sum / float64(n))
	}
	exec := func(r harness.Result) float64 { return float64(r.Cycles) }
	writes := func(r harness.Result) float64 { return float64(r.Writes) }

	// The unit operation is one spec's execution. Each spec's time is the
	// undisturbed quartile of its executions, one per pass, so a stall
	// shorter than a pass costs the specs it hit one sample each, not the
	// whole pass; a pass is the sum over the specs, p50 and p90 are taken
	// over them.
	specT := make([]float64, len(specs))
	pass := 0.0
	for i, ts := range specS {
		specT[i] = quantileOf(ts, undisturbedTime)
		pass += specT[i]
	}
	res.set("setup_s", slices.Min(setups))
	res.set("ops_per_s", float64(instrs)/pass)
	res.set("p50_us", medianOf(specT)*1e6)
	res.set("p90_us", quantileOf(specT, 0.90)*1e6)
	res.set("rss_peak_mb", rssPeakMB())

	res.set("sim.lp_exec_ratio", geomean(harness.VariantLP, exec))
	res.set("sim.lp_write_ratio", geomean(harness.VariantLP, writes))
	res.set("ep.exec_ratio", geomean(harness.VariantEP, exec))
	res.set("ep.write_ratio", geomean(harness.VariantEP, writes))
	res.set("ep.wal_exec_ratio", geomean(harness.VariantWAL, exec))
	res.set("ep.wal_write_ratio", geomean(harness.VariantWAL, writes))
	res.set("sim.host_ns_per_instr", pass*1e9/float64(instrs))
	res.set("sim.stall_cycle_share", float64(stalls)/float64(cycles))
	res.set("memsim.l1_miss_share", float64(l2Acc)/float64(l1Hits+l2Acc))
	res.set("memsim.l2_miss_share", float64(l2Miss)/float64(l2Acc))
	for _, name := range []string{"sim.lp_exec_ratio", "sim.lp_write_ratio"} {
		if v := res.Metrics[name]; math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("sim_kernels: %s = %v", name, v)
		}
	}
	return res, nil
}
