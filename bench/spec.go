package main

// spec.go names everything the benchmark reports. BENCHMARK.json at the
// repo root carries the same names with direction and regression bound;
// bench_test.go holds the two in step.

type metricDef struct{ Name, Unit string }

// workloadNames is the run order of `go run -C bench .` without
// -workload.
var workloadNames = []string{
	"put_few", "put_sat", "get_sat", "mix_sat", "cluster_mix", "crash_recover", "sim_kernels",
}

// endToEnd metrics are reported by every workload on an untraced run.
// What "operation" means per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer metrics are reported by every workload on a traced run; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// driver: exact client-side percentiles by op kind.
	{"driver.put_p50_us", "us"},
	{"driver.put_p99_us", "us"},
	{"driver.get_p50_us", "us"},
	{"driver.get_p99_us", "us"},
	// kvserve: always-on instruments read after the run.
	{"kvserve.stage_queue_us", "us"},
	{"kvserve.stage_fill_us", "us"},
	{"kvserve.stage_flush_us", "us"},
	{"kvserve.stage_repl_us", "us"},
	{"kvserve.put_server_us", "us"},
	{"kvserve.put_outside_us", "us"},
	{"kvserve.closure_gap_share", "ratio"},
	{"kvserve.persist_bytes_per_put", "B"},
	{"kvserve.puts_per_batch", "count"},
	{"kvserve.pad_share", "ratio"},
	{"kvserve.leaked_lines_per_put", "count"},
	{"kvserve.journal_peak_share", "ratio"},
	{"kvserve.frames_per_writev", "count"},
	{"kvserve.seqlock_retries_per_mget", "count"},
	{"kvserve.rejects_overload", "count"},
	{"kvserve.rejects_full", "count"},
	{"kvserve.rejects_expired", "count"},
	{"kvserve.mailbox_high_water", "count"},
	{"kvserve.recovery_s", "s"},
	{"kvserve.recovered_puts", "count"},
	{"kvserve.repaired_slots", "count"},
	{"cluster.repl_puts_per_frame", "count"},
	{"cluster.repl_lag_us", "us"},
	{"cluster.repl_retries", "count"},
	{"cluster.repl_degraded", "count"},
	{"cluster.router_bytes_per_op", "B"},
	{"cluster.router_backend_resets", "count"},
	// host: the benchmark process over the measured window.
	{"host.cpu_us_per_op", "us"},
	{"host.alloc_bytes_per_op", "B"},
	{"host.gc_cycles", "count"},
	// layer pass: one layer's public functions, single goroutine.
	{"wire.req_ns", "ns"},
	{"wire.resp_ns", "ns"},
	{"lpstore.put_ns_fit", "ns"},
	{"lpstore.put_ns_spill", "ns"},
	{"lpstore.seqget_ns_fit", "ns"},
	{"lpstore.seqget_ns_spill", "ns"},
	{"lpstore.recover_ns_per_put", "ns"},
	{"checksum.modular_ns_per_word", "ns"},
	{"checksum.parity_ns_per_word", "ns"},
	{"checksum.adler32_ns_per_word", "ns"},
	{"checksum.dual_ns_per_word", "ns"},
	{"obs.counter_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.trace_off_ns", "ns"},
	{"obs.trace_on_ns", "ns"},
	{"workloads.kvgen_ns_per_op", "ns"},
	{"loadmodel.gen_ns_per_op", "ns"},
	{"loadmodel.plan_ns_per_op", "ns"},
	// simulator: harness.Result fields, simulated and exact.
	{"sim.lp_exec_ratio", "ratio"},
	{"sim.lp_write_ratio", "ratio"},
	{"sim.host_ns_per_instr", "ns"},
	{"sim.stall_cycle_share", "ratio"},
	{"memsim.l1_miss_share", "ratio"},
	{"memsim.l2_miss_share", "ratio"},
	{"ep.exec_ratio", "ratio"},
	{"ep.write_ratio", "ratio"},
	{"ep.wal_exec_ratio", "ratio"},
	{"ep.wal_write_ratio", "ratio"},
	{"trace.overhead_share", "ratio"},
}
