// Command lpload drives load against a running lpserve or a cluster
// through the one client engine (internal/loadmodel): pipelined
// connections under a single issue rule — an op leaves when it is due
// and a slot of the -window is free. It reports throughput and latency
// percentiles per SLO class — the measured numbers behind
// EXPERIMENTS.md E15–E17.
//
// What is due when depends on the source:
//
//   - a kvgen mix (-mix, the default) or -insert replays the same
//     deterministic YCSB-style streams the in-simulator experiments
//     use, every op due at once, so the window paces the run (a closed
//     loop) and overloads retry with jittered exponential backoff
//     (-max-retries);
//   - -spec, -builtin or -trace-in dispatch a multi-class op schedule
//     at its recorded times, never retried unless -max-retries is
//     given; a full window is counted as a stall. -trace-out records
//     the generated stream as a JSONL trace; -trace-in replays a
//     recorded trace byte-for-byte instead of generating; -gen-only
//     writes the trace and exits without a server.
//
// Two ways to reach a cluster:
//
//   - proxy mode: point -addr at lprouter's data port; the router
//     routes every request and the client is none the wiser;
//   - smart-client mode: -topo fetches the slot table from lprouter's
//     control port and each connection routes per key, opening one
//     TCP connection per node — the router is out of the data path.
//     The table refreshes on every connection failure (and on a
//     periodic timer), so a failover re-routes mid-run.
//
// -reconnect makes connections survive node deaths: in-flight ops on a
// dead connection retry (bounded by -max-retries each) with jittered
// backoff instead of ending the run — required for driving load
// through a failover. Per-target connection stats land in the report.
//
// Usage:
//
//	lpload -addr 127.0.0.1:7411 -dur 2s
//	lpload -conns 4 -window 64 -mix b -json
//	lpload -insert -ops 5000      # unique-key inserts (crash-demo shape)
//	lpload -addr 127.0.0.1:7400 -reconnect -dur 5s          # via lprouter
//	lpload -topo http://127.0.0.1:7500 -reconnect -dur 5s   # smart client
//	lpload -builtin bursty -rate 0.5 -dur 2s -addr 127.0.0.1:7411
//	lpload -spec work.json -trace-out run.jsonl -addr 127.0.0.1:7411
//	lpload -trace-in run.jsonl -addr 127.0.0.1:7411
//	lpload -builtin steady -gen-only -trace-out steady.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"lazyp/internal/cluster"
	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/obs"
)

// topoView is the smart client's routing state: the last fetched
// topology plus a rate limit on refreshes, shared by all workers.
type topoView struct {
	base    string // router control URL
	cur     atomic.Pointer[cluster.Topology]
	lastRef atomic.Int64 // ns of last refresh attempt
}

func (tv *topoView) fetch() error {
	resp, err := http.Get(tv.base + "/cluster/topology")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var t cluster.Topology
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return err
	}
	if len(t.Slots) != cluster.NumSlots {
		return fmt.Errorf("topology has %d slots, want %d", len(t.Slots), cluster.NumSlots)
	}
	if cur := tv.cur.Load(); cur == nil || t.Epoch >= cur.Epoch {
		tv.cur.Store(&t)
	}
	return nil
}

// refresh re-fetches the table, at most once per 20ms across all
// workers — a failover makes every worker's connection fail at once,
// and one fetch serves them all.
func (tv *topoView) refresh() {
	now := time.Now().UnixNano()
	last := tv.lastRef.Load()
	if now-last < 20*time.Millisecond.Nanoseconds() || !tv.lastRef.CompareAndSwap(last, now) {
		return
	}
	tv.fetch()
}

func (tv *topoView) route(key uint64) string {
	t := tv.cur.Load()
	if t == nil {
		return ""
	}
	return t.PrimaryAddr(key)
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7411", "server (or lprouter data) address")
		topo       = flag.String("topo", "", "lprouter control URL for smart-client routing (e.g. http://127.0.0.1:7500)")
		conns      = flag.Int("conns", 2, "concurrent connections")
		window     = flag.Int("window", 0, "in-flight ops per connection (default 32; 512 for a -spec/-builtin/-trace-in replay)")
		ops        = flag.Int("ops", 0, "ops per connection (0 = run for -dur)")
		dur        = flag.Duration("dur", 2*time.Second, "run duration when -ops is 0")
		mix        = flag.String("mix", "a", "request mix: a | b | c | d")
		dist       = flag.String("dist", "zipfian", "key distribution: zipfian | uniform")
		streams    = flag.Int("streams", 4, "server's preloaded stream count")
		keys       = flag.Int("keys", 2048, "server's preloaded keys per stream")
		seed       = flag.Uint64("seed", 1, "stream seed (must match the server)")
		insert     = flag.Bool("insert", false, "insert-only unique keys instead of a mix")
		reconnect  = flag.Bool("reconnect", false, "survive connection failures: requeue in-flight ops and redial with backoff")
		maxRetries = flag.Int("max-retries", 8, "retries per op on overload, stale routing or a dead connection; a -spec/-builtin/-trace-in replay never retries unless this is given")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON")
		interval   = flag.Duration("interval", 0, "emit periodic throughput/latency lines on stderr (0 = off)")
		traceEvery = flag.Int("trace-every", 0, "propagate a trace ID on every Nth op per connection (0 = off)")
		spanOut    = flag.String("span-out", "", "write the client-side span drain (client_send/client_ack JSONL) here for lptrace")

		specPath = flag.String("spec", "", "loadmodel spec file: a multi-class op schedule instead of the kvgen mix")
		builtin  = flag.String("builtin", "", "built-in loadmodel spec ("+loadmodel.BuiltinNames()+") instead of -spec")
		rate     = flag.Float64("rate", 1.0, "rate multiplier for -builtin specs")
		traceOut = flag.String("trace-out", "", "record the generated op stream to this JSONL trace file")
		traceIn  = flag.String("trace-in", "", "replay a recorded trace file instead of generating")
		genOnly  = flag.Bool("gen-only", false, "generate (and -trace-out) without contacting a server")
	)
	flag.Parse()

	opts := loadmodel.Options{
		Conns: *conns, Window: *window, MaxRetries: *maxRetries,
		Reconnect: *reconnect,
		Interval:  *interval, Progress: os.Stderr,
		TraceEvery: *traceEvery,
	}
	if *traceEvery > 0 {
		// Size the ring for the whole run: two events per traced op.
		opts.Tracer = obs.NewTracer(1 << 16)
		opts.Tracer.Enable(true)
	}

	var src loadmodel.Source
	if *specPath != "" || *builtin != "" || *traceIn != "" {
		tr := resolveTrace(*specPath, *builtin, *rate, *dur, *traceOut, *traceIn)
		if *genOnly {
			return
		}
		src = tr
		if *window == 0 {
			opts.Window = 512
		}
		retriesGiven := false
		flag.Visit(func(f *flag.Flag) { retriesGiven = retriesGiven || f.Name == "max-retries" })
		if !retriesGiven {
			opts.MaxRetries = 0
		}
	} else {
		m := loadmodel.MixLoad{
			Mix: *mix, Dist: *dist,
			Streams: *streams, Keys: *keys, Seed: *seed,
			InsertOnly: *insert, Ops: *ops,
		}
		if *ops == 0 {
			// -dur governs only duration-bounded runs; an ops-bounded run
			// ends when every op settles, however long a failover stalls it.
			m.Dur = *dur
		}
		src = m
	}

	if *topo != "" {
		tv := &topoView{base: *topo}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err := tv.fetch(); err == nil {
				break
			} else if time.Now().After(deadline) {
				die("fetching topology from %s: %v", *topo, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
		opts.Route = tv.route
		opts.Refresh = tv.refresh
		// A periodic refresh picks up rejoins and promotions even when
		// no connection broke (e.g. a get-only run).
		stopRef := make(chan struct{})
		defer close(stopRef)
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopRef:
					return
				case <-tick.C:
					tv.fetch()
				}
			}
		}()
		t := tv.cur.Load()
		fmt.Fprintf(os.Stderr, "lpload: smart-client routing, epoch %d, %d nodes\n", t.Epoch, len(t.Nodes))
	} else if err := kvserve.WaitReady(*addr, 10*time.Second); err != nil {
		die("%v", err)
	}

	rep, err := loadmodel.Run(*addr, src, opts)
	if err != nil {
		die("%v", err)
	}
	drainSpans(*spanOut, opts.Tracer)
	if rep.Partial {
		fmt.Fprintln(os.Stderr, "lpload: connection lost mid-run — report covers settled ops only")
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		printReport(rep)
	}
	if rep.Errors > 0 || rep.Partial {
		os.Exit(2)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpload: "+format+"\n", args...)
	os.Exit(1)
}

// drainSpans writes the client-side tracer ring to spanOut as JSONL
// for lptrace; a no-op unless both the flag and the tracer are set.
func drainSpans(spanOut string, tr *obs.Tracer) {
	if spanOut == "" || tr == nil {
		return
	}
	f, err := os.Create(spanOut)
	if err != nil {
		die("%v", err)
	}
	evs := tr.Drain(0)
	if err := obs.WriteJSONL(f, evs); err != nil {
		die("span-out: %v", err)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "lpload: %d client span events written to %s\n", len(evs), spanOut)
}

// resolveTrace produces the op schedule of a spec-driven run: generate
// it from a spec, or read a recorded one back; optionally record it.
func resolveTrace(specPath, builtin string, rate float64, dur time.Duration, traceOut, traceIn string) *loadmodel.Trace {
	var tr *loadmodel.Trace
	if traceIn != "" {
		if specPath != "" || builtin != "" {
			die("-trace-in replaces generation; drop -spec/-builtin")
		}
		t, err := loadmodel.ReadTraceFile(traceIn)
		if err != nil {
			die("%v", err)
		}
		tr = t
	} else {
		var spec *loadmodel.Spec
		var err error
		if specPath != "" {
			spec, err = loadmodel.LoadSpec(specPath)
		} else {
			spec, err = loadmodel.BuiltinSpec(builtin, rate, dur.String())
		}
		if err != nil {
			die("%v", err)
		}
		ops, err := loadmodel.Generate(spec)
		if err != nil {
			die("%v", err)
		}
		tr = loadmodel.TraceOf(spec, ops)
		fmt.Fprintf(os.Stderr, "lpload: spec %s: %d ops over %.2fs (%d clients, %d classes)\n",
			tr.Header.Name, len(ops), float64(tr.Header.DurNs)/1e9,
			spec.TotalClients(), len(spec.Classes))
	}
	if traceOut != "" {
		if err := loadmodel.WriteTraceFile(traceOut, tr); err != nil {
			die("%v", err)
		}
		fmt.Fprintf(os.Stderr, "lpload: trace written to %s (%d ops)\n", traceOut, len(tr.Ops))
	}
	return tr
}

func printReport(rep *loadmodel.Report) {
	fmt.Printf("%s: conns %d, window %d, %.2fs\n", rep.Spec, rep.Conns, rep.Window, rep.ElapsedS)
	fmt.Printf("  %d ops, %.0f ops/s; puts acked %d, gets %d (miss %d)\n",
		rep.Ops, rep.Throughput, rep.AckedPuts, rep.Gets, rep.NotFound)
	rows := []loadmodel.ClassPlan{rep.Total}
	if len(rep.Classes) > 1 {
		rows = append(rows, rep.Classes...)
	}
	for i, cp := range rows {
		name := cp.Name
		if i == 0 {
			name = "TOTAL"
		}
		fmt.Printf("  %-12s %7d ops  ok %8.0f/s  p50 %7.0fµs  p99 %7.0fµs  put-p99 %7.0fµs  max %7.0fµs  rej %.3f (ov/exp/full %d/%d/%d)\n",
			name, cp.Ops, cp.OKOpsS, cp.P50us, cp.P99us, cp.PutP99us, cp.MaxUs,
			cp.RejectRate, cp.Overloads, cp.Expired, cp.Full)
	}
	fmt.Printf("  retries %d  moved %d  errors %d  stalls %d  lag-max %.0fµs (>1ms on %d ops)  sched p50/p99 %.0f/%.0fµs\n",
		rep.Retries, rep.Moved, rep.Errors, rep.Stalls, rep.LagMaxUs, rep.LagOps, rep.SchedP50us, rep.SchedP99us)
	for _, ts := range rep.Targets {
		fmt.Printf("  target %s: ops %d, acked %d, dials %d, resets %d\n",
			ts.Addr, ts.Ops, ts.AckedPuts, ts.Dials, ts.Resets)
	}
}
