// Command lpplan is the SLO capacity planner: it expands a loadmodel
// workload spec into its deterministic op stream and runs that stream
// through a queueing model of the kvserve pipeline (per-shard owner
// queues, group commit at BatchK/BatchWait, the flush pipeline,
// admission control, optional replication hop), predicting per-class
// throughput, latency percentiles, and reject rates for a given server
// geometry — before booting a single server.
//
// The model runs on rough localhost constants, order-of-magnitude only,
// unless -probe names a live server's control address (lpserve
// -metrics): then lpplan runs the steady builtin against it, at -rate
// for -dur over -conns connections, and reads the constants off the
// server's own stage histograms, scraped from /metrics before and after
// that run (loadmodel.Calibrate). The server's data address comes from
// its /healthz; its -shards and -batchwait must match lpplan's.
//
// Usage:
//
//	lpplan -builtin bursty -rate 0.5 -shards 4
//	lpplan -spec work.json -replicated
//	lpplan -builtin steady -probe 127.0.0.1:9090 -json
//	lpplan -builtin steady -sweep-shards 1,2,4,8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"lazyp/internal/loadmodel"
	"lazyp/internal/obs"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpplan: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		specPath = flag.String("spec", "", "loadmodel spec file (JSON)")
		builtin  = flag.String("builtin", "", "built-in spec ("+loadmodel.BuiltinNames()+") instead of -spec")
		rate     = flag.Float64("rate", 1.0, "rate multiplier for -builtin specs")
		dur      = flag.Duration("dur", 2*time.Second, "duration for -builtin specs")

		shards    = flag.Int("shards", 4, "server shards (power of two)")
		batch     = flag.Int("batch", 32, "group-commit batch size K")
		mailbox   = flag.Int("mailbox", 256, "per-shard mailbox depth")
		pipeline  = flag.Int("pipeline", 4, "commit pipeline depth")
		batchwait = flag.Duration("batchwait", 500*time.Microsecond, "max wait before a partial batch seals")
		maxops    = flag.Int("maxops", 0, "per-shard journal budget in puts (0 = unlimited)")
		conns     = flag.Int("conns", 4, "client connections the run will use")
		fsync     = flag.Bool("fsync", false, "model fsync-per-commit")
		repl      = flag.Bool("replicated", false, "model the synchronous replication hop")

		probe       = flag.String("probe", "", "calibrate from the stage histograms of the server with this control address")
		sweepShards = flag.String("sweep-shards", "", "comma-separated shard counts to compare (e.g. 1,2,4,8)")
		jsonOut     = flag.Bool("json", false, "emit the report(s) as JSON")
	)
	flag.Parse()

	var spec *loadmodel.Spec
	var err error
	switch {
	case *specPath != "" && *builtin != "":
		die("-spec and -builtin are mutually exclusive")
	case *specPath != "":
		spec, err = loadmodel.LoadSpec(*specPath)
	case *builtin != "":
		spec, err = loadmodel.BuiltinSpec(*builtin, *rate, dur.String())
	default:
		die("need -spec or -builtin (have: %s)", loadmodel.BuiltinNames())
	}
	if err != nil {
		die("%v", err)
	}

	ops, err := loadmodel.Generate(spec)
	if err != nil {
		die("%v", err)
	}

	cfg := loadmodel.PlanConfig{
		Shards: *shards, BatchK: *batch, Mailbox: *mailbox,
		PipelineDepth:  *pipeline,
		BatchWaitNs:    batchwait.Nanoseconds(),
		MaxOpsPerShard: *maxops, Conns: *conns,
		Fsync: *fsync, Replicated: *repl,
		Cal: loadmodel.DefaultCalibration(),
	}
	if *probe != "" {
		cfg.Cal = calibrate(*probe, *rate, *dur, cfg)
	}
	cal := cfg.Cal

	shardList := []int{*shards}
	if *sweepShards != "" {
		shardList = shardList[:0]
		for _, s := range strings.Split(*sweepShards, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				die("bad -sweep-shards entry %q", s)
			}
			shardList = append(shardList, n)
		}
	}

	reports := make([]*loadmodel.PlanReport, 0, len(shardList))
	for _, n := range shardList {
		c := cfg
		c.Shards = n
		reports = append(reports, loadmodel.Plan(spec, ops, c))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(reports) == 1 {
			enc.Encode(reports[0])
		} else {
			enc.Encode(reports)
		}
		return
	}

	fmt.Printf("spec %s: %d ops over %.2fs (%.0f ops/s offered), calibration %s\n",
		spec.Name, len(ops), float64(spec.DurationNs())/1e9, spec.OfferedOpsS(), cal.Source)
	fmt.Printf("  get %.1fµs  put %.1fµs  flush %.1fµs  fsync %.1fµs  rtt %.1fµs  seal-lag %.1fµs  repl-hop %.1fµs\n",
		cal.GetSvcNs/1e3, cal.PutSvcNs/1e3, cal.FlushNs/1e3,
		cal.FsyncNs/1e3, cal.NetRTTNs/1e3, cal.SealLagNs/1e3, cal.ReplHopNs/1e3)
	for _, rep := range reports {
		printPlan(rep)
	}
}

func printPlan(rep *loadmodel.PlanReport) {
	fmt.Printf("geometry: shards %d, batch %d, mailbox %d, pipeline %d, batchwait %s, conns %d",
		rep.Cfg.Shards, rep.Cfg.BatchK, rep.Cfg.Mailbox, rep.Cfg.PipelineDepth,
		time.Duration(rep.Cfg.BatchWaitNs), rep.Cfg.Conns)
	if rep.Cfg.Fsync {
		fmt.Print(", fsync")
	}
	if rep.Cfg.Replicated {
		fmt.Print(", replicated")
	}
	fmt.Println()
	fmt.Printf("  utilization: put %.2f  get %.2f  flush %.2f\n", rep.PutUtil, rep.GetUtil, rep.FlushUtil)
	fmt.Print("  put stages:")
	for stage, us := range rep.Stages {
		if us > 0 {
			fmt.Printf("  %s %.1fµs", obs.Stage(stage), us)
		}
	}
	fmt.Println()
	rows := append([]loadmodel.ClassPlan{rep.Total}, rep.Classes...)
	for i, cp := range rows {
		name := cp.Name
		if i == 0 {
			name = "TOTAL"
		}
		fmt.Printf("  %-12s %7d ops  offered %8.0f/s  ok %8.0f/s  p50 %7.0fµs  p99 %7.0fµs  put-p99 %7.0fµs  rej %.3f (ov/full %d/%d)\n",
			name, cp.Ops, cp.OfferedOpsS, cp.OKOpsS, cp.P50us, cp.P99us, cp.PutP99us,
			cp.RejectRate, cp.Overloads, cp.Full)
	}
}

// calibrate runs the steady builtin against the server whose control
// address is ctrl, over geo.Conns connections, and returns the constants
// its histograms give over that run; geo must be the server's geometry.
func calibrate(ctrl string, rate float64, dur time.Duration, geo loadmodel.PlanConfig) loadmodel.Calibration {
	get := func(path string, read func(io.Reader) error) {
		resp, err := http.Get("http://" + ctrl + path)
		if err == nil {
			err = read(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			die("-probe %s: %v", ctrl, err)
		}
	}
	var health struct{ Status, Addr string }
	get("/healthz", func(r io.Reader) error { return json.NewDecoder(r).Decode(&health) })
	if health.Addr == "" {
		die("-probe %s: server is %q, with no data address", ctrl, health.Status)
	}
	spec, err := loadmodel.BuiltinSpec("steady", rate, dur.String())
	var ops []loadmodel.Op
	if err == nil {
		ops, err = loadmodel.Generate(spec)
	}
	var cal loadmodel.Calibration
	if err == nil {
		cal, _, err = loadmodel.CalibrationRun(health.Addr, loadmodel.TraceOf(spec, ops), geo,
			func() (sc obs.Scrape, err error) {
				get("/metrics", func(r io.Reader) error { sc, err = obs.ReadProm(r); return err })
				return sc, err
			})
	}
	if err != nil {
		die("-probe %s: calibration run: %v", ctrl, err)
	}
	cal.Source += ":" + ctrl
	return cal
}
