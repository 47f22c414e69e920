// Command lpserve serves an LP-persisted key-value store over TCP: the
// kvserve deployment of the repository's lpstore shards, with group
// commit under LP and the EP/WAL baselines selectable for comparison.
//
// The backing file is the durability domain. A fresh path is
// initialized with the preloaded dataset; an existing path is loaded
// and recovered — LP journal replay with ghost-wiping repair, WAL
// rollback — before the listener accepts a single connection. SIGTERM
// or SIGINT drains gracefully: open batches are sealed and committed,
// every queued client is answered, and the file is synced, so the next
// boot recovers with zero repair.
//
// The -metrics mux comes up before recovery starts and serves /healthz
// from the first instant: 503 {"status":"recovering"} while journal
// replay runs, 200 {"status":"serving","addr":...} once the data port
// accepts.
// That readiness split is what lets a router (or an orchestrator) tell
// a booting node from a dead one.
//
// With -node-id the process joins a cluster as a member node: the
// metrics mux doubles as the cluster control plane (/cluster/topology,
// /cluster/catchup) and the server replicates each put to its key's
// pair peer per the pushed topology — see internal/cluster and
// cmd/lprouter.
//
// Usage:
//
//	lpserve -path kv.img                        # LP, defaults
//	lpserve -mode ep -addr 127.0.0.1:7411       # eager baseline
//	lpserve -path kv.img -recover-verify        # recover + verify, then exit
//	lpserve -path kv.img -dump                  # recovery stats as JSON, then exit
//	lpserve -path n0.img -node-id n0 -metrics 127.0.0.1:7511   # cluster member
//
// Startup recovery logs and -dump use the same per-shard JSON schema
// as lpcrash -json (lpstore.RecoverStats).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"lazyp/internal/cluster"
	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lpserve: "+format+"\n", args...)
	os.Exit(1)
}

func parseMode(s string) (lpstore.Mode, error) {
	switch s {
	case "base":
		return lpstore.ModeBase, nil
	case "lp":
		return lpstore.ModeLP, nil
	case "ep":
		return lpstore.ModeEP, nil
	case "wal":
		return lpstore.ModeWAL, nil
	}
	return 0, fmt.Errorf("unknown mode %q (base | lp | ep | wal)", s)
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7411", "TCP listen address")
		mode      = flag.String("mode", "lp", "persistence discipline: base | lp | ep | wal")
		path      = flag.String("path", "kvserve.img", "backing (NVMM) file")
		shards    = flag.Int("shards", 4, "shard owner goroutines (power of two)")
		capacity  = flag.Int("cap", 1<<14, "slot capacity per shard")
		maxops    = flag.Int("maxops", 1<<16, "LP journal capacity per shard, in puts")
		batch     = flag.Int("batch", 32, "LP group-commit size (puts per checksum region)")
		streams   = flag.Int("streams", 4, "preloaded client streams")
		keys      = flag.Int("keys", 2048, "preloaded keys per stream")
		seed      = flag.Uint64("seed", 1, "preload value seed")
		mailbox   = flag.Int("mailbox", 256, "per-shard request queue depth")
		batchWait = flag.Duration("batchwait", 500*time.Microsecond, "age (from its first put) at which an open batch is sealed short of -batch puts")
		fsync     = flag.Bool("fsync", false, "fsync the backing file on every commit")
		pipeline  = flag.Int("pipeline", 4, "LP commit pipeline depth (1 = synchronous group commit)")
		dump      = flag.Bool("dump", false, "print restore/recovery summary as JSON and exit")
		verify    = flag.Bool("recover-verify", false, "recover, re-verify every shard, and exit")
		metrics   = flag.String("metrics", "", "serve /healthz, Prometheus /metrics, and /debug/trace on this address (empty = off; required with -node-id)")
		trace     = flag.Bool("trace", false, "enable the in-memory persistency event tracer (drain via /debug/trace?n=K)")
		traceCap  = flag.Int("tracecap", obs.DefaultTraceCap, "event tracer ring-buffer capacity")
		traceN    = flag.Int("trace-sample", 0, "tail-sample every Nth untraced client put as a full span (0 = off; implies -trace)")
		traceSlow = flag.Duration("trace-slow", 0, "record a slow_put event for puts acked later than this (0 = off; implies -trace)")
		nodeID    = flag.String("node-id", "", "cluster member identity; joins a cluster, making -metrics the control plane")
		replWin   = flag.Int("repl-window", cluster.DefaultReplWindow, "cluster: in-flight replication batches per peer")
	)
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fail("%v", err)
	}
	cfg := kvserve.Config{
		Addr: *addr, Path: *path, Mode: m,
		Shards: *shards, Capacity: *capacity, MaxOps: *maxops, BatchK: *batch,
		Streams: *streams, Keys: *keys, Seed: *seed,
		Mailbox: *mailbox, BatchWait: *batchWait,
		Fsync: *fsync, PipelineDepth: *pipeline,
		TraceSample: *traceN, TraceSlow: *traceSlow,
	}
	if *trace || *traceN > 0 || *traceSlow > 0 {
		// Enabled before New, so that the boot and recovery events of this
		// very start are on the ring.
		cfg.Tracer = obs.NewTracer(*traceCap)
		cfg.Tracer.Enable(true)
	}

	if *nodeID != "" {
		if *metrics == "" {
			fail("-node-id requires -metrics (the cluster control plane address)")
		}
		runClusterNode(*nodeID, *metrics, cfg, *replWin)
		return
	}

	// Standalone path. The metrics mux comes up before recovery so
	// /healthz answers "recovering" while journal replay runs.
	var serving atomic.Pointer[string] // the data address, once it accepts
	var mux *http.ServeMux
	if *metrics != "" {
		mux = http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if a := serving.Load(); a != nil {
				fmt.Fprintf(w, "{\"status\":\"serving\",\"addr\":%q}\n", *a)
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"recovering"}`)
		})
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fail("metrics listen: %v", err)
		}
		go http.Serve(mln, mux)
		fmt.Fprintf(os.Stderr, "lpserve: metrics on http://%s/metrics\n", mln.Addr())
	}

	s, err := kvserve.New(cfg)
	if err != nil {
		fail("%v", err)
	}
	logRecovery(s, *path, "", *streams**keys)

	if *verify {
		if err := s.VerifyRecovered(); err != nil {
			fail("re-verification FAILED: %v", err)
		}
		if err := s.Close(); err != nil {
			fail("close: %v", err)
		}
		fmt.Fprintln(os.Stderr, "lpserve: image verified")
		return
	}
	if *dump {
		out := struct {
			Mode     string                 `json:"mode"`
			Path     string                 `json:"path"`
			Restored bool                   `json:"restored"`
			Keys     int                    `json:"keys"`
			Shards   []lpstore.RecoverStats `json:"shards,omitempty"`
		}{Mode: m.String(), Path: *path, Restored: s.Restored(),
			Keys: len(s.Contents()), Shards: s.RecoveryStats()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		s.Close()
		return
	}

	if mux != nil {
		mux.Handle("/metrics", obs.MetricsHandler(s.Metrics()))
		mux.Handle("/debug/trace", obs.TraceHandler(s.Tracer()))
		obs.RegisterPprof(mux)
	}

	if err := s.Start(); err != nil {
		fail("listen: %v", err)
	}
	dataAddr := s.Addr()
	serving.Store(&dataAddr)
	fmt.Fprintf(os.Stderr, "lpserve: %s serving %s on %s\n", m, *path, s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "lpserve: %s — draining\n", got)
	serving.Store(nil)
	if err := s.Close(); err != nil {
		fail("drain: %v", err)
	}
	b, _ := json.Marshal(s.Stats())
	fmt.Fprintf(os.Stderr, "lpserve: drained cleanly; stats %s\n", b)
}

// logRecovery prints the boot banner; nodeTag prefixes cluster members'
// lines so a merged 3-node log stays attributable.
func logRecovery(s *kvserve.Server, path, nodeTag string, preload int) {
	tag := ""
	if nodeTag != "" {
		tag = " node=" + nodeTag
	}
	if s.Restored() {
		fmt.Fprintf(os.Stderr, "lpserve:%s recovered existing image %s\n", tag, path)
		for _, st := range s.RecoveryStats() {
			b, _ := json.Marshal(st)
			fmt.Fprintf(os.Stderr, "lpserve:%s shard recovery %s\n", tag, b)
		}
	} else {
		fmt.Fprintf(os.Stderr, "lpserve:%s initialized fresh image %s (%d preloaded keys)\n",
			tag, path, preload)
	}
	// The boot's record, as the server's registry holds it.
	reg, kind := s.Metrics(), "fresh"
	if s.Restored() {
		kind = "restored"
	}
	took := reg.Scope("kind", kind).HistogramScaled("kvserve_boot_seconds", 1e-9).Snapshot().Sum
	fmt.Fprintf(os.Stderr, "lpserve:%s boot kind=%s boot_seconds=%.6f image_bytes=%d persisted_bytes=%d loaded_bytes=%d\n", tag, kind,
		float64(took)/1e9, reg.Gauge("kvserve_image_bytes").Load(), reg.Gauge("kvserve_boot_persisted_bytes").Load(),
		reg.Gauge("kvserve_boot_loaded_bytes").Load())
}

// runClusterNode boots the process as a cluster member and blocks
// until SIGTERM/SIGINT.
func runClusterNode(id, ctrlAddr string, cfg kvserve.Config, replWin int) {
	if cfg.Mode != lpstore.ModeLP {
		fail("cluster members must run -mode lp (the replication ack rule is the LP group commit)")
	}
	n, err := cluster.StartNode(cluster.NodeConfig{
		ID:       id,
		CtrlAddr: ctrlAddr,
		Server:   cfg,
		Repl:     cluster.ReplConfig{Window: replWin},
	})
	if err != nil {
		fail("%v", err)
	}
	logRecovery(n.Server(), cfg.Path, id, cfg.Streams*cfg.Keys)
	fmt.Fprintf(os.Stderr, "lpserve: node=%s serving %s on %s (ctrl http://%s)\n",
		id, cfg.Path, n.Server().Addr(), n.CtrlAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "lpserve: node=%s %s — draining\n", id, got)
	if err := n.Close(); err != nil {
		fail("drain: %v", err)
	}
	b, _ := json.Marshal(n.Server().Stats())
	fmt.Fprintf(os.Stderr, "lpserve: node=%s drained cleanly; stats %s\n", id, b)
}
