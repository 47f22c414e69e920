package loadmodel

import (
	"bytes"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// startKVCfg boots an in-process LP server on a fresh image; zero
// fields of cfg take the shared test geometry.
func startKVCfg(t *testing.T, cfg kvserve.Config) *kvserve.Server {
	t.Helper()
	cfg.Path = filepath.Join(t.TempDir(), "kv.img")
	cfg.Mode = lpstore.ModeLP
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Capacity == 0 {
		cfg.Capacity, cfg.MaxOps = 1<<14, 1<<16
	}
	if cfg.BatchK == 0 {
		cfg.BatchK = 32
	}
	if cfg.Mailbox == 0 {
		cfg.Mailbox = 256
	}
	if cfg.BatchWait == 0 {
		cfg.BatchWait = 500 * time.Microsecond
	}
	s, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("kvserve.New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("kvserve.Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func startKV(t *testing.T, spec *Spec) *kvserve.Server {
	t.Helper()
	return startKVCfg(t, kvserve.Config{Streams: spec.Streams, Keys: spec.Keys, Seed: spec.PreloadSeed})
}

// TestRunReplay drives a small generated stream on its schedule
// against an in-process kvserve and checks full settlement: every op
// accounted, zero rejects at this load, per-class counts matching the
// stream.
func TestRunReplay(t *testing.T) {
	spec := mustBuiltin(t, "steady", 0.1, "600ms")
	ops := mustGen(t, spec)
	srv := startKV(t, spec)

	rep, err := Run(srv.Addr(), TraceOf(spec, ops), Options{Conns: 2, Window: 512})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Partial {
		t.Fatal("run reported partial")
	}
	if rep.Total.Ops != len(ops) || rep.Ops != uint64(len(ops)) {
		t.Fatalf("issued %d, settled %d, want %d", rep.Total.Ops, rep.Ops, len(ops))
	}
	rej := rep.Total.Overloads + rep.Total.Expired + rep.Total.Full
	if rej != 0 || rep.Moved != 0 || rep.Errors != 0 || rep.Retries != 0 {
		t.Fatalf("unexpected rejects/errors: ov/exp/full=%d moved=%d errs=%d retries=%d",
			rej, rep.Moved, rep.Errors, rep.Retries)
	}
	// Reads target preloaded keys and updates overwrite them; inserts
	// are new keys. Nothing should miss.
	if rep.NotFound != 0 {
		t.Fatalf("%d NotFound on a preload-matched spec", rep.NotFound)
	}
	want := ClassOps(ops, len(spec.Classes))
	for i, cp := range rep.Classes {
		if cp.Ops != want[i] {
			t.Fatalf("class %s: %d ops, want %d", cp.Name, cp.Ops, want[i])
		}
		if cp.P50us <= 0 || cp.P99us < cp.P50us {
			t.Fatalf("class %s: bad latency shape p50=%.1f p99=%.1f", cp.Name, cp.P50us, cp.P99us)
		}
	}
}

// TestRunRejectCounting overdrives a deliberately tiny server and
// checks rejects are counted per cause instead of erroring the run.
func TestRunRejectCounting(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "slam",
  "duration": "400ms",
  "streams": 2,
  "keys": 128,
  "classes": [
    {"name": "w", "clients": 8, "rate_ops": 120000, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	s := startKVCfg(t, kvserve.Config{
		Shards: 1, Capacity: 1 << 12, MaxOps: 1 << 14, BatchK: 16,
		Streams: spec.Streams, Keys: spec.Keys, Seed: spec.PreloadSeed,
		Mailbox: 8, BatchWait: 2 * time.Millisecond, Fsync: true,
	})

	rep, err := Run(s.Addr(), TraceOf(spec, ops), Options{Conns: 4, Window: 64})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Total.Overloads == 0 {
		t.Fatalf("no overloads against a mailbox-8 single shard: %+v", rep.Total)
	}
	if rep.Total.Ops != len(ops) || rep.Ops != uint64(len(ops)) {
		t.Fatalf("accounting leak: issued %d, settled %d of %d", rep.Total.Ops, rep.Ops, len(ops))
	}
	if rep.Total.RejectRate <= 0 {
		t.Fatal("reject rate not computed")
	}
}

// TestRunTracePropagation: a trace replay must negotiate the trace
// extension and thread client-minted trace IDs through to the server,
// so a spec-driven run (the lpplan validation workload) feeds lptrace
// the same timelines a mix run does — client_send and client_ack from
// the engine's tracer joining stage events from the server's, on the
// same IDs.
func TestRunTracePropagation(t *testing.T) {
	spec := mustBuiltin(t, "steady", 0.1, "400ms")
	ops := mustGen(t, spec)
	srv := startKV(t, spec)
	srv.Tracer().Enable(true)

	clientTr := obs.NewTracer(1 << 14)
	clientTr.Enable(true)
	rep, err := Run(srv.Addr(), TraceOf(spec, ops), Options{
		Conns: 2, Window: 512, Tracer: clientTr, TraceEvery: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Partial || rep.Errors > 0 {
		t.Fatalf("run degraded: partial=%v errors=%d", rep.Partial, rep.Errors)
	}

	timelines := obs.AssembleTimelines(map[string][]obs.Event{
		"client": clientTr.Drain(0),
		"n0":     srv.Tracer().Drain(0),
	})
	full := 0
	for i := range timelines {
		tl := &timelines[i]
		if tl.Has(obs.EvClientSend) && tl.Has(obs.EvClientAck) &&
			tl.Has(obs.EvStageEnq) && tl.Has(obs.EvStageReply) {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no replay timeline joined client and server spans (%d timelines)", len(timelines))
	}
	t.Logf("%d/%d replay timelines carry client + server stage spans", full, len(timelines))
}

// TestLoadRefreshOnDialFailure: a smart client whose routed target
// cannot even be dialed must re-resolve the topology (Refresh) before
// the op reissues — otherwise every retry re-dials the dead address
// and the op dies by MaxRetries while a promoted primary is serving.
func TestLoadRefreshOnDialFailure(t *testing.T) {
	s := startKVCfg(t, kvserve.Config{Streams: 2, Keys: 128})

	// A dead address: bind, note the port, close. Dials are refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	// The route pins every key to the dead address until Refresh fires,
	// then falls back to the live server — the shape of a failover the
	// client only learns about by re-fetching the routing table.
	var refreshed atomic.Bool
	rep, err := Run(s.Addr(), MixLoad{Ops: 40, Streams: 2, Keys: 128}, Options{
		Conns: 1, Window: 4,
		Reconnect: true, MaxRetries: 50,
		Route: func(uint64) string {
			if refreshed.Load() {
				return ""
			}
			return deadAddr
		},
		Refresh: func() { refreshed.Store(true) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !refreshed.Load() {
		t.Fatal("dial failure did not trigger a topology refresh")
	}
	if rep.Errors != 0 || rep.Ops != 40 {
		t.Fatalf("load: %d errors, %d settled, want 0/40 (retries %d)",
			rep.Errors, rep.Ops, rep.Retries)
	}
}

// TestOneRuleBothPacings: the closed loop and the degraded open loop
// are the same code. One recorded op list runs twice — every op due at
// t=0 under a wide window, then on its schedule under window 1 — and
// both runs must settle every op exactly once and leave the same
// server contents; the second, whose schedule outruns a one-slot
// window, must report stalls.
func TestOneRuleBothPacings(t *testing.T) {
	// Each client writes only its own keys, so per-key write order is
	// the client's op order whichever connection interleaving occurs.
	const clients, perClient = 4, 150
	var ops []Op
	for i := 0; i < perClient; i++ {
		for c := 0; c < clients; c++ {
			key := workloads.KVKey(2+c, i%16)
			op := Op{At: int64(len(ops)) * 20_000, Client: int32(c), Key: key}
			if i%3 != 2 {
				op.IsPut, op.Val = true, uint64(1000*c+i+1)
			}
			ops = append(ops, op)
		}
	}
	run := func(window int, atZero bool) (*Report, map[uint64]uint64) {
		tr := &Trace{Header: TraceHeader{Name: "pacing"}, Ops: append([]Op(nil), ops...)}
		if atZero {
			for i := range tr.Ops {
				tr.Ops[i].At = 0
			}
		}
		s := startKVCfg(t, kvserve.Config{Streams: 2, Keys: 128})
		var mu sync.Mutex
		acks := map[[2]uint64]int{}
		rep, err := Run(s.Addr(), tr, Options{Conns: 2, Window: window,
			OnAck: func(_ int, k, v uint64) { mu.Lock(); acks[[2]uint64{k, v}]++; mu.Unlock() },
		})
		if err != nil {
			t.Fatalf("Run(window %d): %v", window, err)
		}
		if rep.Ops != uint64(len(ops)) || rep.Total.Ops != len(ops) || rep.Errors != 0 || rep.Partial {
			t.Fatalf("window %d: settled %d, issued %d of %d, %d errors, partial=%v",
				window, rep.Ops, rep.Total.Ops, len(ops), rep.Errors, rep.Partial)
		}
		if want := uint64(CountPuts(ops)); rep.AckedPuts != want || uint64(len(acks)) != want {
			t.Fatalf("window %d: %d puts acked (%d distinct), want %d", window, rep.AckedPuts, len(acks), want)
		}
		for kv, n := range acks {
			if n != 1 {
				t.Fatalf("window %d: put %#x=%d acked %d times", window, kv[0], kv[1], n)
			}
		}
		contents := s.Contents() // every op is answered; Close unmaps the image
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return rep, contents
	}
	closed, wantContents := run(32, true)
	open, gotContents := run(1, false)
	if !reflect.DeepEqual(gotContents, wantContents) {
		t.Fatalf("final contents differ between pacings: %d vs %d keys", len(gotContents), len(wantContents))
	}
	if open.Stalls == 0 {
		t.Fatal("a 20µs schedule through a one-slot window reported no stalls")
	}
	t.Logf("window 32 at t=0: %d stalls; window 1 on schedule: %d stalls, lag-max %.0fµs",
		closed.Stalls, open.Stalls, open.LagMaxUs)
}

// TestMaxRetriesZeroIsFinal: with MaxRetries 0 a StatusOverload answer
// is the op's final outcome — counted, never re-sent; with retries on
// the same server the engine re-sends.
func TestMaxRetriesZeroIsFinal(t *testing.T) {
	for _, maxRetries := range []int{0, 8} {
		s := startKVCfg(t, kvserve.Config{
			Shards: 1, BatchK: 16, Streams: 2, Keys: 128,
			Mailbox: 1, BatchWait: 2 * time.Millisecond, Fsync: true,
		})
		rep, err := Run(s.Addr(), MixLoad{InsertOnly: true, Ops: 400, Streams: 2, Keys: 128},
			Options{Conns: 2, Window: 64, MaxRetries: maxRetries})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.Ops != 800 || rep.Errors != 0 {
			t.Fatalf("MaxRetries %d: settled %d of 800, %d errors", maxRetries, rep.Ops, rep.Errors)
		}
		if rep.Total.Overloads == 0 {
			t.Fatalf("MaxRetries %d: no overloads against a one-slot mailbox: %+v", maxRetries, rep.Total)
		}
		if maxRetries == 0 {
			if rep.Retries != 0 || rep.AckedPuts+rep.Total.Overloads != 800 {
				t.Fatalf("MaxRetries 0: %d retries, %d acked + %d overloads != 800",
					rep.Retries, rep.AckedPuts, rep.Total.Overloads)
			}
		} else if rep.Retries == 0 {
			t.Fatalf("MaxRetries 8: %d overloads but no retries", rep.Total.Overloads)
		}
	}
}

// TestProgressReporterJoined: Run must not return while its reporter
// can still write — the caller owns Progress again the moment it does.
// The unsynchronized buffer makes a straggling write a race report.
func TestProgressReporterJoined(t *testing.T) {
	s := startKVCfg(t, kvserve.Config{Streams: 2, Keys: 128})
	var buf bytes.Buffer
	_, err := Run(s.Addr(), MixLoad{Dur: 60 * time.Millisecond, Streams: 2, Keys: 128},
		Options{Interval: time.Millisecond, Progress: &buf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("ops/s")) {
		t.Fatalf("no progress line in %d ms of 1ms ticks: %q", 60, buf.String())
	}
	buf.Reset()
}
