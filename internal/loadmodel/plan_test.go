package loadmodel

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// TestPlanDeterministic: the prediction is a pure function of
// (ops, cfg) — run it twice, byte-equal reports.
func TestPlanDeterministic(t *testing.T) {
	spec := mustBuiltin(t, "bursty", 0.2, "800ms")
	ops := mustGen(t, spec)
	a := Plan(spec, ops, PlanConfig{})
	b := Plan(spec, ops, PlanConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans of the same stream differ")
	}
	if a.Total.Ops != len(ops) {
		t.Fatalf("total ops %d, want %d", a.Total.Ops, len(ops))
	}
}

// TestPlanLowLoadLatency: an underloaded pure-get class should settle
// near NetRTT+GetSvc, and low-load puts should be dominated by the
// BatchWait seal deadline.
func TestPlanLowLoadLatency(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "low",
  "duration": "1s",
  "classes": [
    {"name": "g", "clients": 2, "rate_ops": 2000, "mix": {"name": "c"}},
    {"name": "p", "clients": 2, "rate_ops": 500, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	cal := DefaultCalibration()
	cfg := PlanConfig{BatchWaitNs: int64(500 * time.Microsecond), Cal: cal}
	rep := Plan(spec, ops, cfg)

	floor := (cal.NetRTTNs + cal.GetSvcNs) / 1e3
	gp := rep.Classes[0]
	if gp.P50us < 0.8*floor || gp.P50us > 3*floor {
		t.Fatalf("get p50 %.1fµs, want near floor %.1fµs", gp.P50us, floor)
	}
	if gp.RejectRate != 0 {
		t.Fatalf("underloaded get class rejected %.3f", gp.RejectRate)
	}

	// A trickle of puts (500/s over 4 shards) rarely fills BatchK=32
	// before the 500µs deadline: put p50 must carry most of BatchWait.
	pp := rep.Classes[1]
	waitUs := float64(cfg.BatchWaitNs) / 1e3
	if pp.PutP99us < 0.5*waitUs {
		t.Fatalf("put p99 %.1fµs, want >= half of BatchWait %.1fµs", pp.PutP99us, waitUs)
	}
	if pp.P50us <= gp.P50us {
		t.Fatalf("put class p50 %.1fµs not above get class p50 %.1fµs", pp.P50us, gp.P50us)
	}

	if rep.GetUtil <= 0 || rep.GetUtil > 0.5 || rep.PutUtil <= 0 || rep.PutUtil > 0.5 {
		t.Fatalf("utilization out of band: get %.3f put %.3f", rep.GetUtil, rep.PutUtil)
	}
}

// TestPlanOverload: offered put load far beyond capacity with a tiny
// mailbox must shed via Overload, and the served rate must flatten at
// roughly the modeled capacity, not the offered rate.
func TestPlanOverload(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "over",
  "duration": "500ms",
  "classes": [
    {"name": "w", "clients": 8, "rate_ops": 600000, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	cfg := PlanConfig{Shards: 2, Mailbox: 16}
	rep := Plan(spec, ops, cfg)
	if rep.Total.Overloads == 0 {
		t.Fatal("no overloads under 5x-capacity put load")
	}
	if rep.Total.RejectRate < 0.2 {
		t.Fatalf("reject rate %.3f, want substantial shed", rep.Total.RejectRate)
	}
	cap := float64(2) / rep.Cfg.Cal.PutSvcNs * 1e9
	if rep.Total.OKOpsS > 1.3*cap {
		t.Fatalf("served %.0f ops/s exceeds modeled capacity %.0f", rep.Total.OKOpsS, cap)
	}
	if rep.PutUtil < 1 {
		t.Fatalf("put util %.2f, want >= 1 under overload", rep.PutUtil)
	}
}

// TestPlanExpired: a dequeue deadline shorter than the queueing delay
// under pressure must surface Expired rejections.
func TestPlanExpired(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "exp",
  "duration": "500ms",
  "classes": [
    {"name": "w", "clients": 8, "rate_ops": 400000, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	cfg := PlanConfig{Shards: 2, Mailbox: 4096, MaxDelayNs: int64(200 * time.Microsecond)}
	rep := Plan(spec, ops, cfg)
	if rep.Total.Expired == 0 {
		t.Fatal("no expiries with a 200µs dequeue deadline under overload")
	}
}

// TestPlanFull: a small per-shard journal budget must convert the tail
// of a long run into Full rejections.
func TestPlanFull(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "full",
  "duration": "500ms",
  "classes": [
    {"name": "w", "clients": 4, "rate_ops": 40000, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	cfg := PlanConfig{Shards: 4, MaxOpsPerShard: 512}
	rep := Plan(spec, ops, cfg)
	if rep.Total.Full == 0 {
		t.Fatalf("no Full rejections with a 512-op journal budget against %d puts", CountPuts(ops))
	}
}

// TestPlanSealLagShiftsPutTail: a calibrated seal-timer lag must push
// the timer-sealed put tail up by roughly the lag, and leave pure-get
// latency alone.
func TestPlanSealLagShiftsPutTail(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "lag",
  "duration": "1s",
  "classes": [
    {"name": "g", "clients": 2, "rate_ops": 2000, "mix": {"name": "c"}},
    {"name": "p", "clients": 2, "rate_ops": 500, "mix": {"read_pct": 0, "update_pct": 100, "insert_pct": 0}}
  ]
}`)
	ops := mustGen(t, spec)
	base := Plan(spec, ops, PlanConfig{})
	lagged := DefaultCalibration()
	lagged.SealLagNs = 800_000
	shifted := Plan(spec, ops, PlanConfig{Cal: lagged})

	dUs := shifted.Classes[1].PutP99us - base.Classes[1].PutP99us
	if dUs < 400 {
		t.Fatalf("put p99 moved %.0fµs under an 800µs seal lag, want a substantial shift", dUs)
	}
	if shifted.Classes[0].P50us != base.Classes[0].P50us {
		t.Fatalf("get p50 moved under seal lag: %.1fµs vs %.1fµs",
			shifted.Classes[0].P50us, base.Classes[0].P50us)
	}
}

// TestPlanReplicatedSlower: turning on the replication hop must not
// make predicted put latency better.
func TestPlanReplicatedSlower(t *testing.T) {
	spec := mustSpec(t, `{
  "name": "repl",
  "duration": "500ms",
  "classes": [
    {"name": "w", "clients": 2, "rate_ops": 5000, "mix": {"name": "a"}}
  ]
}`)
	ops := mustGen(t, spec)
	plain := Plan(spec, ops, PlanConfig{})
	repl := Plan(spec, ops, PlanConfig{Replicated: true})
	if repl.Total.PutP99us < plain.Total.PutP99us {
		t.Fatalf("replicated put p99 %.1fµs < plain %.1fµs", repl.Total.PutP99us, plain.Total.PutP99us)
	}
	// The stage plan holds the stages whose mean the model predicts:
	// flush, and repl only when there is a replication hop.
	for _, c := range []struct {
		rep  *PlanReport
		want []obs.Stage
	}{{plain, []obs.Stage{obs.StageFlush}}, {repl, []obs.Stage{obs.StageFlush, obs.StageRepl}}} {
		st := c.rep.Stages
		planned := 0
		for _, us := range st {
			if us != 0 {
				planned++
			}
		}
		if planned != len(c.want) {
			t.Fatalf("replicated=%v: stage plan %v, want %v", c.rep.Cfg.Replicated, st, c.want)
		}
		for _, s := range c.want {
			if st[s] <= 0 {
				t.Fatalf("replicated=%v: %s planned at %.1fµs", c.rep.Cfg.Replicated, s, st[s])
			}
		}
	}
}

// TestCalibrateFromStages: each constant is read off the delta of the
// server's series between two scrapes — samples from before the run do
// not count — and a series the run left empty keeps its default.
func TestCalibrateFromStages(t *testing.T) {
	const batchWait = 2 * time.Millisecond
	reg := obs.NewRegistry()
	stage := func(st obs.Stage) *obs.Histogram {
		return reg.Scope("stage", st.String()).HistogramScaled(kvserve.MetricStage, 1e-9)
	}
	flush, fill, repl := stage(obs.StageFlush), stage(obs.StageFill), stage(obs.StageRepl)
	get := reg.Scope().HistogramScaled(kvserve.MetricGetLatency, 1e-9)
	apply := reg.Scope().HistogramScaled(kvserve.MetricApply, 1e-9)
	put0 := reg.Scope("shard", "0").HistogramScaled(kvserve.MetricPutLatency, 1e-9)
	put1 := reg.Scope("shard", "1").HistogramScaled(kvserve.MetricPutLatency, 1e-9)
	geo := PlanConfig{Shards: 2, BatchWaitNs: int64(batchWait)}
	scrape := func() obs.Scrape {
		var b strings.Builder
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := obs.ReadProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// Before the run: samples far off every constant.
	for _, h := range []*obs.Histogram{flush, fill, get, apply, put0, put1} {
		h.ObserveN(50_000_000, 10)
	}
	before := scrape()

	// Batches that fill by count seal well inside BatchWait.
	flush.ObserveN(6_000, 100)
	fill.ObserveN(300_000, 100)
	get.ObserveN(3_000, 1000)
	apply.ObserveN(2_000, 3200)
	put0.ObserveN(500_000, 300)
	put1.ObserveN(500_000, 100)
	// The server's mean over the run's 1400 ops is 145 µs.
	run := &Report{Total: ClassPlan{MeanUs: 220}}
	cal := Calibrate(before, scrape(), run, geo)
	def := DefaultCalibration()
	near := func(name string, got, want float64) {
		t.Helper()
		if got < want*0.999 || got > want*1.13 { // a quantile is its bucket's upper edge
			t.Errorf("%s = %.0f ns, want %.0f", name, got, want)
		}
	}
	near("FlushNs", cal.FlushNs, 6_000)
	near("GetSvcNs", cal.GetSvcNs, 3_000)
	near("PutSvcNs", cal.PutSvcNs, 2_000)
	near("NetRTTNs", cal.NetRTTNs, 220_000-145_000)
	if cal.SealLagNs != 0 {
		t.Errorf("SealLagNs = %.0f with every batch filled by count, want 0", cal.SealLagNs)
	}
	if cal.ReplHopNs != def.ReplHopNs || cal.FsyncNs != def.FsyncNs {
		t.Errorf("repl hop %.0f, fsync %.0f: want the defaults with no repl samples", cal.ReplHopNs, cal.FsyncNs)
	}

	// A second run: timer seals whose tail overshoots BatchWait by
	// 0.5 ms, and replication.
	before = scrape()
	fill.ObserveN(uint64(batchWait)+500_000, 100)
	repl.ObserveN(400_000, 50)
	cal = Calibrate(before, scrape(), run, geo)
	near("SealLagNs", cal.SealLagNs+float64(batchWait), float64(batchWait)+500_000)
	if cal.SealLagNs <= 0 {
		t.Errorf("SealLagNs = %.0f, want the fill tail's overshoot", cal.SealLagNs)
	}
	near("ReplHopNs", cal.ReplHopNs, 400_000)
	if cal.FlushNs != def.FlushNs || cal.PutSvcNs != def.PutSvcNs || cal.NetRTTNs != def.NetRTTNs {
		t.Errorf("flush %.0f, put %.0f, rtt %.0f: want the defaults with no samples in the run",
			cal.FlushNs, cal.PutSvcNs, cal.NetRTTNs)
	}
}
