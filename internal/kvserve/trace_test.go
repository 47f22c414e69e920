package kvserve

import (
	"strings"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// promLine returns the first sample line of the scrape that starts
// with prefix (skipping # comments), or "".
func promLine(scrape, prefix string) string {
	for _, ln := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}

// TestTracedPutSpans pins the single-node span pipeline: a client that
// negotiated FeatTrace sends a put behind an OpTraceCtx prefix, and
// the server's tracer must hold the full stage ladder for that trace
// ID — enq, deq, seal, flush, reply — while the per-stage histograms
// accumulate observations for the scrape.
func TestTracedPutSpans(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.TraceSlow = time.Nanosecond // every acked put is "slow": EvSlowPut must fire too
	s := startServer(t, cfg)
	defer s.Close()
	s.Tracer().Enable(true)

	cl := dial(t, s.Addr())
	granted, err := cl.Hello(FeatTrace)
	if err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if granted&FeatTrace == 0 {
		t.Fatalf("Hello granted %#x, want FeatTrace", granted)
	}

	const tid = 0xBEEF0001
	key := uint64(0x1234)
	if st, err := cl.PutTraced(tid, key, 77); err != nil || st != StatusOK {
		t.Fatalf("PutTraced = %s, %v", StatusName(st), err)
	}
	if v, st, _ := cl.Get(key); st != StatusOK || v != 77 {
		t.Fatalf("Get after traced put = %#x,%s", v, StatusName(st))
	}

	seen := map[obs.EventType]int{}
	var slowPuts int
	for _, ev := range s.Tracer().Drain(0) {
		if obs.IsSpanEvent(ev.Type) && ev.A == tid {
			seen[ev.Type]++
		}
		if ev.Type == obs.EvSlowPut {
			slowPuts++
		}
	}
	for _, want := range []obs.EventType{
		obs.EvStageEnq, obs.EvStageDeq, obs.EvStageSeal,
		obs.EvStageFlush, obs.EvStageReply,
	} {
		if seen[want] == 0 {
			t.Errorf("trace %#x missing a %s event (saw %v)", tid, want, seen)
		}
	}
	if slowPuts == 0 {
		t.Error("TraceSlow=1ns recorded no slow_put events")
	}

	var sb strings.Builder
	if err := s.Metrics().WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	scrape := sb.String()
	for _, stage := range []string{"queue", "fill", "flush"} {
		ln := promLine(scrape, `kvserve_stage_seconds_count{stage="`+stage+`"}`)
		if ln == "" || strings.HasSuffix(ln, " 0") {
			t.Errorf("stage histogram %q empty or missing: %q", stage, ln)
		}
	}
}

// TestTraceSampleMintsServerSide pins the tail-sampling fallback: with
// TraceSample=1 every untraced client put gets a server-minted trace
// ID in the connection reader, so plain clients (no Hello, no
// OpTraceCtx) still produce full server-side spans.
func TestTraceSampleMintsServerSide(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.TraceSample = 1
	s := startServer(t, cfg)
	defer s.Close()
	s.Tracer().Enable(true)

	cl := dial(t, s.Addr())
	if st, err := cl.Put(0x7777, 1); err != nil || st != StatusOK {
		t.Fatalf("Put = %s, %v", StatusName(st), err)
	}

	var tid uint64
	evs := s.Tracer().Drain(0)
	for _, ev := range evs {
		if ev.Type == obs.EvStageEnq && ev.B == 0x7777 {
			tid = ev.A
		}
	}
	if tid == 0 {
		t.Fatalf("sampled put minted no trace ID (events: %d)", len(evs))
	}
	var replied bool
	for _, ev := range evs {
		if ev.Type == obs.EvStageReply && ev.A == tid {
			replied = true
		}
	}
	if !replied {
		t.Errorf("server-minted trace %#x never reached stage_reply", tid)
	}
}
