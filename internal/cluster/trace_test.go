package cluster

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"lazyp/internal/loadmodel"
	"lazyp/internal/obs"
)

// TestClusterTracePropagation is the end-to-end span regression: a
// trace ID minted at the load engine must survive the router's
// zero-copy proxy (OpTraceCtx routed with its successor frame), the
// primary's pipeline, and the OpReplBatch trace-entry extension into
// the follower's apply path. The drains then make the same JSONL
// round trip lptrace does — WriteJSONL → ReadJSONL →
// AssembleTimelines — and at least one put must assemble into a
// cross-node timeline carrying a replication-ack stage.
func TestClusterTracePropagation(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"n0", "n1", "n2"}
	nodes := map[string]*Node{}
	for _, id := range ids {
		nodes[id] = startTestNode(t, id, filepath.Join(dir, id+".img"))
		defer nodes[id].Close()
		nodes[id].Server().Tracer().Enable(true)
	}
	routerTr := obs.NewTracer(1 << 14)
	routerTr.Enable(true)
	r, err := StartRouter(RouterConfig{
		Nodes:     nodeInfos(nodes),
		Heartbeat: 20 * time.Millisecond,
		Tracer:    routerTr,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()

	clientTr := obs.NewTracer(1 << 14)
	clientTr.Enable(true)
	cfg := testNodeCfg("")
	rep, err := loadmodel.Run(r.Addr(), insertLoad(cfg, 600, 0), loadmodel.Options{
		Conns: 2, Window: 16, MaxRetries: 8,
		TraceEvery: 4, Tracer: clientTr,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.AckedPuts == 0 {
		t.Fatal("no puts acked through the router")
	}

	// Round-trip every drain through the JSONL encoding — the exact
	// path a real deployment takes through /debug/trace and lptrace.
	drains := map[string][]obs.Event{}
	roundTrip := func(name string, tr *obs.Tracer) {
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, tr.Drain(0)); err != nil {
			t.Fatalf("WriteJSONL(%s): %v", name, err)
		}
		evs, err := obs.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("ReadJSONL(%s): %v", name, err)
		}
		drains[name] = evs
	}
	roundTrip("client", clientTr)
	roundTrip("router", routerTr)
	for id, n := range nodes {
		roundTrip(id, n.Server().Tracer())
	}

	timelines := obs.AssembleTimelines(drains)
	if len(timelines) == 0 {
		t.Fatal("no timelines assembled from any drain")
	}

	// The full ladder for one replicated put: the client saw it leave
	// and come back, the router routed it, the primary enqueued,
	// flushed, and resolved the replication wait, the forward hit the
	// wire and was acked, and the follower (a second node drain)
	// enqueued the replicated apply.
	full := 0
	for i := range timelines {
		tl := &timelines[i]
		nodeDrains := 0
		for _, n := range tl.Nodes() {
			if n != "client" && n != "router" {
				nodeDrains++
			}
		}
		if tl.Has(obs.EvClientSend) && tl.Has(obs.EvClientAck) &&
			tl.Has(obs.EvRouterRoute) &&
			tl.Has(obs.EvStageEnq) && tl.Has(obs.EvStageFlush) &&
			tl.Has(obs.EvStageReplAck) && tl.Has(obs.EvStageFwdAck) &&
			nodeDrains >= 2 {
			full++
			// Stage extraction must work on the shared host clock.
			if _, ok := tl.Stage(obs.EvStageEnq, obs.EvStageFlush); !ok {
				t.Errorf("trace %d: enq→flush stage not extractable", tl.Trace)
			}
		}
	}
	if full == 0 {
		for i := range timelines[:min(len(timelines), 5)] {
			tl := &timelines[i]
			t.Logf("trace %d nodes=%v events=%d", tl.Trace, tl.Nodes(), len(tl.Events))
		}
		t.Fatalf("no fully-assembled cross-node put timeline among %d traces", len(timelines))
	}
	t.Logf("%d/%d timelines fully assembled across client, router, primary, follower", full, len(timelines))
}
