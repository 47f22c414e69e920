package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// testNodeCfg is the geometry every in-process cluster test node runs;
// small enough that three of them boot in milliseconds.
func testNodeCfg(path string) kvserve.Config {
	return kvserve.Config{
		Addr: "127.0.0.1:0",
		Path: path,
		Mode: lpstore.ModeLP,
		// Capacity needs headroom for a multi-second insert flood: a
		// follower past its admission high-water rejects forwards with
		// Full, which surfaces as client backpressure (no ack, retry)
		// — correct, but it stalls the acked-count choreography the
		// failover test is built on, so keep admission unsaturated.
		Shards:        2,
		Capacity:      1 << 14,
		MaxOps:        1 << 16,
		BatchK:        16,
		Streams:       2,
		Keys:          128,
		Seed:          11,
		Mailbox:       128,
		BatchWait:     300 * time.Microsecond,
		PipelineDepth: 2,
	}
}

// insertLoad is the unique-key insert source the cluster tests drive:
// ops per connection, or dur when ops is 0.
func insertLoad(cfg kvserve.Config, ops int, dur time.Duration) loadmodel.MixLoad {
	return loadmodel.MixLoad{InsertOnly: true, Ops: ops, Dur: dur,
		Streams: cfg.Streams, Keys: cfg.Keys, Seed: cfg.Seed}
}

func startTestNode(t *testing.T, id, path string) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{
		ID:     id,
		Server: testNodeCfg(path),
		Repl:   ReplConfig{Window: 512},
	})
	if err != nil {
		t.Fatalf("start node %s: %v", id, err)
	}
	return n
}

func nodeInfos(nodes map[string]*Node) []NodeInfo {
	var out []NodeInfo
	for id, n := range nodes {
		out = append(out, NodeInfo{
			ID:   id,
			Addr: n.Server().Addr(),
			Ctrl: "http://" + n.CtrlAddr(),
		})
	}
	return out
}

// routerStatus fetches /cluster/status and returns state by node id.
func routerStatus(t *testing.T, r *Router) map[string]string {
	t.Helper()
	resp, err := http.Get("http://" + r.CtrlAddr() + "/cluster/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Nodes []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	m := map[string]string{}
	for _, n := range out.Nodes {
		m[n.ID] = n.State
	}
	return m
}

func waitState(t *testing.T, r *Router, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if routerStatus(t, r)[id] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached state %s (now %s)", id, want, routerStatus(t, r)[id])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pairContents shuts every node down gracefully, reopens the images
// in-process, and returns per-id contents maps for the pair-equality
// checks.
func reopenContents(t *testing.T, paths map[string]string) map[string]map[uint64]uint64 {
	t.Helper()
	out := map[string]map[uint64]uint64{}
	for id, p := range paths {
		s, err := kvserve.New(testNodeCfg(p))
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
		if !s.Restored() {
			t.Fatalf("reopen %s: image not detected", id)
		}
		if err := s.VerifyRecovered(); err != nil {
			t.Fatalf("reopen %s: verify: %v", id, err)
		}
		out[id] = s.Contents()
		s.Close()
	}
	return out
}

// assertPairDurability checks the cluster-wide contract over reopened
// images: every acked put present with its value on BOTH members of
// its slot's pair, and nothing beyond preload+sent anywhere.
func assertPairDurability(t *testing.T, ids []string, contents map[string]map[uint64]uint64,
	acked, sent map[uint64]uint64) {
	t.Helper()
	pairs, err := BuildPairs(ids, DefaultVNodes, DefaultLoadFactor)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for k, v := range acked {
		p := pairs[SlotOf(k)]
		for _, m := range []int{p[0], p[1]} {
			if m < 0 {
				continue
			}
			got, ok := contents[ids[m]][k]
			if !ok {
				where := ""
				for id, c := range contents {
					if _, on := c[k]; on {
						where += " " + id
					}
				}
				t.Errorf("acked key %#x (slot %d, pair %s/%s) missing on %s; present on:%s",
					k, SlotOf(k), ids[p[0]], ids[p[1]], ids[m], where)
				if bad++; bad >= 8 {
					t.FailNow()
				}
			} else if got != v {
				t.Fatalf("acked key %#x = %#x on %s, want %#x", k, got, ids[m], v)
			}
		}
	}
	if bad > 0 {
		t.FailNow()
	}
	cfg := testNodeCfg("")
	preload := map[uint64]uint64{}
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			preload[k] = workloads.KVInitVal(cfg.Seed, k)
		}
	}
	for id, c := range contents {
		for k, v := range c {
			if pv, ok := preload[k]; ok {
				if v != pv {
					t.Fatalf("node %s: preloaded key %#x corrupted", id, k)
				}
				continue
			}
			sv, ok := sent[k]
			if !ok {
				t.Fatalf("node %s: ghost key %#x survived", id, k)
			}
			if v != sv {
				t.Fatalf("node %s: key %#x holds %#x, sent %#x", id, k, v, sv)
			}
		}
	}
}

// TestClusterReplicatedLoad boots two in-process nodes behind a router,
// drives insert-only load through the proxy, and asserts the
// cluster-wide ack rule the hard way: after a graceful drain, every
// acked put must be present on both members of its slot pair.
func TestClusterReplicatedLoad(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"n0", "n1"}
	nodes := map[string]*Node{}
	paths := map[string]string{}
	for _, id := range ids {
		paths[id] = filepath.Join(dir, id+".img")
		nodes[id] = startTestNode(t, id, paths[id])
	}
	r, err := StartRouter(RouterConfig{
		Nodes:     nodeInfos(nodes),
		Heartbeat: 20 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()

	cfg := testNodeCfg("")
	var mu sync.Mutex
	sent := map[uint64]uint64{}
	acked := map[uint64]uint64{}
	rep, err := loadmodel.Run(r.Addr(), insertLoad(cfg, 1500, 0), loadmodel.Options{
		Conns: 2, Window: 16, MaxRetries: 8,
		OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
		OnAck:  func(_ int, k, v uint64) { mu.Lock(); acked[k] = v; mu.Unlock() },
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.AckedPuts == 0 {
		t.Fatal("no puts acked through the router")
	}
	// Reads must route too: spot-check a handful of acked keys live.
	cl, err := kvserve.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	mu.Lock()
	for k, v := range acked {
		got, st, err := cl.Get(k)
		if err != nil || st != kvserve.StatusOK || got != v {
			mu.Unlock()
			t.Fatalf("get %#x via router: %#x st=%d err=%v, want %#x", k, got, st, err, v)
		}
		if checked++; checked >= 32 {
			break
		}
	}
	mu.Unlock()
	cl.Close()

	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	contents := reopenContents(t, paths)
	mu.Lock()
	defer mu.Unlock()
	assertPairDurability(t, ids, contents, acked, sent)
	t.Logf("acked %d puts over 2 nodes; pair equality holds", len(acked))
}

// TestClusterFailoverRejoin is the in-process failover drill: kill a
// node's listeners mid-load (Abort — no drain, open batch lost), watch
// the router promote its pair peers and the load keep acking, restart
// the node on the same image and control port, and require the rejoin
// to converge with the pair contract intact.
func TestClusterFailoverRejoin(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"n0", "n1", "n2"}
	nodes := map[string]*Node{}
	paths := map[string]string{}
	for _, id := range ids {
		paths[id] = filepath.Join(dir, id+".img")
		nodes[id] = startTestNode(t, id, paths[id])
	}
	r, err := StartRouter(RouterConfig{
		Nodes:     nodeInfos(nodes),
		Heartbeat: 15 * time.Millisecond,
		LeaseMiss: 3,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()

	cfg := testNodeCfg("")
	var mu sync.Mutex
	sent := map[uint64]uint64{}
	acked := map[uint64]uint64{}
	ackedN := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }

	loadDone := make(chan *loadmodel.Report, 1)
	go func() {
		rep, _ := loadmodel.Run(r.Addr(), insertLoad(cfg, 0, 6*time.Second), loadmodel.Options{
			Conns: 2, Window: 16, MaxRetries: 100, Reconnect: true,
			OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
			OnAck:  func(_ int, k, v uint64) { mu.Lock(); acked[k] = v; mu.Unlock() },
		})
		loadDone <- rep
	}()

	waitAcked := func(min int, why string) {
		deadline := time.Now().Add(20 * time.Second)
		for ackedN() < min {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stuck at %d acked puts (want %d)", why, ackedN(), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAcked(300, "warmup")

	// Crash n0's network face: conns die, open batch is not sealed.
	victim := "n0"
	victimCtrl := nodes[victim].CtrlAddr()
	if err := nodes[victim].Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	waitState(t, r, victim, StateDead, 5*time.Second)
	preFailover := ackedN()
	waitAcked(preFailover+300, "post-failover continuity")

	// Restart on the same image and control address; the router must
	// adopt it, drain the deltas, and return it to alive.
	n0, err := StartNode(NodeConfig{
		ID:       victim,
		CtrlAddr: victimCtrl,
		Server:   testNodeCfg(paths[victim]),
		Repl:     ReplConfig{Window: 512},
	})
	if err != nil {
		t.Fatalf("restart %s: %v", victim, err)
	}
	nodes[victim] = n0
	if !n0.Server().Restored() {
		t.Fatal("restarted node did not recover its image")
	}
	waitState(t, r, victim, StateAlive, 15*time.Second)

	rep := <-loadDone
	// In proxy mode the router absorbs the backend's death: clients
	// keep their connections and see Overload flushes, which the
	// engine retries — so the failover shows up as retries, not
	// client-side resets.
	if rep.Retries == 0 && rep.Total.Overloads == 0 {
		t.Error("expected overload/retry churn through the failover")
	}
	if rep.AckedPuts == 0 {
		t.Fatal("no puts acked")
	}
	t.Logf("load: %d ops, %d acked, %d retries, %d resets, %d errors",
		rep.Ops, rep.AckedPuts, rep.Retries, rep.ConnResets, rep.Errors)

	// Quiesce: let any post-rejoin forwards settle, then verify every
	// acked key through the router before shutdown.
	cl, err := kvserve.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	ackedCopy := make(map[uint64]uint64, len(acked))
	for k, v := range acked {
		ackedCopy[k] = v
	}
	mu.Unlock()
	for k, v := range ackedCopy {
		got, st, err := cl.Get(k)
		if err != nil || st != kvserve.StatusOK || got != v {
			t.Fatalf("acked key %#x unreadable after failover+rejoin: %#x st=%d err=%v (want %#x)",
				k, got, st, err, v)
		}
	}
	cl.Close()

	for _, id := range ids {
		resp, err := http.Get("http://" + nodes[id].CtrlAddr() + "/metrics")
		if err == nil {
			var lines []byte
			buf := make([]byte, 1<<16)
			n, _ := resp.Body.Read(buf)
			for _, l := range bytes.Split(buf[:n], []byte("\n")) {
				if bytes.HasPrefix(l, []byte("cluster_repl_")) && !bytes.Contains(l, []byte("lag")) {
					lines = append(lines, l...)
					lines = append(lines, ' ', '|', ' ')
				}
			}
			resp.Body.Close()
			t.Logf("%s repl: %s", id, lines)
		}
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	contents := reopenContents(t, paths)
	mu.Lock()
	defer mu.Unlock()
	assertPairDurability(t, ids, contents, acked, sent)
	t.Logf("acked %d puts across failover+rejoin; pair equality holds on reopened images", len(acked))
}

// TestNodeHealthzLifecycle asserts the readiness split: /healthz on a
// live node reports serving with the applied epoch.
func TestNodeHealthzLifecycle(t *testing.T) {
	dir := t.TempDir()
	n := startTestNode(t, "solo", filepath.Join(dir, "solo.img"))
	defer n.Close()

	resp, err := http.Get("http://" + n.CtrlAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "serving" || h.Node != "solo" {
		t.Fatalf("healthz: %+v (HTTP %d)", h, resp.StatusCode)
	}
	if h.Addr != n.Server().Addr() {
		t.Fatalf("healthz addr %s, want %s", h.Addr, n.Server().Addr())
	}

	// Topology application is visible through the reported epoch.
	pairs, _ := BuildPairs([]string{"solo"}, 8, 1.25)
	topo := &Topology{
		Epoch: 7,
		Nodes: []NodeInfo{{ID: "solo", Addr: n.Server().Addr(), State: StateAlive}},
		Slots: make([]SlotAssign, NumSlots),
	}
	for s := range topo.Slots {
		topo.Slots[s] = SlotAssign{Primary: pairs[s][0], Follower: -1, Pair: -1}
	}
	body, _ := json.Marshal(topo)
	pr, err := http.Post("http://"+n.CtrlAddr()+"/cluster/topology", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("topology push: HTTP %d", pr.StatusCode)
	}
	if got := n.Repl().Epoch(); got != 7 {
		t.Fatalf("applied epoch %d, want 7", got)
	}
}

// TestStartNodeRejectsExhaustibleWindow pins the startup validation:
// a replication window the commit pipelines can exhaust (≤ Shards ×
// (PipelineDepth+1) sealed-but-unacked batches, each holding one
// OpReplBatch slot per peer) would deadlock the shard owners against
// their own flushers, so StartNode must refuse it.
func TestStartNodeRejectsExhaustibleWindow(t *testing.T) {
	cfg := testNodeCfg(filepath.Join(t.TempDir(), "w0.img"))
	n, err := StartNode(NodeConfig{
		ID:     "w0",
		Server: cfg,
		Repl:   ReplConfig{Window: cfg.PipelineBatches()},
	})
	if err == nil {
		n.Close()
		t.Fatalf("StartNode accepted window %d, the pipelines' exact unacked-batch capacity", cfg.PipelineBatches())
	}
	n, err = StartNode(NodeConfig{
		ID:     "w0",
		Server: cfg,
		Repl:   ReplConfig{Window: cfg.PipelineBatches() + 1},
	})
	if err != nil {
		t.Fatalf("StartNode refused the smallest safe window: %v", err)
	}
	n.Close()
}

// TestNodeGatesPutsUntilTopology pins the startup fence: a clustered
// node that has not applied any topology must answer client puts with
// Overload — Forward has no view, so acking would be a silent RF=1
// write outside the router's epoch fence. After the first applied
// epoch the same put succeeds.
func TestNodeGatesPutsUntilTopology(t *testing.T) {
	n := startTestNode(t, "g0", filepath.Join(t.TempDir(), "g0.img"))
	defer n.Close()

	conn, err := net.Dial("tcp", n.Server().Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	put := func(seq uint32, key, val uint64) byte {
		var f [kvserve.ReqSize]byte
		kvserve.EncodeReq(&f, kvserve.OpPut, seq, key, val)
		if _, err := conn.Write(f[:]); err != nil {
			t.Fatalf("put write: %v", err)
		}
		var rb [kvserve.RespSize]byte
		if _, err := io.ReadFull(conn, rb[:]); err != nil {
			t.Fatalf("put read: %v", err)
		}
		rseq, status, _ := kvserve.DecodeResp(&rb)
		if rseq != seq {
			t.Fatalf("response seq %d, want %d", rseq, seq)
		}
		return status
	}

	key := workloads.KVKey(0, 1)
	if st := put(1, key, 42); st != kvserve.StatusOverload {
		t.Fatalf("pre-topology put: status %d, want Overload", st)
	}

	topo := &Topology{
		Epoch: 1,
		Nodes: []NodeInfo{{ID: "g0", Addr: n.Server().Addr(), State: StateAlive}},
		Slots: make([]SlotAssign, NumSlots),
	}
	for s := range topo.Slots {
		topo.Slots[s] = SlotAssign{Primary: 0, Follower: -1, Pair: -1}
	}
	if err := n.Repl().ApplyTopology(topo); err != nil {
		t.Fatalf("apply topology: %v", err)
	}
	if st := put(2, key, 42); st != kvserve.StatusOK {
		t.Fatalf("post-topology put: status %d, want OK", st)
	}
}
