package cluster

// The whole-node kill drill: a real cluster member process destroyed
// with SIGKILL mid-load — heap gone, sockets reset, its image as torn
// as the group commit left it — while the router fails its slots over
// and the load keeps acking. The test binary re-execs itself as the
// node (TestMain's child branch) so the kill takes out a genuine
// process, not a goroutine. The contract under test is the cluster-
// wide acked-prefix rule: after failover, rejoin, and a final drain,
// every acked put is present with its value on BOTH members of its
// slot's static pair, and no node holds a key the clients never sent.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
)

const (
	clusterChildEnv = "CLUSTER_CRASH_CHILD" // "<id>;<image path>"
	clusterCtrlEnv  = "CLUSTER_CRASH_CTRL"  // control listen addr ("" = any)
)

func TestMain(m *testing.M) {
	if spec := os.Getenv(clusterChildEnv); spec != "" {
		runClusterChild(spec, os.Getenv(clusterCtrlEnv))
		return
	}
	os.Exit(m.Run())
}

// runClusterChild is the re-exec'd node process: boot a member on the
// given image (testNodeCfg geometry, so the parent can reopen the
// image with the same config), report the bound addresses on stdout,
// and serve until killed.
func runClusterChild(spec, ctrl string) {
	id, path, ok := strings.Cut(spec, ";")
	if !ok {
		fmt.Fprintln(os.Stderr, "cluster crash child: bad spec", spec)
		os.Exit(3)
	}
	n, err := StartNode(NodeConfig{
		ID:       id,
		CtrlAddr: ctrl,
		Server:   testNodeCfg(path),
		Repl:     ReplConfig{Window: 512},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster crash child:", err)
		os.Exit(3)
	}
	fmt.Printf("CLUSTER_NODE data=%s ctrl=%s\n", n.Server().Addr(), n.CtrlAddr())
	select {} // serve until killed
}

// childNode is the parent's handle on one re-exec'd member.
type childNode struct {
	id   string
	path string
	cmd  *exec.Cmd
	data string
	ctrl string
}

// spawnChildNode re-execs the test binary as cluster member id on the
// given image, pinning the control address when ctrl is nonempty (the
// restart path must come back on the address the router polls).
func spawnChildNode(t *testing.T, id, path, ctrl string) *childNode {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		clusterChildEnv+"="+id+";"+path,
		clusterCtrlEnv+"="+ctrl)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn node %s: %v", id, err)
	}
	c := &childNode{id: id, path: path, cmd: cmd}
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if l, ok := strings.CutPrefix(sc.Text(), "CLUSTER_NODE "); ok {
				lineCh <- l
				return
			}
		}
	}()
	select {
	case l := <-lineCh:
		for _, f := range strings.Fields(l) {
			if v, ok := strings.CutPrefix(f, "data="); ok {
				c.data = v
			}
			if v, ok := strings.CutPrefix(f, "ctrl="); ok {
				c.ctrl = v
			}
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("node %s never reported its addresses", id)
	}
	if c.data == "" || c.ctrl == "" {
		cmd.Process.Kill()
		t.Fatalf("node %s reported incomplete addresses (data=%q ctrl=%q)", id, c.data, c.ctrl)
	}
	return c
}

// kill SIGKILLs the child and reaps it: no drain, no pad, no goodbye.
func (c *childNode) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL)
	c.cmd.Wait()
}

// TestClusterCrashKillFailover is the end-to-end cluster durability
// demo CI runs: three real node processes behind an in-process router,
// insert load through the proxy, SIGKILL the primary-heavy victim
// mid-load, require the acked count to keep climbing through the
// failover, restart the victim on the same image and control address,
// require the rejoin to converge, then kill everything and hold the
// reopened images to the static-pair contract.
func TestClusterCrashKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash drill")
	}
	dir := t.TempDir()
	ids := []string{"n0", "n1", "n2"}
	children := map[string]*childNode{}
	paths := map[string]string{}
	var infos []NodeInfo
	for _, id := range ids {
		paths[id] = filepath.Join(dir, id+".img")
		c := spawnChildNode(t, id, paths[id], "")
		children[id] = c
		infos = append(infos, NodeInfo{ID: id, Addr: c.data, Ctrl: "http://" + c.ctrl})
	}
	defer func() {
		for _, c := range children {
			c.kill()
		}
	}()

	// Under the race detector every party here — the children are the
	// same instrumented binary — runs 5–20× slower, so a 45 ms lease
	// would expire on healthy-but-slow nodes and adjudicate spurious
	// failovers. Slack the lease and the convergence deadlines, not
	// the logic.
	slack := time.Duration(1)
	if RaceEnabled {
		slack = 4
	}
	r, err := StartRouter(RouterConfig{
		Nodes:     infos,
		Heartbeat: 15 * time.Millisecond * slack,
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
	// phase[k] records when k was acked: 1 pre-kill, 2 dead window,
	// 3 after the victim rejoined — the first thing to ask about any
	// key the durability check reports missing.
	phase := map[uint64]int{}
	curPhase := 1
	ackedN := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }
	setPhase := func(p int) { mu.Lock(); curPhase = p; mu.Unlock() }

	loadDone := make(chan *loadmodel.Report, 1)
	go func() {
		rep, _ := loadmodel.Run(r.Addr(), insertLoad(cfg, 0, 6*time.Second), loadmodel.Options{
			Conns: 2, Window: 16, MaxRetries: 100, Reconnect: true,
			OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
			OnAck: func(_ int, k, v uint64) {
				mu.Lock()
				acked[k] = v
				phase[k] = curPhase
				mu.Unlock()
			},
		})
		loadDone <- rep
	}()

	waitAcked := func(min int, why string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for ackedN() < min {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stuck at %d acked puts (want %d)", why, ackedN(), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAcked(300, "warmup")

	// SIGKILL the victim process whole: its primaries' open batches,
	// replication sessions, and control plane all vanish at once.
	victim := "n0"
	victimCtrl := children[victim].ctrl
	children[victim].kill()
	setPhase(2)
	waitState(t, r, victim, StateDead, 5*time.Second*slack)
	preFailover := ackedN()
	waitAcked(preFailover+300, "post-failover continuity")

	// Restart on the same image and control address: journal-replay
	// recovery in a fresh process, then router-driven catch-up.
	children[victim] = spawnChildNode(t, victim, paths[victim], victimCtrl)
	waitState(t, r, victim, StateAlive, 15*time.Second*slack)
	setPhase(3)

	rep := <-loadDone
	if rep.AckedPuts == 0 {
		t.Fatal("no puts acked")
	}
	if rep.Retries == 0 && rep.Total.Overloads == 0 {
		t.Error("expected overload/retry churn through the failover")
	}
	t.Logf("load: %d ops, %d acked, %d retries, %d resets, %d errors",
		rep.Ops, rep.AckedPuts, rep.Retries, rep.ConnResets, rep.Errors)

	// Every acked key must read back through the router before the
	// final kill — the live half of the contract.
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

	// The live half of the pair contract, aimed at the catch-up path:
	// every key acked after the kill (RF=1 dead-window acks included)
	// must by now be present on BOTH pair members' running stores —
	// read each member directly, not through the router.
	pairs, err := BuildPairs(ids)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]*kvserve.Client{}
	for _, c := range children {
		if direct[c.id], err = kvserve.Dial(c.data); err != nil {
			t.Fatalf("dial %s: %v", c.id, err)
		}
	}
	mu.Lock()
	lateAcked := map[uint64]uint64{}
	for k, v := range acked {
		if phase[k] >= 2 {
			lateAcked[k] = v
		}
	}
	mu.Unlock()
	for k, v := range lateAcked {
		p := pairs[SlotOf(k)]
		for _, m := range []int{p[0], p[1]} {
			if m < 0 {
				continue
			}
			got, st, err := direct[ids[m]].Get(k)
			if err != nil || st != kvserve.StatusOK || got != v {
				t.Errorf("post-kill acked key %#x absent from live %s: %#x st=%d err=%v (want %#x)",
					k, ids[m], got, st, err, v)
			}
		}
	}
	for _, c := range direct {
		c.Close()
	}
	if t.Failed() {
		t.FailNow()
	}

	// Kill every node without ceremony. Acked means both pair members
	// group-committed, so the images must agree even through SIGKILL.
	for _, c := range children {
		c.kill()
	}
	contents := reopenContents(t, paths)
	mu.Lock()
	defer mu.Unlock()
	for k := range acked {
		p := pairs[SlotOf(k)]
		for _, m := range []int{p[0], p[1]} {
			if m >= 0 {
				if _, ok := contents[ids[m]][k]; !ok {
					t.Logf("missing key %#x was acked in phase %d (1=pre-kill, 2=dead window, 3=post-rejoin)",
						k, phase[k])
				}
			}
		}
	}
	assertPairDurability(t, ids, contents, acked, sent)
	t.Logf("acked %d puts across a process kill, failover, and rejoin; pair equality holds", len(acked))
}

// TestClusterCrashFollowerMidBatch aims the SIGKILL at the follower
// half of the OpReplBatch path. A three-node cluster streams insert
// load; batched replication frames are continuously in flight, so the
// kill lands mid-run for some batch on every shard the victim follows
// — the TCP reset arrives while the surviving primaries hold tokens on
// unacked runs. The contract: primaries resolve those whole runs as
// degraded without stalling (RF=1 lease-gated acks on every slot whose
// primary survived), the delta buffer absorbs the dead window, the
// rejoin drains it, and the reopened images show the acked-prefix and
// no-ghost properties on every pair.
func TestClusterCrashFollowerMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash drill")
	}
	dir := t.TempDir()
	ids := []string{"m0", "m1", "m2"}
	children := map[string]*childNode{}
	paths := map[string]string{}
	var infos []NodeInfo
	for _, id := range ids {
		paths[id] = filepath.Join(dir, id+".img")
		c := spawnChildNode(t, id, paths[id], "")
		children[id] = c
		infos = append(infos, NodeInfo{ID: id, Addr: c.data, Ctrl: "http://" + c.ctrl})
	}
	defer func() {
		for _, c := range children {
			c.kill()
		}
	}()

	slack := time.Duration(1)
	if RaceEnabled {
		slack = 4
	}
	r, err := StartRouter(RouterConfig{
		Nodes:     infos,
		Heartbeat: 15 * time.Millisecond * slack,
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
	phase := map[uint64]int{}
	curPhase := 1
	ackedN := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }
	setPhase := func(p int) { mu.Lock(); curPhase = p; mu.Unlock() }

	loadDone := make(chan *loadmodel.Report, 1)
	go func() {
		rep, _ := loadmodel.Run(r.Addr(), insertLoad(cfg, 0, 6*time.Second), loadmodel.Options{
			Conns: 2, Window: 16, MaxRetries: 100, Reconnect: true,
			OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
			OnAck: func(_ int, k, v uint64) {
				mu.Lock()
				acked[k] = v
				phase[k] = curPhase
				mu.Unlock()
			},
		})
		loadDone <- rep
	}()

	waitAcked := func(min int, why string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for ackedN() < min {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stuck at %d acked puts (want %d)", why, ackedN(), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAcked(300, "warmup")

	// The victim is a follower for roughly a third of the slots; the
	// survivingPrimary set is the slots whose primary outlives the kill
	// but whose replication target just vanished mid-batch — the exact
	// paths that must keep acking at RF=1 without waiting for failover.
	victim := "m1"
	topo := r.Topology()
	vi := topo.NodeIndex(victim)
	if vi < 0 {
		t.Fatalf("victim %s not in topology", victim)
	}
	followerSlots := 0
	for _, sa := range topo.Slots {
		if sa.Pair == vi && sa.Primary >= 0 && sa.Primary != vi {
			followerSlots++
		}
	}
	if followerSlots == 0 {
		t.Fatalf("victim %s follows no slots; the kill would not touch the replication path", victim)
	}
	victimCtrl := children[victim].ctrl
	children[victim].kill()
	setPhase(2)

	// RF=1 continuity on the surviving primaries' slots: acks must keep
	// climbing on keys the victim was following. Count them directly.
	deadWindowOnSurvivors := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for k, p := range phase {
			if p != 2 {
				continue
			}
			if sa := topo.Slots[SlotOf(k)]; sa.Pair == vi && sa.Primary != vi {
				n++
			}
		}
		return n
	}
	waitState(t, r, victim, StateDead, 5*time.Second*slack)
	deadline := time.Now().Add(20 * time.Second)
	for deadWindowOnSurvivors() < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("surviving primaries acked only %d puts on the victim's followed slots",
				deadWindowOnSurvivors())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rejoin on the same image: journal replay plus catch-up drains the
	// dead-window deltas back into the restarted follower.
	children[victim] = spawnChildNode(t, victim, paths[victim], victimCtrl)
	waitState(t, r, victim, StateAlive, 15*time.Second*slack)
	setPhase(3)

	rep := <-loadDone
	t.Logf("load: %d ops, %d acked (%d on victim-followed slots in the dead window), %d retries, %d resets",
		rep.Ops, rep.AckedPuts, deadWindowOnSurvivors(), rep.Retries, rep.ConnResets)
	if rep.AckedPuts == 0 {
		t.Fatal("no puts acked")
	}

	// Kill everything and hold the images to the pair contract: the
	// acked prefix present on both members of every slot's pair, and no
	// ghosts — no key on any image that a client never sent.
	for _, c := range children {
		c.kill()
	}
	contents := reopenContents(t, paths)
	mu.Lock()
	defer mu.Unlock()
	assertPairDurability(t, ids, contents, acked, sent)
	t.Logf("acked %d puts across a follower SIGKILL mid-batch; pair equality holds", len(acked))
}
