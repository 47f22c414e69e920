package harness

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lazyp/internal/cluster"
	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
)

// expCluster is E16: the multi-node story measured end to end. Three
// in-process cluster members behind a Router carry the same load a
// single node carries, pricing what LP-acked replication adds — one
// pipelined network hop per put, not one fsync — and then a failover
// drill kills the victim mid-load and times the blip: how long puts
// owned by the dead node's slots stall before the promoted follower
// acks them. The drill ends with a rejoin on the victim's image and
// control address, timing recovery + delta catch-up back to alive.
// Native: wall-clock and real TCP, so the runner executes it alone.
// (Durability through SIGKILL is the crash test's job, not E16's —
// here the kill is an in-process abort and the measurement is time.)
func expCluster(w io.Writer, o Options) error {
	dir, err := os.MkdirTemp("", "lpcluster-e16-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Shrink the table under Quick but not the journal: rounds share
	// the nodes, and insert-heavy phases must not exhaust a shard's LP
	// journal — a full journal answers StatusFull, which stalls
	// replication catch-up (replays degrade forever) instead of failing
	// loudly. A put is one journal record on each of its two copies: the
	// busiest shard writes some 30 k over the rounds (the hot keys' shard
	// of the single-node round), so 1<<16 leaves it half empty.
	nodeCfg := func(path string) kvserve.Config {
		c := kvserve.Config{
			Addr: "127.0.0.1:0", Path: path, Mode: lpstore.ModeLP,
			Shards: 2, Capacity: 1 << 15, MaxOps: 1 << 16, BatchK: 32,
			Streams: 4, Keys: 2048, Seed: 16,
			Mailbox: 256, BatchWait: 300 * time.Microsecond,
			PipelineDepth: 2,
		}
		if o.Quick {
			c.Capacity = 1 << 13
			c.Streams, c.Keys = 2, 256
		}
		return c
	}
	// Few fat connections, so response flushes and replication batches
	// actually fill (see DESIGN.md §11).
	ref := nodeCfg("")
	load := loadmodel.MixLoad{
		Mix: "a", Dist: "zipfian", Ops: 40000,
		Streams: ref.Streams, Keys: ref.Keys, Seed: ref.Seed,
	}
	opts := loadmodel.Options{Conns: 2, Window: 128, MaxRetries: 8}
	if o.Quick {
		load.Ops = 300
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "topology\tops\tthroughput (ops/s)\tp50 (µs)\tp99 (µs)\toverload/resets")

	// Round 1: one plain kvserve node, no router, no replication — the
	// baseline every cluster number is read against.
	single, err := kvserve.New(nodeCfg(filepath.Join(dir, "single.img")))
	if err != nil {
		return fmt.Errorf("cluster e16: single: %w", err)
	}
	if err := single.Start(); err != nil {
		single.Close()
		return fmt.Errorf("cluster e16: single: %w", err)
	}
	rep, lerr := loadmodel.Run(single.Addr(), load, opts)
	if cerr := single.Close(); cerr != nil {
		return fmt.Errorf("cluster e16: single drain: %w", cerr)
	}
	if lerr != nil {
		return fmt.Errorf("cluster e16: single load: %w", lerr)
	}
	fmt.Fprintf(tw, "1 node direct\t%d\t%.0f\t%.0f\t%.0f\t%d/%d\n",
		rep.Ops, rep.Throughput, rep.Total.P50us, rep.Total.P99us, rep.Total.Overloads, rep.ConnResets)

	// Round 2: three members behind the router, every put replicated to
	// its slot's pair peer and acked only after the follower's group
	// commit — the replication + proxy tax at equal offered load.
	ids := []string{"e0", "e1", "e2"}
	nodes := make(map[string]*cluster.Node, len(ids))
	paths := make(map[string]string, len(ids))
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	var infos []cluster.NodeInfo
	for _, id := range ids {
		paths[id] = filepath.Join(dir, id+".img")
		n, err := cluster.StartNode(cluster.NodeConfig{
			ID:     id,
			Server: nodeCfg(paths[id]),
			Repl:   cluster.ReplConfig{Window: 512},
		})
		if err != nil {
			return fmt.Errorf("cluster e16: node %s: %w", id, err)
		}
		nodes[id] = n
		infos = append(infos, cluster.NodeInfo{
			ID: id, Addr: n.Server().Addr(), Ctrl: "http://" + n.CtrlAddr(),
		})
	}
	// E16 also runs under the race detector (TestExperimentsQuick in
	// CI): every node and the router are instrumented and 5–20×
	// slower, so the lease and the convergence deadlines get slack —
	// the measured numbers are meaningless there, only completion is.
	slack := time.Duration(1)
	if cluster.RaceEnabled {
		slack = 4
	}
	r, err := cluster.StartRouter(cluster.RouterConfig{
		Nodes:     infos,
		Heartbeat: 20 * time.Millisecond * slack,
		LeaseMiss: 3,
	})
	if err != nil {
		return fmt.Errorf("cluster e16: router: %w", err)
	}
	defer r.Close()

	rep, lerr = loadmodel.Run(r.Addr(), load, opts)
	if lerr != nil {
		return fmt.Errorf("cluster e16: cluster load: %w", lerr)
	}
	fmt.Fprintf(tw, "3 nodes via router\t%d\t%.0f\t%.0f\t%.0f\t%d/%d\n",
		rep.Ops, rep.Throughput, rep.Total.P50us, rep.Total.P99us, rep.Total.Overloads, rep.ConnResets)

	// Round 3: the failover drill. Insert-only load with retries on,
	// kill the victim mid-run, and time two spans on the host clock:
	// the blip (kill → first acked put whose slot the victim owned as
	// static primary — i.e. traffic that *had* to wait for promotion)
	// and the rejoin (restart → router reports the node alive again,
	// which includes journal-replay recovery and delta catch-up).
	pairs, err := cluster.BuildPairs(ids, cluster.DefaultVNodes, cluster.DefaultLoadFactor)
	if err != nil {
		return err
	}
	// The drill is ops-bounded, not duration-bounded: InsertOnly
	// streams mint fresh keys without limit, and a duration bound at
	// full speed overruns the tables' admission watermark — after
	// which the restarted victim answers Full to every catch-up replay
	// and can never rejoin. 2×8000 inserts spread ~2/3 per node (as
	// primary plus follower copies) stay well under Capacity−Cap/8.
	victim := ids[0]
	drill := load
	drill.Ops = 8000
	drill.InsertOnly = true
	dopts := opts
	dopts.MaxRetries = 200
	dopts.Reconnect = true
	if o.Quick {
		drill.Ops = 2000
	}

	// The blip is the longest silence between consecutive acks on
	// victim-owned slots once the kill lands: in-flight responses can
	// straggle through the proxy right after the abort, so "first ack
	// after the kill" would read ~0 — the max gap is the actual stall
	// clients on those slots sat through while the lease expired and
	// the promotion epoch cleared the routing fence.
	var mu sync.Mutex
	var killAt, lastVictimAck time.Time
	var blip time.Duration
	ackN := 0
	dopts.OnAck = func(_ int, k, _ uint64) {
		mu.Lock()
		ackN++
		if pairs[cluster.SlotOf(k)][0] == 0 {
			now := time.Now()
			if !killAt.IsZero() {
				if gap := now.Sub(lastVictimAck); gap > blip {
					blip = gap
				}
			}
			lastVictimAck = now
		}
		mu.Unlock()
	}

	loadDone := make(chan *loadmodel.Report, 1)
	go func() {
		rep, _ := loadmodel.Run(r.Addr(), drill, dopts)
		loadDone <- rep
	}()
	// Kill a quarter of the way in — enough warmup that victim-owned
	// slots have a pre-kill ack cadence, enough runway that the
	// post-promotion (and post-rejoin) cluster carries real load.
	killTarget := drill.Ops * dopts.Conns / 4
	for deadline := time.Now().Add(20 * time.Second * slack); ; {
		mu.Lock()
		n := ackN
		mu.Unlock()
		if n >= killTarget {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster e16: drill stuck at %d acks before the kill", n)
		}
		time.Sleep(2 * time.Millisecond)
	}

	victimCtrl := nodes[victim].CtrlAddr()
	mu.Lock()
	killAt = time.Now()
	lastVictimAck = killAt
	mu.Unlock()
	nodes[victim].Abort()
	delete(nodes, victim)

	waitFor := func(state string, timeout time.Duration) (time.Duration, error) {
		start := time.Now()
		for time.Since(start) < timeout {
			t := r.Topology()
			if i := t.NodeIndex(victim); i >= 0 && t.Nodes[i].State == state {
				return time.Since(start), nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return 0, fmt.Errorf("cluster e16: %s never reached %s", victim, state)
	}
	if _, err := waitFor(cluster.StateDead, 10*time.Second*slack); err != nil {
		return err
	}

	// Restart on the same image and control address mid-load: recovery,
	// then router-driven catch-up, back to serving as a follower.
	n, err := cluster.StartNode(cluster.NodeConfig{
		ID:       victim,
		CtrlAddr: victimCtrl,
		Server:   nodeCfg(paths[victim]),
		Repl:     cluster.ReplConfig{Window: 512},
	})
	if err != nil {
		return fmt.Errorf("cluster e16: restart %s: %w", victim, err)
	}
	nodes[victim] = n
	rejoin, err := waitFor(cluster.StateAlive, 30*time.Second*slack)
	if err != nil {
		for id, n := range nodes {
			resp, derr := http.Get("http://" + n.CtrlAddr() + "/metrics")
			if derr != nil {
				fmt.Fprintf(os.Stderr, "e16 diag %s: %v\n", id, derr)
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(b), "\n") {
				if strings.Contains(line, "delta_pending") || strings.Contains(line, "rejects_total") ||
					strings.Contains(line, "repl_epoch") || strings.Contains(line, "catchup") {
					fmt.Fprintf(os.Stderr, "e16 diag %s: %s\n", id, line)
				}
			}
		}
		return err
	}

	rep = <-loadDone
	if rep.AckedPuts == 0 {
		return fmt.Errorf("cluster e16: drill acked nothing")
	}
	mu.Lock()
	stall := blip
	mu.Unlock()
	if stall == 0 {
		return fmt.Errorf("cluster e16: no post-kill ack on a victim-owned slot observed")
	}
	fmt.Fprintf(tw, "3 nodes, kill+rejoin\t%d\t%.0f\t%.0f\t%.0f\t%d/%d\n",
		rep.Ops, rep.Throughput, rep.Total.P50us, rep.Total.P99us, rep.Total.Overloads, rep.ConnResets)
	fmt.Fprintf(tw, "failover\t\t\t\t\tblip %.0f ms (kill → promoted ack), rejoin %.0f ms (restart → alive)\n",
		float64(stall.Milliseconds()), float64(rejoin.Milliseconds()))
	return tw.Flush()
}
