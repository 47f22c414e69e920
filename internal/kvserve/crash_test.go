package kvserve_test

// The crash test this file holds is the subsystem's reason to exist:
// a real server process killed with SIGKILL mid-load, restarted, and
// held to the acked-prefix durability contract. The test binary
// re-execs itself as the server (TestMain's child branch) so the kill
// destroys a genuine process — its memory gone, the file holding every
// store it executed, sealed batch or not.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

const (
	crashChildEnv = "KVSERVE_CRASH_CHILD"
	crashFsyncEnv = "KVSERVE_CRASH_FSYNC"
)

func TestMain(m *testing.M) {
	if path := os.Getenv(crashChildEnv); path != "" {
		runCrashChild(path, os.Getenv(crashFsyncEnv) == "1")
		return
	}
	os.Exit(m.Run())
}

// crashChildCfg is the one config both processes must agree on. The
// fsync variant prices each group commit with a real fsync, which
// widens the seal→durable window the pipelined commit keeps open: up
// to PipelineDepth sealed-but-unacked batches are in flight when the
// kill lands, and none of them may have been acked.
func crashChildCfg(path string, fsync bool) kvserve.Config {
	return kvserve.Config{
		Addr:          "127.0.0.1:0",
		Path:          path,
		Mode:          lpstore.ModeLP,
		Shards:        4,
		Capacity:      1 << 12,
		MaxOps:        1 << 15,
		BatchK:        16,
		Streams:       2,
		Keys:          256,
		Seed:          7,
		Mailbox:       128,
		BatchWait:     300 * time.Microsecond,
		Fsync:         fsync,
		PipelineDepth: 4,
	}
}

func runCrashChild(path string, fsync bool) {
	s, err := kvserve.New(crashChildCfg(path, fsync))
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	fmt.Printf("KVSERVE_ADDR=%s\n", s.Addr())
	select {} // serve until killed
}

// TestServeCrashKill is the end-to-end durability demo CI runs: boot a
// server in a child process, drive concurrent insert load, SIGKILL the
// child once ≥500 puts are acked, recover the image in-process, and
// assert the contract — every acked put present with its value, no key
// or value the clients never wrote, and a second recovery pass clean.
func TestServeCrashKill(t *testing.T) { runCrashKill(t, false) }

// TestServeCrashKillPipelinedFsync is the same kill, with fsync priced
// on every commit: the pipelined group commit seals batch N+1 while
// batch N's write+fsync is in flight, and the contract under test is
// that a put acked before the kill had its batch's fsync complete — a
// crash landing between seal and fsync must not have acked.
func TestServeCrashKillPipelinedFsync(t *testing.T) { runCrashKill(t, true) }

func runCrashKill(t *testing.T, fsync bool) {
	path := filepath.Join(t.TempDir(), "kv.img")
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+path)
	if fsync {
		cmd.Env = append(cmd.Env, crashFsyncEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn child: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "KVSERVE_ADDR="); ok {
				addrCh <- a
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("child never reported its address")
	}

	cfg := crashChildCfg(path, fsync)
	var mu sync.Mutex
	sent := map[uint64]uint64{}
	acked := map[uint64]uint64{}
	var ackedN atomic.Uint64
	loadDone := make(chan *loadmodel.Report, 1)
	go func() {
		rep, _ := loadmodel.Run(addr, insertLoad(cfg, 200000), loadmodel.Options{
			Conns: 3, Window: 32, MaxRetries: 8,
			OnSend: func(_ int, k, v uint64) { mu.Lock(); sent[k] = v; mu.Unlock() },
			OnAck: func(_ int, k, v uint64) {
				mu.Lock()
				acked[k] = v
				mu.Unlock()
				ackedN.Add(1)
			},
		})
		loadDone <- rep
	}()

	deadline := time.Now().Add(20 * time.Second)
	for ackedN.Load() < 500 {
		if time.Now().After(deadline) {
			t.Fatalf("load reached only %d acked puts", ackedN.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// SIGKILL: no drain, no pad, no sync. The file holds every store
	// the server executed, its unsealed batches' included.
	cmd.Process.Kill()
	cmd.Wait()
	rep := <-loadDone
	if rep.Errors == 0 {
		t.Error("expected in-flight operations to fail when the server died")
	}

	s2, err := kvserve.New(cfg)
	if err != nil {
		t.Fatalf("restart recovery: %v", err)
	}
	defer s2.Close()
	if !s2.Restored() {
		t.Fatal("restart did not detect the existing image")
	}
	for _, st := range s2.RecoveryStats() {
		t.Logf("shard %d: acked %d puts / %d batches, verified=%v repaired=%d",
			st.Shard, st.AckedPuts, st.AckedBatches, st.Verified, st.Repaired)
	}

	contents := s2.Contents()
	mu.Lock()
	defer mu.Unlock()
	for k, v := range acked {
		got, ok := contents[k]
		if !ok {
			t.Fatalf("acked key %#x lost by the crash", k)
		}
		if got != v {
			t.Fatalf("acked key %#x = %#x, want %#x", k, got, v)
		}
	}
	preload := map[uint64]uint64{}
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			preload[k] = workloads.KVInitVal(cfg.Seed, k)
		}
	}
	for k, v := range contents {
		if pv, ok := preload[k]; ok {
			if v != pv {
				t.Fatalf("preloaded key %#x corrupted: %#x != %#x", k, v, pv)
			}
			continue
		}
		if sv, ok := sent[k]; !ok {
			t.Fatalf("ghost key %#x survived recovery", k)
		} else if v != sv {
			t.Fatalf("key %#x holds %#x, which was never written (sent %#x)", k, v, sv)
		}
	}
	if err := s2.VerifyRecovered(); err != nil {
		t.Fatalf("second recovery pass: %v", err)
	}
	t.Logf("sent %d keys, acked %d, recovered %d beyond preload",
		len(sent), len(acked), len(contents)-len(preload))
}
