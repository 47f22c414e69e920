package kvserve

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// TestBatchDeadlineOnTime: on a server with nothing else to do, a lone
// put waits for its batch's deadline, and the owner seals it then. A
// runtime timer armed for 500 µs in an idle process fires about 650 µs
// late (Go waits for timers in a millisecond-granular epoll_wait); the
// seal clock must not. The test holds the server's own record of each
// deadline seal's lateness (kvserve_seal_lateness_seconds: seal time
// minus the batch's deadline) to the budget, not the client's round
// trip, which also pays for scheduling the client, the reader and the
// flusher on a loaded host.
func TestBatchDeadlineOnTime(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.Shards = 1
	cfg.BatchWait = 500 * time.Microsecond
	s := startServer(t, cfg)
	defer s.Close()
	cl := dial(t, s.Addr())
	const puts = 40
	for i := 0; i < puts; i++ {
		if st, err := cl.Put(workloads.KVKey(9, i), 1); err != nil || st != StatusOK {
			t.Fatalf("Put %d = %s, %v", i, StatusName(st), err)
		}
	}
	if d := s.ctSeals[sealDeadline].Load(); d != puts {
		t.Fatalf("%d of %d lone puts sealed by deadline", d, puts)
	}
	late := s.sealLate.Snapshot()
	t.Logf("deadline seal lateness: median %v, max %v", time.Duration(late.Quantile(0.5)), time.Duration(late.Max))
	if med, bound := time.Duration(late.Quantile(0.5)), 300*time.Microsecond; late.Count != puts || med >= bound {
		t.Fatalf("%d deadline seals, median lateness %v, want %d under %v (quartiles %v / %v)", late.Count, med, puts, bound,
			time.Duration(late.Quantile(0.25)), time.Duration(late.Quantile(0.75)))
	}
}

// BenchmarkSealClockLateness: how late a deadline fires in a process with
// nothing else to do, a runtime timer against the seal clock, at put_few's
// BatchWait and at 100 µs. Read the late-us column (the median over b.N
// waits); ns/op is the deadline plus the mean lateness.
func BenchmarkSealClockLateness(b *testing.B) {
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond} {
		b.Run("timer/"+d.String(), func(b *testing.B) {
			t := time.NewTimer(time.Hour)
			t.Stop()
			lateness(b, d, func() { t.Reset(d); <-t.C })
		})
		b.Run("sealclock/"+d.String(), func(b *testing.B) {
			c, err := newSealClock()
			if err != nil {
				b.Fatalf("newSealClock: %v", err)
			}
			defer c.close()
			lateness(b, d, func() { c.arm(d); <-c.C })
		})
	}
}

func lateness(b *testing.B, d time.Duration, wait func()) {
	late := make([]time.Duration, b.N)
	for i := range late {
		t0 := time.Now()
		wait()
		late[i] = time.Since(t0) - d
	}
	slices.Sort(late)
	b.ReportMetric(float64(late[len(late)/2].Nanoseconds())/1e3, "late-us")
}

// clockResources counts the process's open timerfds and the seal clocks'
// reader goroutines.
func clockResources(t *testing.T) (fds, readers int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("listing descriptors: %v", err)
	}
	for _, e := range ents {
		if l, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && l == "anon_inode:[timerfd]" {
			fds++
		}
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fds, strings.Count(string(buf), "(*sealClock).forward")
}

// waitClockResources polls until the counts read want (a reader goroutine
// signals done a moment before its stack is gone).
func waitClockResources(t *testing.T, fds, readers int, when string) {
	t.Helper()
	f, r := clockResources(t)
	for t0 := time.Now(); (f != fds || r != readers) && time.Since(t0) < 2*time.Second; f, r = clockResources(t) {
		time.Sleep(time.Millisecond)
	}
	if f != fds || r != readers {
		t.Fatalf("%s: %d timerfds and %d clock readers, want %d and %d", when, f, r, fds, readers)
	}
}

// TestSealClockReleased: every way out of a server — Close, Abort, Close
// of a server never started, and a New that fails after its first clock —
// closes each LP shard's timerfd and ends its reader goroutine.
func TestSealClockReleased(t *testing.T) {
	fds, readers := clockResources(t)
	for name, stop := range map[string]func(*Server) error{"Close": (*Server).Close, "Abort": (*Server).Abort} {
		for _, start := range []bool{true, false} {
			t.Run(name+"/started="+strconv.FormatBool(start), func(t *testing.T) {
				cfg := testCfg(t, lpstore.ModeLP)
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				waitClockResources(t, fds+cfg.Shards, readers+cfg.Shards, "after New")
				if start {
					if err := s.Start(); err != nil {
						t.Fatalf("Start: %v", err)
					}
					cl := dial(t, s.Addr())
					if st, err := cl.Put(workloads.KVKey(9, 0), 1); err != nil || st != StatusOK {
						t.Fatalf("Put = %s, %v", StatusName(st), err)
					}
					// Leave a batch open, its clock armed, for the stop.
					if _, err := cl.start(OpPut, workloads.KVKey(9, 1), 1, 0); err != nil {
						t.Fatalf("start: %v", err)
					}
				}
				if err := stop(s); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				waitClockResources(t, fds, readers, "after "+name)
			})
		}
	}

	t.Run("New fails", func(t *testing.T) {
		cfg := testCfg(t, lpstore.ModeLP)
		// Room for two more descriptors: the backing file and the first
		// shard's clock. The second clock's timerfd_create gets EMFILE.
		// (A clock made and closed first has the poller set up already.)
		c, err := newSealClock()
		if err != nil {
			t.Fatalf("newSealClock: %v", err)
		}
		c.close()
		var lim syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Fatalf("getrlimit: %v", err)
		}
		free := 0
		for n := 0; ; n++ {
			if _, err := os.Readlink("/proc/self/fd/" + strconv.Itoa(n)); err != nil {
				if free++; free == 2 {
					tight := lim
					tight.Cur = uint64(n) + 1
					if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &tight); err != nil {
						t.Fatalf("setrlimit: %v", err)
					}
					break
				}
			}
		}
		_, err = New(cfg)
		if rerr := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); rerr != nil {
			t.Fatalf("restoring the descriptor limit: %v", rerr)
		}
		if err == nil || !strings.Contains(err.Error(), "timerfd_create") {
			t.Fatalf("New under a 2-descriptor headroom = %v, want the second clock's timerfd_create error", err)
		}
		waitClockResources(t, fds, readers, "after the failed New")
		ents, _ := os.ReadDir("/proc/self/fd")
		for _, e := range ents {
			if l, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); l == cfg.Path {
				t.Fatalf("the failed New left %s open", cfg.Path)
			}
		}
	})
}
