package kvserve

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// TestRestartResumesMidWindow drives one shard by hand, as the stage
// benchmarks do (New, never Start: apply, seal and flushItem on this
// goroutine), through 200 crash-and-restart laps on one image. A lap
// applies a few puts, seals them short of K and flushes; then leaves a
// tail that must not survive — puts never sealed whose table lines all
// leaked, or a sealed batch of which only journal lines reached the file —
// and dies. Every New resumes inside a window, and finds: a verified
// image holding exactly the acked puts, a journal with no zero key inside
// the acked prefix and nothing but zeroes beyond it.
func TestRestartResumesMidWindow(t *testing.T) {
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			cfg := testCfg(t, lpstore.ModeLP)
			cfg.Shards, cfg.Streams, cfg.BatchK, cfg.MaxOps = 1, 1, k, 1<<13
			cfg.BatchWait = time.Hour // only the test seals short
			rng := rand.New(rand.NewSource(int64(k)))
			cn := absorbConn()
			model := map[uint64]uint64{} // the preload, then every acked put
			acked, midWindow := 0, 0
			for lap := 0; lap < 200; lap++ {
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("lap %d: New: %v", lap, err)
				}
				sd := s.shards[0]
				if lap == 0 {
					for _, kv := range sd.baseline {
						model[kv[0]] = kv[1]
					}
				}
				if err := s.VerifyRecovered(); err != nil {
					t.Fatalf("lap %d: %v", lap, err)
				}
				if got := sd.w.Seq(); got != acked {
					t.Fatalf("lap %d: the writer resumed at %d, want %d", lap, got, acked)
				}
				if acked%k != 0 {
					midWindow++
				}
				got := s.Contents()
				if len(got) != len(model) {
					t.Fatalf("lap %d: %d keys recovered, want %d", lap, len(got), len(model))
				}
				for key, val := range model {
					if got[key] != val {
						t.Fatalf("lap %d: key %#x = %d, want %d", lap, key, got[key], val)
					}
				}
				for i := 0; i < 2*cfg.MaxOps; i++ {
					switch w := s.mem.DurableLoad64(sd.sh.Jrn.Addr(i)); {
					case i < 2*acked && i%2 == 0 && w == 0:
						t.Fatalf("lap %d: journal record %d of %d acked has a zero key", lap, i/2, acked)
					case i >= 2*acked && w != 0:
						t.Fatalf("lap %d: journal word %d beyond the %d acked records holds %#x", lap, i, acked, w)
					}
				}

				// puts applies n puts — updates of preloaded keys and inserts —
				// and returns them; apply seals by itself at K pending.
				puts := func(n int) (run []request) {
					for i := 0; i < n; i++ {
						key := workloads.KVKey(0, rng.Intn(2*cfg.Keys))
						run = append(run, request{key: key, val: rng.Uint64() | 1, enq: time.Now(), cn: cn})
					}
					s.apply(sd, run)
					return run
				}
				// flush persists what is sealed: whole, or — torn — a batch's
				// journal lines only.
				flush := func(torn bool) {
					for len(sd.commitCh) > 0 {
						it := <-sd.commitCh
						if torn {
							jrn := 0 // the write set's journal lines: those below the ack table
							for it.lines[jrn] < sd.sh.Ack.SlotAddr(0) {
								jrn++
							}
							for i, la := range it.lines[:rng.Intn(jrn+1)] {
								s.mem.PersistLine(la, &it.bufs[i])
							}
							it.pending = it.pending[:0]
						} else {
							s.flushItem(sd, it)
						}
						sd.freeCh <- it
					}
				}
				run := puts(1 + rng.Intn(2*k))
				if len(sd.pending) > 0 {
					s.seal(sd, sealDeadline)
				}
				flush(false)
				for _, r := range run {
					model[r.key] = r.val
				}
				acked += len(run)

				puts(rng.Intn(k)) // the tail: fewer than K, so apply seals none of it
				if rng.Intn(2) == 0 && len(sd.pending) > 0 {
					s.seal(sd, sealDeadline)
					flush(true)
				}
				// Every table line the lap dirtied leaks.
				for leaked, _ := s.leakq.take(nil); leaked != nil; leaked, _ = s.leakq.take(nil) {
					for i := range leaked {
						s.mem.PersistLine(leaked[i].la, &leaked[i].buf)
					}
				}
				s.Abort()
			}
			if midWindow < 100 {
				t.Fatalf("only %d of 200 restarts resumed inside a window", midWindow)
			}
		})
	}
}

// TestOldImageRefused: a file of the padded-batch format is not replayed
// (its pad records would be puts of key ^0) but refused by name.
func TestOldImageRefused(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.OpenFile(cfg.Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("LPKVPM01"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = New(cfg)
	if want := `has image format "LPKVPM01", this build reads only "LPKVPM02"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New over a v1 image = %v, want an error saying it %s", err, want)
	}
}
