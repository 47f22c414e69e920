package kvserve

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// preloadOf is the dataset a fresh boot of cfg must hold, and nothing else.
func preloadOf(cfg Config) map[uint64]uint64 {
	cfg = cfg.withDefaults()
	out := make(map[uint64]uint64)
	for tid := 0; tid < cfg.Streams; tid++ {
		for i := 0; i < cfg.Keys; i++ {
			k := workloads.KVKey(tid, i)
			out[k] = workloads.KVInitVal(cfg.Seed, k)
		}
	}
	return out
}

// TestFirstBootKilledAtEveryStep: New's first boot is re-entrant. The
// file is built as a SIGKILL would leave it after each step of the boot
// order (size → format → preload → header, the header last), and as the
// header-first order of earlier versions could leave it; New on each
// must return a server holding exactly the preload with nothing
// acknowledged, that verifies and serves. Every state without a header
// restarts the boot from a blank file, under any mode, and ends
// byte-identical to an undisturbed boot.
func TestFirstBootKilledAtEveryStep(t *testing.T) {
	for _, mode := range []lpstore.Mode{lpstore.ModeLP, lpstore.ModeEP, lpstore.ModeWAL} {
		cfg := testCfg(t, mode)
		ref, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: reference boot: %v", mode, err)
		}
		allocs := ref.mem.Allocations()
		ref.Abort()
		full, err := os.ReadFile(cfg.Path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		noHeader := func(img []byte) []byte {
			out := bytes.Clone(img)
			clear(out[:headerSize])
			return out
		}
		unpreloaded := noHeader(full)
		for _, a := range allocs {
			if strings.HasSuffix(a.Name, ".tab") {
				clear(unpreloaded[headerSize+int(a.Base):][:a.Size])
			}
		}
		halfPreloaded := noHeader(full)
		for _, a := range allocs {
			if strings.HasSuffix(a.Name, ".tab") {
				clear(halfPreloaded[headerSize+int(a.Base)+a.Size/2:][:a.Size/2])
			}
		}
		blank := make([]byte, len(full))
		type state struct {
			name     string
			file     []byte
			restarts bool // no header: the boot starts over and must end at `full`
		}
		states := []state{
			{"created", nil, true},
			{"sized", blank, true},
			{"cut short while sizing", blank[:len(blank)/3], true},
			{"formatted, not preloaded", unpreloaded, true},
			{"half preloaded", halfPreloaded, true},
			{"preloaded, no header", noHeader(full), true},
			{"header written, nothing synced", full, false},
			{"header first: header only", full[:headerSize], true},
		}
		if mode == lpstore.ModeLP {
			// Header first, image blank: it reads as a restored image whose
			// tables lost everything, and LP's recovery rebuilds them from
			// the baseline. (The eager modes have no such repair, which is
			// why the header now comes last.)
			states = append(states, state{"header first: header and blank image",
				append(bytes.Clone(full[:headerSize]), blank[headerSize:]...), false})
		}
		for _, st := range states {
			t.Run(fmt.Sprintf("%s/%s", mode, st.name), func(t *testing.T) {
				if err := os.WriteFile(cfg.Path, st.file, 0o644); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if s.Restored() == st.restarts {
					t.Fatalf("Restored() = %v", s.Restored())
				}
				for _, rs := range s.RecoveryStats() {
					if rs.AckedPuts != 0 {
						t.Fatalf("shard %d acknowledges %d puts of a boot that served none", rs.Shard, rs.AckedPuts)
					}
				}
				if got, want := s.Contents(), preloadOf(cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("server holds %d keys, want exactly the %d preloaded", len(got), len(want))
				}
				if err := s.VerifyRecovered(); err != nil {
					t.Fatalf("VerifyRecovered: %v", err)
				}
				if st.restarts {
					if got, _ := os.ReadFile(cfg.Path); !bytes.Equal(got, full) {
						t.Fatal("the restarted boot's file differs from an undisturbed boot's")
					}
				}
				if err := s.Start(); err != nil {
					t.Fatalf("Start: %v", err)
				}
				defer s.Close()
				if status, err := dial(t, s.Addr()).Put(workloads.KVKey(9, 1), 77); err != nil || status != StatusOK {
					t.Fatalf("Put = %s, %v", StatusName(status), err)
				}
			})
		}
	}
}

// TestUseAfterCloseIsAnError: Close and Abort unmap the image, and the
// calls that would read it afterwards say so by name — an error where
// the signature has one, a panic that names the call where it has not —
// instead of faulting on an unmapped page.
func TestUseAfterCloseIsAnError(t *testing.T) {
	for name, stop := range map[string]func(*Server) error{"Close": (*Server).Close, "Abort": (*Server).Abort} {
		t.Run(name, func(t *testing.T) {
			s, err := New(testCfg(t, lpstore.ModeLP))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			addr := s.shards[0].sh.Jrn.Addr(0)
			if err := stop(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s.pf.img != nil || s.mem.Size() != 0 {
				t.Fatalf("%s left an image mapped or attached", name)
			}
			if err := s.VerifyRecovered(); err == nil || !strings.Contains(err.Error(), "VerifyRecovered after") {
				t.Fatalf("VerifyRecovered after %s = %v", name, err)
			}
			for call, use := range map[string]func(){
				"Contents":      func() { s.Contents() },
				"DurableLoad64": func() { s.mem.DurableLoad64(addr) },
			} {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), call) {
							t.Fatalf("%s after %s: recovered %v, want a panic naming the call", call, name, r)
						}
					}()
					use()
				}()
			}
		})
	}
}

// TestVerifyRecoveredRefusedAfterStart: a second recovery pass needs a
// journal and a table nobody is writing — under live owners its replay
// and repair would race their stores — so once Start has run it is an
// error, and the acked puts stay.
func TestVerifyRecoveredRefusedAfterStart(t *testing.T) {
	s := startServer(t, testCfg(t, lpstore.ModeLP))
	defer s.Close()
	cl := dial(t, s.Addr())
	k := workloads.KVKey(9, 1)
	if st, err := cl.Put(k, 77); err != nil || st != StatusOK {
		t.Fatalf("Put = %s, %v", StatusName(st), err)
	}
	if err := s.VerifyRecovered(); err == nil || !strings.Contains(err.Error(), "VerifyRecovered after Start") {
		t.Fatalf("VerifyRecovered on a started server = %v, want an error naming Start", err)
	}
	if v, st, err := cl.Get(k); err != nil || st != StatusOK || v != 77 {
		t.Fatalf("Get after the refused pass = %d, %s, %v; want 77, ok", v, StatusName(st), err)
	}
}

// TestBootLeavesARecord: a boot says what it was and what it cost — in
// the registry and as one trace event — and a fresh boot's cost is its
// tables and ack slots, not its journal; a restored boot of a drained
// image stores nothing.
func TestBootLeavesARecord(t *testing.T) {
	cfg := testCfg(t, lpstore.ModeLP)
	cfg.MaxOps = 1 << 18
	for restored, kind := range []string{"fresh", "restored"} {
		cfg.Registry, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(16)
		cfg.Tracer.Enable(true)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s boot: %v", kind, err)
		}
		image := s.mem.Size()
		persisted := 0 // a restored boot of a drained image repairs and truncates nothing
		if kind == "fresh" {
			for _, sd := range s.shards {
				persisted += 16*sd.sh.Tab.Cap() + 8*sd.sh.Ack.Slots()
			}
			if persisted >= image/4 {
				t.Fatalf("the test's geometry lets tables and ack slots (%d bytes) reach a quarter of the image (%d)", persisted, image)
			}
		}
		var prom bytes.Buffer
		if err := cfg.Registry.WriteProm(&prom); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		for _, line := range []string{
			fmt.Sprintf(`kvserve_boot_seconds_count{kind=%q} 1`, kind),
			fmt.Sprintf("kvserve_image_bytes %d", image),
			fmt.Sprintf("kvserve_boot_persisted_bytes %d", persisted),
		} {
			if !strings.Contains(prom.String(), line+"\n") {
				t.Fatalf("%s boot: registry lacks %q in\n%s", kind, line, prom.String())
			}
		}
		var boots []obs.Event
		for _, ev := range cfg.Tracer.Drain(0) {
			if ev.Type == obs.EvBoot {
				boots = append(boots, ev)
			}
		}
		if len(boots) != 1 || boots[0].A != uint64(restored) || boots[0].B != uint64(persisted) {
			t.Fatalf("%s boot traced %+v, want one boot event (%d, %d)", kind, boots, restored, persisted)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}
