package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
)

// expServe is E15: the deployed kvserve service measured end to end —
// real TCP connections, a real backing file as the NVMM, wall-clock
// throughput and latency per persistence discipline. It then restarts
// the LP image and verifies recovery, the acked-prefix contract the
// crash test enforces under SIGKILL. Native: timing on the host clock,
// so the runner executes it alone.
func expServe(w io.Writer, o Options) error {
	dir, err := os.MkdirTemp("", "lpserve-e15-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Journal sizing: a put is one record however its batch sealed, so a
	// shard's journal holds a round's Conns*Ops/2 puts even if every one
	// of them hashed to it.
	cfg := kvserve.Config{
		Addr: "127.0.0.1:0", Mode: lpstore.ModeLP,
		Shards: 4, Capacity: 1 << 14, MaxOps: 1 << 14, BatchK: 16,
		Streams: 4, Keys: 2048, Seed: 1,
		Mailbox: 256, BatchWait: 500 * time.Microsecond,
	}
	load := loadmodel.MixLoad{
		Mix: "a", Dist: "zipfian", Ops: 10000,
		Streams: cfg.Streams, Keys: cfg.Keys, Seed: cfg.Seed,
	}
	if o.Quick {
		cfg.Shards, cfg.Capacity, cfg.MaxOps = 2, 1<<12, 1<<10
		cfg.Streams, cfg.Keys = 2, 256
		load.Streams, load.Keys = cfg.Streams, cfg.Keys
		load.Ops = 300
	}

	modes := []lpstore.Mode{lpstore.ModeBase, lpstore.ModeLP, lpstore.ModeEP, lpstore.ModeWAL}
	round := func(tw io.Writer, cfg kvserve.Config, load loadmodel.MixLoad, tag string) (kvserve.Config, error) {
		var lpCfg kvserve.Config
		for _, m := range modes {
			if cfg.Fsync && m == lpstore.ModeBase {
				continue // base has no ordering points to price
			}
			c := cfg
			c.Mode = m
			c.Path = filepath.Join(dir, m.String()+tag+".img")
			if m == lpstore.ModeLP {
				lpCfg = c
			}
			s, err := kvserve.New(c)
			if err != nil {
				return lpCfg, fmt.Errorf("serve %s: %w", m, err)
			}
			if err := s.Start(); err != nil {
				s.Close()
				return lpCfg, fmt.Errorf("serve %s: %w", m, err)
			}
			rep, lerr := loadmodel.Run(s.Addr(), load, loadmodel.Options{Conns: 2, Window: 64, MaxRetries: 8})
			st := s.Stats()
			if err := s.Close(); err != nil {
				return lpCfg, fmt.Errorf("serve %s: drain: %w", m, err)
			}
			if lerr != nil {
				return lpCfg, fmt.Errorf("serve %s: load: %w", m, lerr)
			}
			if rep.Errors > 0 {
				return lpCfg, fmt.Errorf("serve %s: %d connection errors", m, rep.Errors)
			}
			fmt.Fprintf(tw, "%s%s\t%d\t%.0f\t%d\t%d\t%.0f\t%.0f\t%d/%d\n",
				m, tag, rep.Ops, rep.Throughput, st.AckedPuts, st.Batches,
				rep.Total.P50us, rep.Total.P99us, rep.Total.Overloads, rep.Total.Full)
		}
		return lpCfg, nil
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "backend\tops\tthroughput (ops/s)\tacked puts\tbatches\tp50 (µs)\tp99 (µs)\toverload/full")
	lpCfg, err := round(tw, cfg, load, "")
	if err != nil {
		return err
	}
	// Second round with every ordering point priced at a real fsync:
	// EP/WAL pay one or more per put, LP amortizes one per K-put batch.
	// Fewer ops — fsync is the point, not the sample size.
	fcfg := cfg
	fcfg.Fsync = true
	fload := load
	fload.Ops = 1000
	if o.Quick {
		fload.Ops = 50
	}
	if _, err := round(tw, fcfg, fload, "+fsync"); err != nil {
		return err
	}

	// The durability half: reopen the LP image cold and hold it to the
	// recovery contract a graceful drain promises — zero repair.
	s, err := kvserve.New(lpCfg)
	if err != nil {
		return fmt.Errorf("lp restart: %w", err)
	}
	if !s.Restored() {
		s.Close()
		return fmt.Errorf("lp restart did not detect the image")
	}
	var acked int
	for _, st := range s.RecoveryStats() {
		if !st.Verified || st.Repaired != 0 {
			s.Close()
			return fmt.Errorf("lp restart: shard %d not clean after drain: %+v", st.Shard, st)
		}
		acked += st.AckedPuts
	}
	verr := s.VerifyRecovered()
	keys := len(s.Contents())
	if err := s.Close(); err != nil {
		return fmt.Errorf("lp restart: close: %w", err)
	}
	if verr != nil {
		return fmt.Errorf("lp restart: %w", verr)
	}
	fmt.Fprintf(tw, "lp restart\t\t\t\t\t\t\t%d journal records, %d keys, verified, 0 repairs\n", acked, keys)
	return tw.Flush()
}
