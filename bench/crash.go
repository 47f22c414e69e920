package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// crash_recover: the journal used the other way — replayed instead of
// appended. A saturating put load is cut by Server.Abort with both
// windows full; the crashed image is then recovered over and over for
// the length of the window, each time from a pristine copy, and every
// recovery is checked against what the driver was acked.
//
// The geometry is put_sat's at half the keys (Keys 1<<15, Capacity 1<<16
// per shard): a shard that repairs rebuilds its whole table through
// fileCtx, whose cost grows with the square of the table's lines — 1.3 s
// per shard at put_sat's size, 0.35 s here — and at put_sat's size a
// window holds two recoveries, too few to tell a disturbed one from an
// undisturbed one. MaxOps 1<<19 holds the hottest shard's 28% of a
// million puts at 54%.
//
// W is 128, not put_sat's 64: with 32 puts in flight per shard — exactly
// K — a shard's open batch is empty for much of the time, so whether a
// shard is left with ghost lines (and pays a rebuild at recovery) is a
// coin toss per shard. With 2K per shard four runs in five hit all four.
// W=192 overflows the 256-deep mailboxes (StatusOverload) when the reader
// hands slots back in bursts, with zipfian keys or uniform.
var crashSpec = servingSpec{
	name: "crash_recover", mix: mixPut, keys: 1 << 15, window: 128, warmOps: 0, maxOps: 1 << 19,
	journalPerPut: 0.28 / 0.75, stride: 4, primary: kindPut,
}

const (
	crashAfterAcks = 1_000_000 // puts acked before the abort
	minRecoveries  = 2
)

// copyFile overwrites dst with src and syncs, for the reason
// removeImages does: the blocks of the image it replaces are freed here,
// not inside the recovery that is timed next.
func copyFile(dst, src string) error {
	defer syscall.Sync()
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}

func runCrashRecover(opt options, rec *spanRec) (*result, error) {
	sp := crashSpec
	res := newResult(sp.name)
	root := rec.begin(0, "workload")
	ph := rec.begin(root, "setup")
	st, conns, setupS, err := sp.setUp(opt)
	if err != nil {
		return nil, err
	}
	srv := st.servers[0]
	image := st.paths[0]
	crashed := image + ".crashed"
	defer removeImages(image, crashed)

	// Load until the server has acked enough puts, then abort with both
	// windows full. The writers end on a dead socket: that is the
	// workload, not a failure, and the frames in flight are not attempts.
	ph = rec.next(ph, "load")
	target := uint64(float64(crashAfterAcks) * opt.scale)
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		runPhaseAll(conns, phase{maxOps: 1 << 40}) // ends when the abort kills the sockets
	}()
	for srv.Stats().AckedPuts < target {
		select {
		case <-loadDone:
			closeConns(conns)
			srv.Abort()
			return nil, fmt.Errorf("crash_recover: load ended after %d acks, before the abort at %d: %s",
				srv.Stats().AckedPuts, target, conns[0].firstBad)
		case <-time.After(time.Millisecond):
		}
	}
	ph = rec.next(ph, "crash")
	srv.Abort() // an aborted server reports no close error worth acting on
	<-loadDone
	closeConns(conns)
	var failed, okPuts uint64
	for _, c := range conns {
		res.Attempted += c.recv
		failed += c.failed - c.shutdowns
		okPuts += c.okPuts
		if c.firstBad != "" {
			res.note("%s", c.firstBad)
		}
	}
	sm := readServerSide(st, sp, opt, okPuts)
	if err := copyFile(crashed, image); err != nil {
		return nil, err
	}

	cfg := sp.config(opt, image)
	var recoverS []float64
	shardS := make([][]float64, cfg.Shards) // per shard: one recovery time per recovery
	var shards []lpstore.RecoverStats       // of the last recovery; the same image gives the same every time
	reps := minRecoveries
	if opt.scale < 1 {
		reps = 1 // bench_test.go
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i < reps || time.Now().Before(deadline); i++ {
		if i > 0 {
			if err := copyFile(image, crashed); err != nil {
				return nil, err
			}
		}
		ph = rec.next(ph, "recover#"+strconv.Itoa(i+1))
		t0 := time.Now()
		re, err := kvserve.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("crash_recover: recovery %d: %w", i+1, err)
		}
		recoverS = append(recoverS, time.Since(t0).Seconds())
		ph = rec.next(ph, "verify#"+strconv.Itoa(i+1))
		if !re.Restored() {
			re.Abort()
			return nil, fmt.Errorf("crash_recover: recovery %d opened a fresh image", i+1)
		}
		shards = re.RecoveryStats()
		for j, rs := range shards {
			shardS[j] = append(shardS[j], float64(rs.RecoverNs)/1e9)
		}
		if err := re.VerifyRecovered(); err != nil {
			res.note("recovery %d: %v", i+1, err)
			failed++
		}
		contents := re.Contents()
		for _, c := range conns {
			_, lost := checkFinal(c, opt.seed, sp, func(idx uint32) uint64 {
				return contents[workloads.KVKey(c.id, int(idx))]
			})
			if lost > 0 {
				res.note("recovery %d: conn %d: %d keys hold neither the last acked value nor a later one", i+1, c.id, lost)
				failed += uint64(lost)
			}
		}
		re.Abort()
		re, contents = nil, nil
		runtime.GC() // one image at a time, as in setUp
	}
	rec.end(ph)
	rec.end(root)
	// The unit operation is one shard's recovery, and only a shard the
	// crash left with ghost lines pays for the crash: it rebuilds, ten
	// times the work of one that verifies clean. How many of the four
	// rebuild is up to the instant of the abort (one run in five leaves a
	// shard clean), so the figures are taken over the shards that repaired:
	// each one's time is the undisturbed quartile of its recoveries,
	// ops_per_s is their journal records per second of their recovery,
	// p50 and p90 are taken over them.
	var records, repaired, repairedShards int
	var firstS float64
	for j, rs := range shards {
		records += rs.AckedPuts
		repaired += rs.Repaired
		firstS += shardS[j][0]
		if rs.Repaired > 0 {
			repairedShards++
		}
	}
	if records == 0 {
		return nil, fmt.Errorf("crash_recover: recovery acknowledged no journal records")
	}
	var shardT []float64
	var busyS float64
	var busyRecords int
	for j, rs := range shards {
		if rs.Repaired == 0 && repairedShards > 0 {
			continue
		}
		t := quantileOf(shardS[j], undisturbedTime)
		shardT = append(shardT, t)
		busyS += t
		busyRecords += rs.AckedPuts
	}
	res.Failed = failed
	res.note("%d recoveries of %d journal records; %d of %d shards repaired (%d slots)",
		len(recoverS), records, repairedShards, len(shards), repaired)
	res.note("kvserve.New wall times %.2f s", recoverS)

	res.set("setup_s", setupS)
	res.set("ops_per_s", float64(busyRecords)/busyS)
	res.set("p50_us", medianOf(shardT)*1e6)
	res.set("p90_us", quantileOf(shardT, 0.90)*1e6)
	// what kvserve_recovery_seconds observes on the first recovery: its mean over the shards
	res.set("kvserve.recovery_s", firstS/float64(len(shards)))
	res.set("kvserve.recovered_puts", float64(records))
	res.set("kvserve.repaired_slots", float64(repaired))
	res.set("rss_peak_mb", rssPeakMB())
	for name, v := range sm {
		res.set(name, v)
	}
	return res, nil
}
