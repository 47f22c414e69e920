package harness

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// expPlan is E17: the capacity planner validated against the live
// service. Per built-in spec, the same deterministic op stream is (a)
// replayed on its schedule against a fresh server and (b) run through
// the planner's discrete-event model, and the predicted vs measured
// throughput and latency land side by side with their relative error.
// steady runs first and is the calibration workload: the planner's
// constants are read off its server's own stage histograms
// (loadmodel.Calibrate) before any spec is predicted. Native:
// wall-clock latency on a live TCP server, so the runner executes it
// alone.
func expPlan(w io.Writer, o Options) error {
	dir, err := os.MkdirTemp("", "lpplan-e17-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := kvserve.Config{
		Addr: "127.0.0.1:0", Mode: lpstore.ModeLP,
		Shards: 4, Capacity: 1 << 15, MaxOps: 1 << 18, BatchK: 32,
		Streams: 4, Keys: 2048, Seed: 1,
		// BatchWait 2ms, not the 500µs the serve experiments use: at
		// E17's offered rates every batch seals by timer, so the put
		// tail is deadline-dominated either way — and a deadline well
		// above this host's timer-tick jitter keeps the unmodelable
		// wake-up noise a small fraction of the path being predicted.
		Mailbox: 256, BatchWait: 2 * time.Millisecond,
	}
	rate, dur, trials := 1.0, "2s", 3
	if o.Quick {
		rate, dur, trials = 0.1, "700ms", 1
	}

	boot := func(tag string) (*kvserve.Server, error) {
		c := cfg
		c.Path = filepath.Join(dir, tag+".img")
		s, err := kvserve.New(c)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", tag, err)
		}
		if err := s.Start(); err != nil {
			s.Close()
			return nil, fmt.Errorf("plan %s: %w", tag, err)
		}
		return s, nil
	}

	scrape := func(s *kvserve.Server) (obs.Scrape, error) {
		var b bytes.Buffer
		if err := s.Metrics().WriteProm(&b); err != nil {
			return nil, err
		}
		return obs.ReadProm(&b)
	}

	pcfg := loadmodel.PlanConfig{
		Shards: cfg.Shards, BatchK: cfg.BatchK, Mailbox: cfg.Mailbox,
		PipelineDepth: 4, BatchWaitNs: cfg.BatchWait.Nanoseconds(),
		Conns: 4,
	}

	relErr := func(pred, meas float64) float64 {
		if meas == 0 {
			return 0
		}
		return math.Abs(pred-meas) / meas
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "spec\tops\tthr pred (ops/s)\tthr live\terr\tput p99 pred (µs)\tput p99 live\terr\tp50 pred/live (µs)\trej pred/live")
	// steady is the calibration workload, so its row is a fit, not a
	// prediction — the asterisk marks that. bursty and mixed are held
	// out: the planner never sees their live numbers before predicting.
	for _, name := range []string{"steady", "bursty", "mixed"} {
		spec, err := loadmodel.BuiltinSpec(name, rate, dur)
		if err != nil {
			return err
		}
		ops, err := loadmodel.Generate(spec)
		if err != nil {
			return err
		}

		// A 1-CPU host's scheduler can stall any single run for
		// milliseconds and blow up that run's measured tail; the
		// median-by-put-p99 trial is the representative one.
		type trial struct {
			meas *loadmodel.Report
			cal  loadmodel.Calibration
		}
		runs := make([]trial, 0, trials)
		for t := 0; t < trials; t++ {
			s, err := boot(fmt.Sprintf("%s-%d", name, t))
			if err != nil {
				return err
			}
			cal, meas, err := loadmodel.CalibrationRun(s.Addr(), loadmodel.TraceOf(spec, ops), pcfg,
				func() (obs.Scrape, error) { return scrape(s) })
			if cerr := s.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("drain: %w", cerr)
			}
			if err != nil {
				return fmt.Errorf("plan %s: %w", name, err)
			}
			runs = append(runs, trial{meas, cal})
		}
		sort.Slice(runs, func(i, j int) bool {
			return runs[i].meas.Total.PutP99us < runs[j].meas.Total.PutP99us
		})
		meas := runs[len(runs)/2].meas

		tag := name
		if name == "steady" {
			cal := runs[len(runs)/2].cal
			pcfg.Cal = cal
			fmt.Fprintf(w, "calibration (steady's server): get %.1fµs put %.1fµs flush %.1fµs rtt %.1fµs seal-lag %.1fµs\n",
				cal.GetSvcNs/1e3, cal.PutSvcNs/1e3, cal.FlushNs/1e3, cal.NetRTTNs/1e3, cal.SealLagNs/1e3)
			tag = "steady*"
		}
		pred := loadmodel.Plan(spec, ops, pcfg)

		thrErr := relErr(pred.Total.OKOpsS, meas.Total.OKOpsS)
		p99Err := relErr(pred.Total.PutP99us, meas.Total.PutP99us)
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.1f%%\t%.0f\t%.0f\t%.1f%%\t%.0f/%.0f\t%.3f/%.3f\n",
			tag, len(ops),
			pred.Total.OKOpsS, meas.Total.OKOpsS, 100*thrErr,
			pred.Total.PutP99us, meas.Total.PutP99us, 100*p99Err,
			pred.Total.P50us, meas.Total.P50us,
			pred.Total.RejectRate, meas.Total.RejectRate)
		for i, cp := range pred.Classes {
			mp := meas.Classes[i]
			fmt.Fprintf(tw, "  %s\t%d\t%.0f\t%.0f\t%.1f%%\t%.0f\t%.0f\t%.1f%%\t%.0f/%.0f\t%.3f/%.3f\n",
				cp.Name, cp.Ops,
				cp.OKOpsS, mp.OKOpsS, 100*relErr(cp.OKOpsS, mp.OKOpsS),
				cp.PutP99us, mp.PutP99us, 100*relErr(cp.PutP99us, mp.PutP99us),
				cp.P50us, mp.P50us, cp.RejectRate, mp.RejectRate)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "* calibration workload: the constants come from its own server, so its row is a fit; bursty and mixed are held-out predictions")
	return nil
}
