// Command bench is the repo's benchmark: seven workloads over the
// simulator, kvserve and the routed cluster, each booted in-process
// through public functions only and reported as named end-to-end and
// per-layer metrics. BENCHMARK.json at the repo root names the command,
// the workloads and every metric with its regression bound; README.md
// in this directory says why each is there.
//
//	go run -C bench . [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out file]
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// options is one run's input. The seed is the only workload input.
type options struct {
	seed    uint64
	seconds float64 // length of the measured window
	trace   bool    // traced run: per-layer metrics instead of end-to-end ones
	dir     string  // where backing images and the span file go
	// scale is 1 except in bench_test.go, which shrinks warm-up counts,
	// journals and layer-pass loops to run every workload in seconds.
	scale float64
}

// result is what one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// envStamp heads every result: what the numbers were taken on.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dir        string `json:"dir"`
	FSType     string `json:"fs_type"`
	Seed       uint64 `json:"seed"`
	// SleepOvershootUs is the median overshoot of time.Sleep(100µs)
	// over 200 sleeps — the host timer granularity that put_few's
	// latency is made of.
	SleepOvershootUs float64 `json:"sleep_overshoot_us"`
}

func stampEnv(opt options) envStamp {
	e := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Dir: opt.dir, FSType: "unknown", Seed: opt.seed,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(opt.dir, &fs) == nil {
		e.FSType = fmt.Sprintf("%#x", fs.Type)
	}
	over := make([]float64, 200)
	for i := range over {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		over[i] = float64(time.Since(t0)-100*time.Microsecond) / 1e3
	}
	e.SleepOvershootUs = quantileOf(over, 0.5)
	return e
}

// runWorkload runs one workload by name. A traced run also executes
// the layer pass and writes the span file.
func runWorkload(name string, opt options) (*result, error) {
	var rec *spanRec
	if opt.trace {
		rec = &spanRec{workload: name}
	}
	var res *result
	var err error
	switch name {
	case "crash_recover":
		res, err = runCrashRecover(opt, rec)
	case "sim_kernels":
		res, err = runSimKernels(opt, rec)
	default:
		i := slices.IndexFunc(servingSpecs, func(sp servingSpec) bool { return sp.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		res, err = runServing(servingSpecs[i], opt, rec)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		for k, v := range layerPass(rec, opt) {
			res.set(k, v)
		}
		path := filepath.Join(opt.dir, "trace-"+name+".jsonl")
		if err := rec.writeJSONL(path); err != nil {
			return nil, err
		}
		res.note("%d spans in %s", len(rec.spans), path)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// reported returns the metric set a run prints: end-to-end metrics on
// an untraced run, per-layer metrics on a traced one.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON object the run ends with.
func resultLine(res *result, defs []metricDef) string {
	ms := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		ms[d.Name] = jsonMetric{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

// document is the -out file: the environment stamp and every result.
type document struct {
	Env     envStamp  `json:"env"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all seven in order)")
	seed := flag.Uint64("seed", 1, "workload seed: the only input the workloads take")
	seconds := flag.Float64("seconds", 8, "length of each measured window")
	trace := flag.Int("trace", 0, "1 = traced run: spans, the layer pass and the per-layer metrics")
	dir := flag.String("dir", ".run", "directory for backing images and span files (created; images are removed)")
	out := flag.String("out", "", "also write the environment stamp and every result to this JSON file")
	compare := flag.Bool("compare", false, "compare two sets of -out files: bench -compare a.json b.json (a set may be a1.json,a2.json,...: medians are compared)")
	spec := flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, for -compare's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files or comma-separated sets of them"))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, scale: 1}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	doc := document{Env: stampEnv(opt), Trace: opt.trace}
	env, _ := json.Marshal(doc.Env) // plain data; cannot fail
	fmt.Printf("# env %s\n", env)
	defs := reported(opt.trace)
	allCorrect := true
	var last *result
	for _, name := range names {
		res, err := runWorkload(name, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# workload %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		for _, n := range res.Notes {
			fmt.Printf("# %s\n", n)
		}
		for _, d := range defs {
			fmt.Printf("%s %.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
		}
		allCorrect = allCorrect && res.Correct
		doc.Results = append(doc.Results, res)
		last = res
	}
	if *out != "" {
		b, _ := json.MarshalIndent(doc, "", " ") // plain data; cannot fail
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if len(names) == 1 {
		fmt.Println(resultLine(last, defs))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
