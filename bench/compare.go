package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json, the contract the driver checks the
// benchmark against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadSet reads a comma-separated list of -out files as one set of
// runs: per workload, every metric is the median over the files and the
// set is correct only if every run was. One file is a set of one.
func loadSet(paths string) (document, error) {
	var set document
	values := map[string]map[string][]float64{} // workload → metric → one value per file
	merged := map[string]*result{}
	for i, path := range strings.Split(paths, ",") {
		var doc document
		if err := readJSON(path, &doc); err != nil {
			return set, err
		}
		if i == 0 {
			set.Env = doc.Env
		}
		set.Trace = set.Trace || doc.Trace
		for _, r := range doc.Results {
			if merged[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
				merged[r.Workload] = newResult(r.Workload)
				merged[r.Workload].Correct = true
				set.Results = append(set.Results, merged[r.Workload])
			}
			for name, v := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], v)
			}
			merged[r.Workload].Correct = merged[r.Workload].Correct && r.Correct
		}
	}
	for _, r := range set.Results {
		for name, vs := range values[r.Workload] {
			r.Metrics[name] = quantileOf(vs, 0.5)
		}
	}
	return set, nil
}

// compareFiles prints, for every (workload, end-to-end metric) of two
// sets of -out files, both medians, how much worse b's is than a's and
// the metric's bound, and reports whether b is inside every bound and
// was taken in the same environment. It is the tool for the
// two-sets-of-runs criterion: same code twice must compare clean.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	a, err := loadSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadSet(bPath)
	if err != nil {
		return false, err
	}
	if a.Trace || b.Trace {
		return false, fmt.Errorf("-compare reads untraced results: end-to-end metrics are taken with tracing off")
	}
	ok := true
	ea, eb := a.Env, b.Env
	if ea.GoVersion != eb.GoVersion || ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.FSType != eb.FSType {
		fmt.Fprintf(w, "environment differs: %s/%d cpus/GOMAXPROCS %d/fs %s vs %s/%d cpus/GOMAXPROCS %d/fs %s\n",
			ea.GoVersion, ea.NProc, ea.GOMAXPROCS, ea.FSType, eb.GoVersion, eb.NProc, eb.GOMAXPROCS, eb.FSType)
		ok = false
	}
	bByName := map[string]*result{}
	for _, r := range b.Results {
		bByName[r.Workload] = r
	}
	fmt.Fprintf(w, "a = %s\nb = %s\n%-14s %-12s %14s %14s %9s %7s\n", aPath, bPath, "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.Results {
		rb := bByName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", ra.Workload)
			ok = false
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s incorrect run (a %v, b %v)\n", ra.Workload, ra.Correct, rb.Correct)
			ok = false
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if m.Bound == nil || va == 0 {
				return false, fmt.Errorf("%s: end-to-end metric %s has no bound or reads 0", ra.Workload, m.Name)
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > *m.Bound {
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				ra.Workload, m.Name, va, vb, 100*worse, 100**m.Bound, verdict)
		}
	}
	return ok, nil
}
