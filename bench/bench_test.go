package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// TestSpecMatchesTables holds BENCHMARK.json and the benchmark's own
// tables in step, and checks the contract's limits on the file.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", wl, workloadNames)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("counts %d/%d/%d exceed 8/16/128", len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		var gn []string
		for i, m := range got {
			gn = append(gn, m.Name)
			if seen[m.Name] {
				t.Errorf("%s %s: name used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s (%s): bad name or unit", kind, m.Name, m.Unit)
			}
			if i < len(want) && m.Unit != want[i].Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, want[i].Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: end-to-end metrics carry a bound in (0, 0.25], per-layer metrics none", kind, m.Name)
			}
		}
		if !slices.Equal(gn, names(want)) {
			t.Errorf("%s: BENCHMARK.json has\n%v\nthe benchmark reports\n%v", kind, gn, names(want))
		}
	}
	for _, w := range wl {
		seen[w] = true
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if !slices.ContainsFunc(spec.EndToEnd, func(m specMetric) bool {
		return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}) {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestEveryWorkloadAtSmallScale runs all seven workloads traced at
// 1/100 scale and checks what they report: only named metrics, every
// end-to-end metric present and nonzero, no failed operation, and a
// span file whose phases tile each workload.
func TestEveryWorkloadAtSmallScale(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		known[d.Name] = true
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opt := options{seed: 1, seconds: 0.2, trace: true, dir: t.TempDir(), scale: 0.01}
			res, err := runWorkload(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for k := range res.Metrics {
				if !known[k] {
					t.Errorf("metric %q is reported but not named in spec.go", k)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			for _, d := range perLayer {
				if layerLoop(d.Name) && res.Metrics[d.Name] <= 0 {
					t.Errorf("layer-pass metric %s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			line := resultLine(res, reported(true))
			var parsed struct {
				Metrics map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed.Metrics) != len(perLayer) {
				t.Errorf("result line: %v, %d metrics, want %d", err, len(parsed.Metrics), len(perLayer))
			}
			checkSpans(t, filepath.Join(opt.dir, "trace-"+name+".jsonl"), name)
		})
	}
}

// layerLoop reports whether a per-layer metric comes from the layer
// pass, which runs for every workload.
func layerLoop(name string) bool {
	for _, p := range []string{"wire.", "lpstore.", "checksum.", "obs.", "workloads.", "loadmodel."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	byName := map[string]span{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Workload != workload || s.End < s.Start || s.ID == 0 {
			t.Fatalf("bad span %+v", s)
		}
		byName[s.Name] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	// Self time = duration − children. Phases tile their parent, so the
	// parent's self time is under 1% of it.
	for _, parent := range []string{"workload", "layers"} {
		p, ok := byName[parent]
		if !ok {
			t.Fatalf("no %q span", parent)
		}
		self := p.End - p.Start
		for _, c := range children[p.ID] {
			self -= c.End - c.Start
		}
		if self < 0 || float64(self) > 0.01*float64(p.End-p.Start) {
			t.Errorf("%s: self time %d ns of %d ns: children do not tile it", parent, self, p.End-p.Start)
		}
	}
	var phases []string
	for _, c := range children[byName["workload"].ID] {
		phases = append(phases, c.Name)
	}
	if slices.ContainsFunc(servingSpecs, func(sp servingSpec) bool { return sp.name == workload }) {
		if want := []string{"setup", "warm", "measure", "drain", "verify", "close"}; !slices.Equal(phases, want) {
			t.Errorf("phases %v, want %v", phases, want)
		}
		if _, ok := byName["client.op"]; !ok {
			t.Error("no client.op span")
		}
		if n := len(children[byName["measure"].ID]); n != driverConns {
			t.Errorf("measure has %d conn spans, want %d", n, driverConns)
		}
	}
	for _, d := range perLayer {
		if _, ok := byName["layer."+d.Name]; layerLoop(d.Name) && !ok {
			t.Errorf("layer loop %s has no span", d.Name)
		}
	}
}

// TestCompare checks -compare's verdicts: the same numbers compare
// clean, a metric worse than its bound does not, and neither does a
// different environment.
func TestCompare(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	write := func(name string, doc document) string {
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := func() document {
		r := newResult("put_sat")
		r.Correct = true
		for _, d := range endToEnd {
			r.set(d.Name, 100)
		}
		return document{Env: envStamp{GoVersion: "go", NProc: 2, GOMAXPROCS: 2}, Results: []*result{r}}
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	a := write("a.json", base())
	run := func(b document) bool {
		ok, err := compareFiles(&strings.Builder{}, specPath, a, write("b.json", b))
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !run(base()) {
		t.Error("identical results compare as different")
	}
	for _, m := range spec.EndToEnd {
		worse, better := base(), base()
		delta := 100 * (*m.Bound + 0.01)
		if m.Better == "higher" {
			delta = -delta
		}
		worse.Results[0].Metrics[m.Name] += delta
		better.Results[0].Metrics[m.Name] -= delta
		if run(worse) {
			t.Errorf("%s worse by more than its bound compares clean", m.Name)
		}
		if !run(better) {
			t.Errorf("%s better by more than its bound is flagged", m.Name)
		}
	}
	other := base()
	other.Env.NProc = 4
	if run(other) {
		t.Error("a different environment compares clean")
	}
}
