// Command lptrace assembles cross-node request timelines from trace
// drains. Each input is a JSONL file as written by a /debug/trace
// drain (lpserve, lprouter, cluster nodes) or by lpload -span-out;
// lptrace merges them by trace ID, orders each request's events on
// the shared host clock, and prints per-request timelines plus an
// aggregate stage breakdown answering "where did my p99 go?".
//
// Inputs are name=path pairs; the name tags each event's origin in
// the timeline ("client", "router", "n0"...). A bare path uses the
// file's base name.
//
// Usage:
//
//	lptrace client=client.jsonl router=router.jsonl n0=n0.jsonl n1=n1.jsonl
//	lptrace -json n0.jsonl n1.jsonl
//	lptrace -vs-plan plan.json client=client.jsonl n0=n0.jsonl
//	lptrace -cross-only -n 5 client=c.jsonl router=r.jsonl n0=a.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lazyp/internal/loadmodel"
	"lazyp/internal/obs"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lptrace: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit assembled timelines and the stage summary as JSON")
		maxTL     = flag.Int("n", 10, "print at most this many timelines (0 = summary only, -1 = all)")
		crossOnly = flag.Bool("cross-only", false, "keep only timelines spanning two or more drains")
		traceID   = flag.Uint64("trace", 0, "show only this trace ID (decimal)")
		vsPlan    = flag.String("vs-plan", "", "diff the measured stage means against this lpplan -json report")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		die("need at least one drain: name=path or path (see -h)")
	}

	drains := map[string][]obs.Event{}
	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			path = arg
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		f, err := os.Open(path)
		if err != nil {
			die("%v", err)
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			die("%s: %v", path, err)
		}
		drains[name] = append(drains[name], evs...)
	}

	timelines := obs.AssembleTimelines(drains)
	kept := timelines[:0]
	for _, tl := range timelines {
		if (*traceID == 0 || tl.Trace == *traceID) && (!*crossOnly || tl.CrossNode()) {
			kept = append(kept, tl)
		}
	}
	timelines = kept

	// Aggregate the stage breakdown over every kept timeline.
	var hists [obs.NumStages]obs.Histogram
	cross := 0
	for i := range timelines {
		tl := &timelines[i]
		if tl.CrossNode() {
			cross++
		}
		for st := range obs.NumStages {
			if ns, ok := tl.Stage(st.Span()); ok {
				hists[st].Observe(uint64(ns))
			}
		}
	}

	if *jsonOut {
		emitJSON(timelines, &hists, cross)
		return
	}

	fmt.Printf("lptrace: %d drains, %d timelines (%d cross-node)\n", len(drains), len(timelines), cross)
	limit := len(timelines)
	if *maxTL >= 0 && *maxTL < limit {
		limit = *maxTL
	}
	for i := 0; i < limit; i++ {
		printTimeline(&timelines[i])
	}
	if limit < len(timelines) {
		fmt.Printf("... %d more timelines (raise -n)\n", len(timelines)-limit)
	}

	fmt.Println("stage breakdown (means across timelines with both endpoints):")
	for st := range obs.NumStages {
		a := hists[st].Snapshot()
		if a.Count == 0 {
			continue
		}
		from, to := st.Span()
		fmt.Printf("  %-6s %9.1fµs mean  %9.1fµs max  (%d samples, %s → %s)\n",
			st, a.Mean()/1e3, float64(a.Max)/1e3, a.Count, from, to)
	}

	if *vsPlan != "" {
		diffPlan(*vsPlan, &hists)
	}
}

// printTimeline renders one request as a text flame: each event at
// its offset from the timeline's first event, with a proportional
// gutter bar so the expensive gap is visible at a glance.
func printTimeline(tl *obs.Timeline) {
	first := tl.Events[0].TS
	last := tl.Events[len(tl.Events)-1].TS
	total := last - first
	fmt.Printf("trace %d  nodes=%s  total=%.1fµs\n",
		tl.Trace, strings.Join(tl.Nodes(), ","), float64(total)/1e3)
	const width = 40
	for _, e := range tl.Events {
		off := e.TS - first
		bar := 0
		if total > 0 {
			bar = int(off * width / total)
		}
		fmt.Printf("  %+10.1fµs  |%-*s  %-8s %-15s src=%d b=%d\n",
			float64(off)/1e3, width, strings.Repeat("-", bar)+"*",
			e.Node, e.Type.String(), e.Src, e.B)
	}
}

// diffPlan loads an lpplan -json report (object or sweep array; the
// first entry wins) and prints measured-vs-modeled means for every stage
// the model predicts, then the measured route+reply hops against the
// model's single round-trip constant.
func diffPlan(path string, hists *[obs.NumStages]obs.Histogram) {
	data, err := os.ReadFile(path)
	if err != nil {
		die("%v", err)
	}
	var rep loadmodel.PlanReport
	if err := json.Unmarshal(data, &rep); err != nil {
		var reps []loadmodel.PlanReport
		if err2 := json.Unmarshal(data, &reps); err2 != nil || len(reps) == 0 {
			die("-vs-plan %s: not a PlanReport: %v", path, err)
		}
		rep = reps[0]
	}
	fmt.Printf("vs plan %s (spec %s, calibration %s):\n", path, rep.Spec, rep.Cfg.Cal.Source)
	row := func(name string, meas, plan float64, note string) {
		fmt.Printf("  %-6s measured %9.1fµs  plan %9.1fµs  delta %+9.1fµs%s\n",
			name, meas, plan, meas-plan, note)
	}
	for stage, plan := range rep.Stages {
		if plan > 0 {
			row(obs.Stage(stage).String(), hists[stage].Snapshot().Mean()/1e3, plan, "")
		}
	}
	rtt := hists[obs.StageRoute].Snapshot().Mean() + hists[obs.StageReply].Snapshot().Mean()
	row("rtt", rtt/1e3, rep.Cfg.Cal.NetRTTNs/1e3, "  (measured: route+reply hops)")
}

// jsonTimeline is the -json shape for one assembled request.
type jsonTimeline struct {
	Trace  uint64      `json:"trace"`
	Nodes  []string    `json:"nodes"`
	Cross  bool        `json:"cross_node"`
	UsTot  float64     `json:"total_us"`
	Events []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Node  string  `json:"node"`
	Type  string  `json:"type"`
	OffUs float64 `json:"off_us"`
	TS    int64   `json:"ts"`
	Src   int32   `json:"src"`
	B     uint64  `json:"b"`
}

func emitJSON(timelines []obs.Timeline, hists *[obs.NumStages]obs.Histogram, cross int) {
	type stageOut struct {
		Stage   string  `json:"stage"`
		Samples uint64  `json:"samples"`
		MeanUs  float64 `json:"mean_us"`
		MaxUs   float64 `json:"max_us"`
	}
	out := struct {
		Timelines []jsonTimeline `json:"timelines"`
		CrossNode int            `json:"cross_node"`
		Stages    []stageOut     `json:"stages"`
	}{CrossNode: cross}
	for i := range timelines {
		tl := &timelines[i]
		first := tl.Events[0].TS
		jt := jsonTimeline{
			Trace: tl.Trace, Nodes: tl.Nodes(), Cross: tl.CrossNode(),
			UsTot: float64(tl.Events[len(tl.Events)-1].TS-first) / 1e3,
		}
		for _, e := range tl.Events {
			jt.Events = append(jt.Events, jsonEvent{
				Node: e.Node, Type: e.Type.String(),
				OffUs: float64(e.TS-first) / 1e3, TS: e.TS, Src: e.Src, B: e.B,
			})
		}
		out.Timelines = append(out.Timelines, jt)
	}
	for st := range obs.NumStages {
		a := hists[st].Snapshot()
		if a.Count == 0 {
			continue
		}
		out.Stages = append(out.Stages, stageOut{
			Stage: st.String(), Samples: a.Count, MeanUs: a.Mean() / 1e3, MaxUs: float64(a.Max) / 1e3,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
