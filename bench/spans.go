package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one traced interval on the driver clock. Spans are recorded
// by the benchmark's own code around its calls into each layer; the
// tracer inside the program is neither enabled nor changed.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends. A nil *spanRec
// records nothing, which is how untraced runs pay nothing. It is used
// from one goroutine at a time: the workload's own.
type spanRec struct {
	workload string
	spans    []span
}

// add files a span with both ends known under parent and returns its
// id. Every other recording method is built on it.
func (r *spanRec) add(parent int, name string, start, end int64) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Start: start, End: end,
	})
	return len(r.spans)
}

// begin opens a span under parent; end closes it.
func (r *spanRec) begin(parent int, name string) int { return r.add(parent, name, nanos(), 0) }

func (r *spanRec) end(id int) {
	if r != nil {
		r.spans[id-1].End = nanos()
	}
}

// next closes span id and opens a sibling at the same instant, so that
// consecutive phases tile their parent with no gap.
func (r *spanRec) next(id int, name string) int { return r.nextAt(id, name, nanos()) }

// nextAt is next with the hand-over instant given: a phase boundary
// that was timed on another goroutine.
func (r *spanRec) nextAt(id int, name string, at int64) int {
	if r == nil {
		return 0
	}
	r.spans[id-1].End = at
	return r.add(r.spans[id-1].Parent, name, at, 0)
}

func (r *spanRec) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
