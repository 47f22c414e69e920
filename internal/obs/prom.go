package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders the registry in Prometheus text exposition
// format (version 0.0.4), hand-rolled to keep the package
// dependency-free. Families are emitted in name order and series in
// label order, so the output for a quiesced registry is
// deterministic (the golden test relies on this).
//
// Histograms are published cumulatively: one `_bucket` line per
// non-empty bucket (le = the bucket's inclusive upper bound times
// the family's scale), a closing le="+Inf" line, then `_sum` and
// `_count`. Skipping empty buckets keeps a 496-bucket histogram's
// exposition proportional to the value spread actually observed.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	type snap struct {
		name   string
		kind   metricKind
		scale  float64
		keys   []string
		series map[string]any
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.fams[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps = append(snaps, snap{name, f.kind, f.scale, keys, f.series})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range snaps {
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, key := range f.keys {
			switch inst := f.series[key].(type) {
			case *Counter:
				writeSample(&b, f.name, key, "", strconv.FormatUint(inst.Load(), 10))
			case *Gauge:
				writeSample(&b, f.name, key, "", strconv.FormatInt(inst.Load(), 10))
			case *Histogram:
				writeHist(&b, f.name, key, f.scale, inst.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits `name{labels} value` (or `name{labels,extra}`
// when extra is a pre-rendered additional label).
func writeSample(b *strings.Builder, name, labels, extra, value string) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeHist(b *strings.Builder, name, labels string, scale float64, s HistSnapshot) {
	if scale == 0 {
		scale = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := `le="` + formatFloat(float64(bucketUB(i))*scale) + `"`
		writeSample(b, name+"_bucket", labels, le, strconv.FormatUint(cum, 10))
	}
	writeSample(b, name+"_bucket", labels, `le="+Inf"`, strconv.FormatUint(s.Count, 10))
	writeSample(b, name+"_sum", labels, "", formatFloat(float64(s.Sum)*scale))
	writeSample(b, name+"_count", labels, "", strconv.FormatUint(s.Count, 10))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Scrape is a text exposition read back: the inverse of WriteProm, for
// a client that reads a server's registry over /metrics. It keeps each
// sample's value under the series text before it, and the accessors
// rebuild that text the way WriteProm writes it, so a Scrape reads what
// WriteProm writes and nothing more.
type Scrape map[string]string

// ReadProm parses a WriteProm exposition.
func ReadProm(r io.Reader) (Scrape, error) {
	s := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value", n)
		}
		s[line[:sp]] = line[sp+1:]
	}
	return s, sc.Err()
}

// sample returns the value WriteProm wrote for a series (labels as
// labelKey renders them, extra as writeSample takes it), "" if absent.
func (s Scrape) sample(name, labels, extra string) string {
	var b strings.Builder
	writeSample(&b, name, labels, extra, "")
	return s[strings.TrimSuffix(b.String(), " \n")]
}

// Counter returns a counter series' value (0 when absent).
func (s Scrape) Counter(name string, kv ...string) uint64 {
	v, _ := strconv.ParseUint(s.sample(name, Scope{pairs: kv}.labelKey(), ""), 10, 64)
	return v
}

// Gauge returns a gauge series' value (0 when absent).
func (s Scrape) Gauge(name string, kv ...string) int64 {
	v, _ := strconv.ParseInt(s.sample(name, Scope{pairs: kv}.labelKey(), ""), 10, 64)
	return v
}

// Hist rebuilds a histogram series' snapshot in its raw unit; scale is
// the one the series was resolved with (0 = raw). The exposition
// carries no max, so Max is the upper edge of the highest non-empty
// bucket. An absent series is an empty snapshot.
func (s Scrape) Hist(name string, scale float64, kv ...string) HistSnapshot {
	if scale == 0 {
		scale = 1
	}
	labels := Scope{pairs: kv}.labelKey()
	var out HistSnapshot
	var prev uint64
	for b := range histBuckets {
		v := s.sample(name+"_bucket", labels, `le="`+formatFloat(float64(bucketUB(b))*scale)+`"`)
		if v == "" {
			continue
		}
		cum, _ := strconv.ParseUint(v, 10, 64)
		out.Counts[b], prev, out.Max = cum-prev, cum, bucketUB(b)
	}
	out.Count, _ = strconv.ParseUint(s.sample(name+"_count", labels, ""), 10, 64)
	sum, _ := strconv.ParseFloat(s.sample(name+"_sum", labels, ""), 64)
	out.Sum = uint64(math.Round(sum / scale))
	return out
}
