package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exact text exposition for a small
// registry: family ordering by name, series ordering by label key,
// canonical label rendering, and cumulative histogram encoding with
// empty buckets elided.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("acks_total").Add(42)
	r.Scope("cause", "overload", "shard", "0").Counter("rejects_total").Add(3)
	r.Scope("cause", "full", "shard", "1").Counter("rejects_total").Inc()
	r.Scope("shard", "0").Gauge("depth").Set(7)
	h := r.Histogram("fill")
	for _, v := range []uint64{5, 1000, 1000, 123456} {
		h.Observe(v)
	}

	const want = `# TYPE acks_total counter
acks_total 42
# TYPE depth gauge
depth{shard="0"} 7
# TYPE fill histogram
fill_bucket{le="5"} 1
fill_bucket{le="1023"} 3
fill_bucket{le="131071"} 4
fill_bucket{le="+Inf"} 4
fill_sum 125461
fill_count 4
# TYPE rejects_total counter
rejects_total{cause="full",shard="1"} 1
rejects_total{cause="overload",shard="0"} 3
`
	var out strings.Builder
	if err := r.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("prom output mismatch:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestWritePromScaled checks that a scaled histogram publishes its
// bucket edges and sum in display units (ns observed, seconds
// exposed).
func TestWritePromScaled(t *testing.T) {
	r := NewRegistry()
	h := r.Scope().HistogramScaled("lat_seconds", 1e-9)
	h.Observe(1000) // bucket upper bound 1023 ns
	var out strings.Builder
	if err := r.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	le := strconv.FormatFloat(1023*1e-9, 'g', -1, 64)
	if !strings.Contains(out.String(), `lat_seconds_bucket{le="`+le+`"} 1`) {
		t.Errorf("missing scaled bucket edge %s in:\n%s", le, out.String())
	}
	if !strings.Contains(out.String(), "lat_seconds_count 1") {
		t.Errorf("missing count in:\n%s", out.String())
	}
}

// TestReadPromRoundTrip: ReadProm(WriteProm(r)) gives back every
// counter, gauge and histogram snapshot — raw and scaled, unlabelled and
// labelled, label values that need escaping included. The exposition
// carries no max, so a histogram's comes back as its top bucket's edge.
func TestReadPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("acks_total").Add(1<<60 + 3)
	r.Scope("cause", "overload", "shard", "0").Counter("rejects_total").Add(3)
	r.Scope("path", "a\"b\\c\nd,e=\"f}").Counter("rejects_total").Inc()
	r.Scope("shard", "1").Gauge("depth").Set(-7)
	raw := r.Histogram("fill")
	scaled := r.Scope("stage", "flush", "shard", "2").HistogramScaled("stage_seconds", 1e-9)
	x := uint64(1)
	for i := 0; i < 2000; i++ {
		raw.Observe(splitmix64(&x) % 64)
		scaled.Observe(splitmix64(&x) % 5_000_000)
	}
	scaled.ObserveN(0, 4)
	r.Histogram("empty")

	var out strings.Builder
	if err := r.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	sc, err := ReadProm(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Counter("acks_total"); got != 1<<60+3 {
		t.Errorf("acks_total = %d", got)
	}
	if got := sc.Counter("rejects_total", "shard", "0", "cause", "overload"); got != 3 {
		t.Errorf("rejects_total{overload} = %d", got)
	}
	if got := sc.Counter("rejects_total", "path", "a\"b\\c\nd,e=\"f}"); got != 1 {
		t.Errorf("rejects_total with an escaped label = %d", got)
	}
	if got := sc.Gauge("depth", "shard", "1"); got != -7 {
		t.Errorf("depth = %d", got)
	}
	for _, c := range []struct {
		h     *Histogram
		got   HistSnapshot
		scale string
	}{
		{raw, sc.Hist("fill", 0), "raw"},
		{scaled, sc.Hist("stage_seconds", 1e-9, "shard", "2", "stage", "flush"), "scaled"},
		{r.Histogram("empty"), sc.Hist("empty", 0), "empty"},
	} {
		want := c.h.Snapshot()
		if c.got.Counts != want.Counts || c.got.Count != want.Count || c.got.Sum != want.Sum {
			t.Errorf("%s histogram: count %d sum %d, want %d and %d (or the buckets differ)",
				c.scale, c.got.Count, c.got.Sum, want.Count, want.Sum)
		}
		if want.Count > 0 && c.got.Max != bucketUB(bucketOf(want.Max)) {
			t.Errorf("%s histogram: max %d, want the edge of %d's bucket", c.scale, c.got.Max, want.Max)
		}
	}
	if got := sc.Hist("stage_seconds", 1e-9, "stage", "flush"); got.Count != 0 {
		t.Errorf("a series with fewer labels matched: count %d", got.Count)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Scope("path", `a"b\c`).Counter("x_total").Inc()
	var out strings.Builder
	if err := r.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `x_total{path="a\"b\\c"} 1`) {
		t.Errorf("label not escaped:\n%s", out.String())
	}
}
