package obs

import "testing"

// BenchmarkObsOverhead is the per-event cost budget for leaving
// instruments on in hot paths: a counter add, a histogram
// observation (of one sample, and of a run of 64 equal ones — the same
// price), a disabled-tracer record (the steady state in
// production), and an enabled-tracer record (the debugging state).
// CI runs it once as a smoke check; the absolute numbers back the
// <2% service-throughput overhead recorded in EXPERIMENTS.md.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("CounterAdd", func(b *testing.B) {
		var c Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("GaugeSet", func(b *testing.B) {
		var g Gauge
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i) * 37)
		}
	})
	b.Run("HistogramObserveN", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.ObserveN(uint64(i)*37, 64)
		}
	})
	b.Run("TracerOff", func(b *testing.B) {
		tr := NewTracer(1 << 12)
		for i := 0; i < b.N; i++ {
			tr.Record(EvFlush, 0, 0, uint64(i), 0)
		}
	})
	b.Run("TracerOn", func(b *testing.B) {
		tr := NewTracer(1 << 12)
		tr.Enable(true)
		for i := 0; i < b.N; i++ {
			tr.Record(EvFlush, 0, 0, uint64(i), 0)
		}
	})
}
