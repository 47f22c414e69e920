package lpstore

import "lazyp/internal/obs"

// Metrics is the shard's optional observability hookup: counters for
// the LP mechanism's journal traffic and recovery outcomes, plus a
// tracer for the corresponding persistency events. A nil Metrics (the
// default, and the only configuration the closed-loop simulator uses)
// costs one predictable branch per put; kvserve attaches one per
// shard, scoped with the shard label, so the store's internals show
// up in the same registry as the service's own series.
type Metrics struct {
	// Fast path.
	JournalAppends *obs.Counter // lpstore_journal_appends_total: records written, one per put
	BatchSeals     *obs.Counter // lpstore_batch_seals_total: window checksums lazily committed (a window may commit more than once)

	// Recovery path (checksum-region outcomes).
	BatchesAcked   *obs.Counter // lpstore_batches_acked_total: windows with an acknowledged record prefix
	RegionMismatch *obs.Counter // lpstore_region_mismatches_total: windows whose journal words do not sum to their slot; the prefix ends there, at the longest record prefix that does
	ReplayedPuts   *obs.Counter // lpstore_replayed_puts_total: journal entries replayed during verification
	SlotsRepaired  *obs.Counter // lpstore_slots_repaired_total: table slots that deviated from the replay
	GhostWipes     *obs.Counter // lpstore_ghost_wipes_total: shard-wide wipe+rebuild passes

	// Tracer for journal-append / region-mismatch / recovery-repair
	// events; may be nil even when Metrics is attached.
	Tracer *obs.Tracer
}

// NewMetrics resolves the shard's counters under sc (typically
// Registry.Scope("shard", id)). tr may be nil.
func NewMetrics(sc obs.Scope, tr *obs.Tracer) *Metrics {
	return &Metrics{
		JournalAppends: sc.Counter("lpstore_journal_appends_total"),
		BatchSeals:     sc.Counter("lpstore_batch_seals_total"),
		BatchesAcked:   sc.Counter("lpstore_batches_acked_total"),
		RegionMismatch: sc.Counter("lpstore_region_mismatches_total"),
		ReplayedPuts:   sc.Counter("lpstore_replayed_puts_total"),
		SlotsRepaired:  sc.Counter("lpstore_slots_repaired_total"),
		GhostWipes:     sc.Counter("lpstore_ghost_wipes_total"),
		Tracer:         tr,
	}
}

// trace emits one event if a tracer is attached and enabled.
func (m *Metrics) trace(typ obs.EventType, src int32, a, b uint64) {
	if t := m.Tracer; t != nil {
		t.Record(typ, src, 0, a, b)
	}
}
