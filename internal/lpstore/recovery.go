package lpstore

import (
	"lazyp/internal/checksum"
	"lazyp/internal/ep"
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
)

// LP recovery for the KV store (run over the post-crash memory image,
// where the architectural contents equal the durable ones).
//
// The durably-acknowledged op prefix is defined by recovery itself, as
// everywhere in Lazy Persistency: the longest prefix of journal records
// whose window checksums verify against the journal words that survived
// in NVMM. Everything after it — an unsealed journal tail, table
// mutations that leaked to NVMM through natural evictions before their
// records were acknowledged — is discarded.
//
// Unlike the paper's kernels, whose regions write disjoint outputs
// exactly once, KV batches freely overwrite each other's slots and an
// unacknowledged batch may have leaked an insert into a probe chain.
// Clearing such a ghost slot would break linear-probe lookups for every
// key placed after it (the classic open-addressing deletion problem),
// so repair is shard-wide: when any slot deviates from a replay of the
// acknowledged prefix, the shard is wiped and rebuilt from the journal
// with Eager Persistency. Verification stays slot-exact and the common
// case — every slot matching the replay — costs no writes at all.

// RecoverStats summarizes one shard's recovery pass. The JSON field
// names are a small cross-tool schema: lpcrash -json, lpserve startup
// logs, and lpserve -dump all emit exactly this shape.
type RecoverStats struct {
	Shard        int  `json:"shard"`
	AckedPuts    int  `json:"acked_puts"`    // puts in the durably-acknowledged journal prefix
	AckedBatches int  `json:"acked_batches"` // journal windows of BatchK records holding any of them (the last may be short)
	Verified     bool `json:"verified"`      // table matched the replay; no repair needed
	Repaired     int  `json:"repaired"`      // slots that deviated from the replay (0 if Verified)
	// RecoverNs is the monotonic wall-clock duration of the shard's
	// recovery pass in nanoseconds. It is measured only on native
	// (wall-clock) paths — kvserve restart, lpcrash — and omitted
	// elsewhere, so deterministic simulated outputs never carry it.
	RecoverNs int64 `json:"recover_ns,omitempty"`
}

// AckedPrefix walks the journal from window 0 and returns the longest
// acknowledged prefix and the number of windows holding any of it. A
// window's checksum slot is committed over a growing record prefix — by
// every Seal that ends inside the window and by the put that fills it —
// so the slot acknowledges the records it sums to, wherever the window's
// journal words end:
//
//   - the window's length is its run of leading entries with nonzero key
//     words (fresh journal memory is durably zero), and the common case
//     is that the slot matches the checksum of all of them;
//   - otherwise the longest shorter prefix whose checksum equals the slot
//     is what was acknowledged: a later seal's journal lines reached NVMM
//     and its checksum did not. A weak code may match a longer prefix than
//     the one the slot was committed over; that admits whole, in-order
//     records of an unacknowledged seal — still a consistent cut;
//   - no prefix matches when a persistence hole sits inside the summed
//     records (the lazily written slot overtook its data): the window
//     acknowledges nothing.
//
// The walk ends at the first window acknowledged short of BatchK.
func (sh *Shard) AckedPrefix(c pmem.Ctx) (puts, windows int) {
	if sh.Ack == nil {
		panic("lpstore: AckedPrefix on a shard without the LP mechanism")
	}
	var addrs []memsim.Addr // one window's journal words, reused
	for w := 0; w < sh.windows(); w++ {
		if !sh.Ack.Written(c, w) {
			break
		}
		base := w * sh.BatchK
		rem := min(sh.MaxOps-base, sh.BatchK)
		n := 0
		for n < rem && c.Load64(sh.Jrn.Addr(2*(base+n))) != 0 {
			n++
		}
		if n == 0 {
			break
		}
		addrs = addrs[:0]
		for i := 0; i < n; i++ {
			addrs = append(addrs, sh.Jrn.Addr(2*(base+i)), sh.Jrn.Addr(2*(base+i)+1))
		}
		if !sh.Ack.Matches(c, w, lp.SumLoads(c, sh.kind, addrs)) {
			if m := sh.Obs; m != nil {
				m.RegionMismatch.Inc()
				m.trace(obs.EvRegionMismatch, int32(sh.ID), uint64(w), uint64(n))
			}
			if n = sh.ackedShort(c, w, addrs); n == 0 {
				break
			}
		}
		puts += n
		windows++
		if n < rem {
			break // acknowledged short: the end of the stream
		}
	}
	return puts, windows
}

// ackedShort returns the length in records of the longest proper prefix
// of window w's journal words (addrs, two per record) whose checksum
// equals the window's slot, 0 if there is none.
func (sh *Shard) ackedShort(c pmem.Ctx, w int, addrs []memsim.Addr) (records int) {
	slot := sh.Ack.LoadSum(c, w)
	s := checksum.New(sh.kind)
	for i := 0; i+2 < len(addrs); i += 2 {
		s.Add(c.Load64(addrs[i]))
		s.Add(c.Load64(addrs[i+1]))
		c.Compute(2 * sh.kind.CostPerAdd())
		if s.Sum() == slot {
			records = i/2 + 1
		}
	}
	return records
}

// replayTable is the table recovery expects, in volatile memory: the
// baseline pairs and the acknowledged journal prefix put, in that
// order, into slots of the live table's capacity with Store.Put's hash
// and linear probe. The live table took the same puts in the same
// order, so the replay refuses exactly the inserts the live table
// refused once full. matched marks the slots verification has found in
// the live table.
type replayTable struct {
	kv      []uint64 // 2*cap words: slot i = (key at 2i, value at 2i+1)
	matched []bool
	// refused holds the keys a full replay could not place; nil until
	// one is refused. They stay expected, as they were in the map this
	// table replaced, so a table filled to rejection still repairs at
	// every restart (kvserve rejects puts before its tables fill).
	refused map[uint64]struct{}
}

func newReplayTable(capacity int) *replayTable {
	return &replayTable{kv: make([]uint64, 2*capacity), matched: make([]bool, capacity)}
}

// find is Store.probe over the volatile words: the slot holding k, or
// the first empty slot, or -1 when the table is full without k.
func (t *replayTable) find(k uint64) (slot int, found bool) {
	mask := len(t.matched) - 1
	i := int(mix64(k)) & mask
	for n := 0; n <= mask; n++ {
		switch t.kv[2*i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
		i = (i + 1) & mask
	}
	return -1, false
}

// put applies (k, v) as Store.Put would and reports whether k is new to
// the replay (placed now, or refused for the first time).
func (t *replayTable) put(k, v uint64) (first bool) {
	i, found := t.find(k)
	switch {
	case found:
		t.kv[2*i+1] = v
		return false
	case i >= 0:
		t.kv[2*i], t.kv[2*i+1] = k, v
		return true
	}
	if _, ok := t.refused[k]; ok {
		return false
	}
	if t.refused == nil {
		t.refused = make(map[uint64]struct{})
	}
	t.refused[k] = struct{}{}
	return true
}

// value returns the replayed value of a placed key.
func (t *replayTable) value(k uint64) uint64 {
	i, _ := t.find(k)
	return t.kv[2*i+1]
}

// match reports whether the live pair (k, v) is an expected pair no
// earlier live slot matched, and marks it matched.
func (t *replayTable) match(k, v uint64) bool {
	i, found := t.find(k)
	if !found || t.kv[2*i+1] != v || t.matched[i] {
		return false
	}
	t.matched[i] = true
	return true
}

// unmatched counts the expected keys no live slot matched.
func (t *replayTable) unmatched() int {
	n := len(t.refused)
	for i, m := range t.matched {
		if !m && t.kv[2*i] != 0 {
			n++
		}
	}
	return n
}

// replayJournal overlays the first `puts` journal entries on the
// baseline pairs and returns the expected table contents (last write
// per key) plus the keys in first-insert order, which rebuild follows.
func (sh *Shard) replayJournal(c pmem.Ctx, puts, baseN int, basePair func(i int) (k, v uint64)) (expect *replayTable, order []uint64) {
	expect = newReplayTable(sh.Tab.cap)
	order = make([]uint64, 0, baseN+puts)
	for i := 0; i < baseN; i++ {
		k, v := basePair(i)
		c.Compute(2)
		expect.put(k, v)
		order = append(order, k)
	}
	for i := 0; i < puts; i++ {
		k := c.Load64(sh.Jrn.Addr(2 * i))
		v := c.Load64(sh.Jrn.Addr(2*i + 1))
		c.Compute(2)
		if expect.put(k, v) {
			order = append(order, k)
		}
	}
	return expect, order
}

// RecoverLP performs post-crash detection and repair for one shard:
// acknowledge the journal prefix, verify every slot against a replay of
// the baseline image plus that prefix, and rebuild the shard eagerly if
// anything deviates. The baseline enumerates the shard's preloaded
// pairs (deterministically re-derivable, like the kernels' inputs);
// recovery needs it because verification is content-based and the
// preloaded pairs are part of the expected contents. Idempotent — a
// second pass (e.g. after a crash during recovery) acknowledges the
// same prefix and finds the table verified.
func (sh *Shard) RecoverLP(c pmem.Ctx, baseN int, basePair func(i int) (k, v uint64)) RecoverStats {
	st := RecoverStats{Shard: sh.ID}
	st.AckedPuts, st.AckedBatches = sh.AckedPrefix(c)
	expect, order := sh.replayJournal(c, st.AckedPuts, baseN, basePair)
	if m := sh.Obs; m != nil {
		m.BatchesAcked.Add(uint64(st.AckedBatches))
		m.ReplayedPuts.Add(uint64(st.AckedPuts))
	}

	// Verification: every occupied slot must hold an expected pair, and
	// every expected key must be present. (A key is only ever written to
	// the one slot its probe chain reached during the run, so duplicate
	// occupancy cannot occur; the check still counts it as deviation.)
	mism := 0
	for i := 0; i < sh.Tab.cap; i++ {
		k := c.Load64(sh.Tab.KeyAddr(i))
		c.Compute(2)
		if k == 0 {
			continue
		}
		if !expect.match(k, c.Load64(sh.Tab.ValAddr(i))) {
			mism++
		}
	}
	mism += expect.unmatched()
	if mism == 0 {
		st.Verified = true
		return st
	}
	st.Repaired = mism
	if m := sh.Obs; m != nil {
		m.SlotsRepaired.Add(uint64(mism))
		m.GhostWipes.Inc()
		m.trace(obs.EvRecoveryRepair, int32(sh.ID), uint64(mism), uint64(st.AckedPuts))
	}

	// Rebuild: wipe, then re-put the acknowledged prefix in first-insert
	// order. All stores are made durable before returning (flush the
	// touched lines, one fence) so a repeated failure loses nothing.
	lines := ep.NewLineSet()
	for i := 0; i < sh.Tab.cap; i++ {
		if c.Load64(sh.Tab.KeyAddr(i)) != 0 {
			c.Store64(sh.Tab.KeyAddr(i), 0)
			lines.Add(sh.Tab.KeyAddr(i))
		}
	}
	base := lp.Base{}.Thread(0)
	for _, k := range order {
		i, found := sh.Tab.probe(c, k)
		if i < 0 {
			continue // table full: mirrors Put's full-table rejection
		}
		if !found {
			base.Store64(c, sh.Tab.KeyAddr(i), k)
		}
		base.Store64(c, sh.Tab.ValAddr(i), expect.value(k))
		lines.Add(sh.Tab.KeyAddr(i))
	}
	for _, la := range lines.Lines() {
		c.Flush(la)
	}
	c.Fence()
	return st
}

// HasDurable reports whether the table currently maps k to v — on a
// post-crash image, whether the pair survived durably. EP recovery uses
// it to detect the at-most-one put that completed after the thread's
// last durable progress marker.
func (sh *Shard) HasDurable(c pmem.Ctx, k, v uint64) bool {
	got, ok := sh.Tab.Get(c, k)
	return ok && got == v
}
