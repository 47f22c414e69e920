package lpstore

import (
	"fmt"
	"math/bits"
	"testing"

	"lazyp/internal/checksum"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// winRig is one LP shard over images the test owns, so a torn durable
// image is a byte slice: the test plays kvserve's flusher (line snapshots
// taken at seal time, persisted later, in order) and its truncateTail.
type winRig struct {
	k   int
	dur []byte
	m   *memsim.Memory
	sh  *Shard
	c   *pmem.Native
}

func newWinRig(k int, kind checksum.Kind) *winRig {
	const size = 1 << 13
	r := &winRig{k: k, dur: make([]byte, size)}
	r.m = memsim.NewMemoryOver(make([]byte, size), r.dur)
	r.c = &pmem.Native{Mem: r.m}
	r.sh = NewShardLP(r.m, "s", 0, 32, 11*k, k, kind)
	return r
}

// pair is record i's key and value: a dozen keys written over and over,
// every value different and non-zero.
func pair(i int) (k, v uint64) {
	return uint64(1 + i*7%12), (uint64(i)+1)*0x9e3779b97f4a7c15 | 1
}

// lineWrite is one line of a write set, frozen when it was snapshotted.
type lineWrite struct {
	la  memsim.Addr
	buf [memsim.LineSize]byte
}

// snapshot freezes the lines at las as the architectural image holds them.
func (r *winRig) snapshot(las []memsim.Addr) []lineWrite {
	ws := make([]lineWrite, len(las))
	for i, la := range las {
		ws[i] = lineWrite{la, r.m.LoadLine(la)}
	}
	return ws
}

// writeSet is the write set of a batch of records [from, seq) as kvserve
// seals it, split in two: its journal lines, then the checksum lines of
// the windows it falls in, lowest first.
func (r *winRig) writeSet(from, seq int) (jrn, ack []lineWrite) {
	var jl, al []memsim.Addr
	for la := memsim.LineOf(r.sh.Jrn.Addr(2 * from)); la <= memsim.LineOf(r.sh.Jrn.Addr(2*seq-1)); la += memsim.LineSize {
		jl = append(jl, la)
	}
	for w := from / r.k; w <= (seq-1)/r.k; w++ {
		if la := memsim.LineOf(r.sh.Ack.SlotAddr(w)); len(al) == 0 || al[len(al)-1] != la {
			al = append(al, la)
		}
	}
	return r.snapshot(jl), r.snapshot(al)
}

// load makes img plus the writes, and every table line as the rig's
// architectural image holds it (the worst leak: all of them), the durable
// image — and crashes.
func (r *winRig) load(src *winRig, img []byte, writes ...[]lineWrite) {
	copy(r.dur, img)
	for _, ws := range writes {
		for i := range ws {
			r.m.PersistLine(ws[i].la, &ws[i].buf)
		}
	}
	for a := src.sh.Tab.kv.Base; a < src.sh.Tab.kv.Addr(src.sh.Tab.kv.N-1); a += memsim.LineSize {
		buf := src.m.LoadLine(a)
		r.m.PersistLine(a, &buf)
	}
	r.m.Crash()
}

// want is what recovery must acknowledge of an image, from what the test
// knows rather than from checksums: durable is the journal's leading
// durable records and sealed[w] the seq of the seal whose snapshot of
// window w's checksum line is the durable one (0: never written).
func (r *winRig) want(durable int, sealed []int) (puts int) {
	for w, seq := range sealed {
		acked := min(max(seq-w*r.k, 0), r.k)
		if acked == 0 || min(max(durable-w*r.k, 0), r.k) < acked {
			break // never committed, or the checksum overtook its records
		}
		puts += acked
		if acked < r.k {
			break
		}
	}
	return puts
}

// sealedBy returns sealed with every window whose checksum slot is on one
// of the lines acks marked as last persisted by the seal at seq.
func (r *winRig) sealedBy(sealed []int, acks []lineWrite, seq int) []int {
	now := append([]int(nil), sealed...)
	for w := range now {
		for i := range acks {
			if memsim.LineOf(r.sh.Ack.SlotAddr(w)) == acks[i].la {
				now[w] = seq
			}
		}
	}
	return now
}

// durableRecords counts the journal's leading records in the crashed image.
func (r *winRig) durableRecords() (n int) {
	for n < r.sh.MaxOps && r.m.Load64(r.sh.Jrn.Addr(2*n)) != 0 {
		n++
	}
	return n
}

// recovered checks one crashed image end to end: the acknowledged prefix,
// RecoverLP's repair to exactly that prefix, and its idempotence.
func (r *winRig) recovered(t *testing.T, what string, want int) {
	t.Helper()
	if got, _ := r.sh.AckedPrefix(r.c); got != want {
		t.Fatalf("%s: AckedPrefix = %d, want %d", what, got, want)
	}
	st := r.sh.RecoverLP(r.c, 0, nil)
	model := map[uint64]uint64{}
	for i := 0; i < want; i++ {
		k, v := pair(i)
		model[k] = v
	}
	got := r.sh.Tab.Contents(r.m)
	if st.AckedPuts != want || len(got) != len(model) {
		t.Fatalf("%s: RecoverLP = %+v holding %d keys, want %d puts and %d keys", what, st, len(got), want, len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("%s: recovered[%d] = %#x, want %#x", what, k, got[k], v)
		}
	}
	if st2 := r.sh.RecoverLP(r.c, 0, nil); !st2.Verified || st2.AckedPuts != want {
		t.Fatalf("%s: second RecoverLP = %+v, want verified/%d", what, st2, want)
	}
}

// truncateAndResume is kvserve's restart after recovery acknowledged puts
// records of the loaded image: truncateTail's durable writes in its order
// — each stale slot invalidated and persisted, then the journal lines
// zeroed past the prefix — with a crash after every one of them, which
// must acknowledge the same prefix again; then a resumed writer appends
// across the window's end, and all of it acknowledges.
func (r *winRig) truncateAndResume(t *testing.T, what string, puts int) {
	t.Helper()
	img := append([]byte(nil), r.dur...)
	var steps []lineWrite
	for w := (puts + r.k - 1) / r.k; w < r.sh.Ack.Slots(); w++ {
		if r.sh.Ack.Written(r.c, w) {
			r.sh.Ack.Invalidate(r.c, w)
			steps = append(steps, r.snapshot([]memsim.Addr{memsim.LineOf(r.sh.Ack.SlotAddr(w))})...)
		}
	}
	var dirty []memsim.Addr
	for i := 2 * puts; i < 2*r.sh.MaxOps; i++ {
		if a := r.sh.Jrn.Addr(i); r.m.Load64(a) != 0 {
			r.m.Store64(a, 0)
			if la := memsim.LineOf(a); len(dirty) == 0 || dirty[len(dirty)-1] != la {
				dirty = append(dirty, la)
			}
		}
	}
	steps = append(steps, r.snapshot(dirty)...)
	for n := 0; n <= len(steps); n++ {
		copy(r.dur, img)
		for i := range steps[:n] {
			r.m.PersistLine(steps[i].la, &steps[i].buf)
		}
		r.m.Crash()
		if got, _ := r.sh.AckedPrefix(r.c); got != puts {
			t.Fatalf("%s: AckedPrefix = %d after %d of truncateTail's %d line writes, want %d", what, got, n, len(steps), puts)
		}
	}
	r.sh.RecoverLP(r.c, 0, nil)
	w := r.sh.NewLPWriter()
	w.ResumeAt(r.c, puts)
	for i := puts; i < puts+r.k+1; i++ {
		k, v := pair(i)
		w.Put(r.c, k, v)
		if i == puts {
			w.Seal(r.c)
		}
	}
	w.Seal(r.c)
	r.m.Persist(r.sh.Jrn.Base, r.sh.Jrn.N*pmem.WordSize)
	r.m.Persist(r.sh.Ack.SlotAddr(0), r.sh.Ack.Slots()*pmem.WordSize)
	r.m.Crash()
	r.recovered(t, what+", resumed", puts+r.k+1)
}

// TestAckedPrefixGrowingWindow enumerates every durable image a crash can
// leave of a journal whose windows are committed over growing prefixes.
// For every placement of seal points over two windows, the run journals
// 2K records, sealing where the placement says; each seal's write set is
// persisted the way kvserve's flusher does (journal lines, then the
// checksum line of the lower window, then the upper's) and the crash falls
// before it, after every line of it, and after it. At each:
//
//   - AckedPrefix returns the last seal whose checksum line persisted —
//     never less than the last seal persisted whole, never past the seal
//     in flight, and between its two checksum lines the lower window whole;
//   - RecoverLP repairs a table that leaked everything to exactly that
//     prefix, and a second pass verifies;
//   - a crash anywhere inside truncateTail acknowledges the same prefix,
//     and a writer resumed mid-window carries on.
//
// The same write sets are then persisted checksum lines first — the
// simulator's lazy case, a checksum that overtook its records: the window
// acknowledges nothing until its records are whole.
//
// base 0 puts both windows' slots on one checksum line; base 7 windows
// puts the boundary between slots 7 and 8, on two lines.
func TestAckedPrefixGrowingWindow(t *testing.T) {
	for _, k := range []int{4, 8} {
		for _, kind := range checksum.Kinds() {
			for _, base := range []int{0, 7 * k} {
				t.Run(fmt.Sprintf("K=%d/%v/base=%d", k, kind, base), func(t *testing.T) {
					growingWindow(t, k, kind, base)
				})
			}
		}
	}
}

func growingWindow(t *testing.T, k int, kind checksum.Kind, base int) {
	probe := newWinRig(k, kind)
	states := 0
	// A placement is the set of seqs base+1 … base+2K that end in a seal;
	// with K = 8 only those of one or two seals (every pair of neighbouring
	// seals, which is all an image depends on, is among them).
	for place := 1; place < 1<<(2*k); place++ {
		if k > 4 && bits.OnesCount(uint(place)) > 2 {
			continue
		}
		r := newWinRig(k, kind)
		w := r.sh.NewLPWriter()
		sealed := make([]int, r.sh.Ack.Slots()) // per window: seq of the seal whose checksum line is durable
		acked := base                           // the last seal persisted whole
		for i := 0; i < base+2*k; i++ {
			key, val := pair(i)
			w.Put(r.c, key, val)
			seq := i + 1
			switch {
			case seq == base:
				w.Seal(r.c)
				r.m.Persist(0, r.m.Size())
				for win := range sealed {
					sealed[win] = base
				}
				continue
			case seq < base || place&(1<<(seq-base-1)) == 0:
				continue
			}
			w.Seal(r.c)
			jrn, ack := r.writeSet(acked, seq)
			img := append([]byte(nil), r.dur...)
			what := fmt.Sprintf("seals %0*b, seal at %d", 2*k, place, seq)

			// The flusher's order: every prefix of jrn, then of ack.
			for n := 0; n <= len(jrn)+len(ack); n++ {
				acks := ack[:max(n-len(jrn), 0)]
				probe.load(r, img, jrn[:min(n, len(jrn))], acks)
				want := r.want(probe.durableRecords(), r.sealedBy(sealed, acks, seq))
				switch {
				case want < acked || want > seq:
					t.Fatalf("%s, %d lines in: the model acknowledges %d outside [%d, %d]", what, n, want, acked, seq)
				case n <= len(jrn) && want != acked, n == len(jrn)+len(ack) && want != seq:
					t.Fatalf("%s, %d lines in: the model acknowledges %d", what, n, want)
				case n == len(jrn)+1 && len(ack) == 2 && want != (acked/k+1)*k:
					t.Fatalf("%s, between the checksum lines: the model acknowledges %d", what, want)
				}
				probe.recovered(t, fmt.Sprintf("%s, %d of %d+%d lines", what, n, len(jrn), len(ack)), want)
				probe.truncateAndResume(t, fmt.Sprintf("%s, %d of %d+%d lines", what, n, len(jrn), len(ack)), want)
				states++
			}

			// The lazy order: the checksum lines, then every prefix of jrn.
			now := r.sealedBy(sealed, ack, seq)
			for n := 0; n <= len(jrn); n++ {
				probe.load(r, img, ack, jrn[:n])
				want := r.want(probe.durableRecords(), now)
				if n == len(jrn) && want != seq {
					t.Fatalf("%s, lazy, whole: the model acknowledges %d", what, want)
				}
				probe.recovered(t, fmt.Sprintf("%s, lazy, checksum lines then %d of %d", what, n, len(jrn)), want)
				states++
			}

			for _, ws := range [][]lineWrite{jrn, ack} {
				for i := range ws {
					r.m.PersistLine(ws[i].la, &ws[i].buf)
				}
			}
			sealed, acked = now, seq
		}
	}
	t.Logf("%d durable images", states)
}
