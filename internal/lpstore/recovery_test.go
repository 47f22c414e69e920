package lpstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lazyp/internal/checksum"
	"lazyp/internal/ep"
	"lazyp/internal/lp"
	"lazyp/internal/memsim"
	"lazyp/internal/pmem"
)

// recoverMapModel is RecoverLP as it was before the replay moved into a
// volatile table: the expected contents and the verifier's found set are
// Go maps. It is the reference TestReplayMatchesMapModel holds RecoverLP
// to, call for call.
func recoverMapModel(sh *Shard, c pmem.Ctx, baseN int, basePair func(i int) (k, v uint64)) RecoverStats {
	st := RecoverStats{Shard: sh.ID}
	st.AckedPuts, st.AckedBatches = sh.AckedPrefix(c)
	expect := make(map[uint64]uint64, baseN+st.AckedPuts)
	order := make([]uint64, 0, baseN+st.AckedPuts)
	for i := 0; i < baseN; i++ {
		k, v := basePair(i)
		c.Compute(2)
		expect[k] = v
		order = append(order, k)
	}
	for i := 0; i < st.AckedPuts; i++ {
		k := c.Load64(sh.Jrn.Addr(2 * i))
		v := c.Load64(sh.Jrn.Addr(2*i + 1))
		c.Compute(2)
		if _, ok := expect[k]; !ok {
			order = append(order, k)
		}
		expect[k] = v
	}

	present := make(map[uint64]struct{}, len(expect))
	mism := 0
	for i := 0; i < sh.Tab.cap; i++ {
		k := c.Load64(sh.Tab.KeyAddr(i))
		c.Compute(2)
		if k == 0 {
			continue
		}
		v := c.Load64(sh.Tab.ValAddr(i))
		_, dup := present[k]
		if ev, ok := expect[k]; ok && ev == v && !dup {
			present[k] = struct{}{}
		} else {
			mism++
		}
	}
	for k := range expect {
		if _, ok := present[k]; !ok {
			mism++
		}
	}
	if mism == 0 {
		st.Verified = true
		return st
	}
	st.Repaired = mism

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
			continue
		}
		if !found {
			base.Store64(c, sh.Tab.KeyAddr(i), k)
		}
		base.Store64(c, sh.Tab.ValAddr(i), expect[k])
		lines.Add(sh.Tab.KeyAddr(i))
	}
	for _, la := range lines.Lines() {
		c.Flush(la)
	}
	c.Fence()
	return st
}

// callLog is a pmem.Ctx over a Native one that folds every call — its
// kind, address, value or count — into a running hash, so two recoveries
// that issue the same simulated work in the same order read equal.
type callLog struct {
	pmem.Native
	h, calls uint64
}

func (l *callLog) fold(op, a, v uint64) {
	l.h = mix64(l.h ^ mix64(op<<56^a) ^ v)
	l.calls++
}

func (l *callLog) Load64(a memsim.Addr) uint64 {
	v := l.Native.Load64(a)
	l.fold(1, uint64(a), v)
	return v
}

func (l *callLog) Store64(a memsim.Addr, v uint64) {
	l.fold(2, uint64(a), v)
	l.Native.Store64(a, v)
}

func (l *callLog) Flush(a memsim.Addr) { l.fold(3, uint64(a), 0) }
func (l *callLog) Fence()              { l.fold(4, 0, 0) }
func (l *callLog) Compute(n int)       { l.fold(5, 0, uint64(n)) }

// replayCase seeds one crashed LP shard image. Its run preloads a
// baseline, journals acknowledged puts over keys drawn from universe,
// leaves a tail of puts unacknowledged (their table stores leaked, the
// journal words too, their window's checksum not), then damages the
// table as damage says.
type replayCase struct {
	name     string
	capacity int
	universe func(capacity int) int // keys are 1..universe
	tail     func(r *rand.Rand, sh *Shard, w *Writer, c pmem.Ctx, universe int)
	damage   func(r *rand.Rand, sh *Shard, m *memsim.Memory)
	fills    bool // some seed must fill the table
}

// build makes the case's image for seed; the same seed builds the same
// image, so the two models each recover their own copy.
func (rc replayCase) build(seed int64) (m *memsim.Memory, sh *Shard, baseN int, basePair func(int) (uint64, uint64)) {
	r := rand.New(rand.NewSource(seed))
	m = memsim.NewMemory(1 << 16)
	c := &pmem.Native{Mem: m}
	const batchK, maxOps = 8, 96
	sh = NewShardLP(m, "s", 0, rc.capacity, maxOps, batchK, checksum.Modular)
	u := rc.universe(rc.capacity)
	baseN = r.Intn(rc.capacity/2 + 1)
	basePair = func(i int) (uint64, uint64) { return uint64(i + 1), uint64(i+1)*1000 + 7 }
	sh.Preload(m, baseN, basePair)
	w := sh.NewLPWriter()
	acked := r.Intn(maxOps - 2*batchK)
	for i := 0; i < acked; i++ {
		w.Put(c, uint64(1+r.Intn(u)), r.Uint64()|1)
		if r.Intn(5) == 0 {
			w.Seal(c)
		}
	}
	w.Seal(c)
	if rc.tail != nil {
		rc.tail(r, sh, w, c, u)
	}
	if rc.damage != nil {
		rc.damage(r, sh, m)
	}
	return m, sh, baseN, basePair
}

// unackedTail journals puts after the last seal without sealing them,
// short of filling their window (a full window commits itself).
func unackedTail(pick func(r *rand.Rand, sh *Shard, c pmem.Ctx, universe int) uint64) func(*rand.Rand, *Shard, *Writer, pmem.Ctx, int) {
	return func(r *rand.Rand, sh *Shard, w *Writer, c pmem.Ctx, u int) {
		room := sh.BatchK - 1 - w.Seq()%sh.BatchK
		if room == 0 {
			return
		}
		for n := 1 + r.Intn(room); n > 0; n-- {
			w.Put(c, pick(r, sh, c, u), r.Uint64()|1)
		}
	}
}

// occupied returns the table's occupied slots.
func occupied(sh *Shard, m *memsim.Memory) (slots []int) {
	for i := 0; i < sh.Tab.cap; i++ {
		if m.Load64(sh.Tab.KeyAddr(i)) != 0 {
			slots = append(slots, i)
		}
	}
	return slots
}

// TestReplayMatchesMapModel holds RecoverLP's volatile replay table to
// the map-based replay and verifier it replaced: over seeded crashed
// images — leaked ghost inserts, ghost overwrites, a key in two live
// slots, table lines the durable image never received, a table filled to
// rejection — both must return identical RecoverStats, leave identical
// table words, and issue the identical sequence of simulated loads,
// stores, flushes, fences and compute charges, on the first pass and on
// a second.
func TestReplayMatchesMapModel(t *testing.T) {
	half := func(capacity int) int { return capacity / 2 }
	cases := []replayCase{
		{name: "clean", capacity: 64, universe: half},
		{name: "ghost inserts", capacity: 64, universe: half,
			tail: unackedTail(func(r *rand.Rand, sh *Shard, c pmem.Ctx, u int) uint64 { return uint64(u + 1 + r.Intn(u)) })},
		{name: "ghost overwrites", capacity: 64, universe: half,
			tail: unackedTail(func(r *rand.Rand, sh *Shard, c pmem.Ctx, u int) uint64 {
				slots := occupied(sh, c.(*pmem.Native).Mem)
				if len(slots) == 0 {
					return uint64(u + 1)
				}
				return c.Load64(sh.Tab.KeyAddr(slots[r.Intn(len(slots))]))
			})},
		{name: "duplicate slots", capacity: 64, universe: half,
			damage: func(r *rand.Rand, sh *Shard, m *memsim.Memory) {
				slots := occupied(sh, m)
				if len(slots) == 0 {
					return
				}
				from := slots[r.Intn(len(slots))]
				to := r.Intn(sh.Tab.cap)
				for m.Load64(sh.Tab.KeyAddr(to)) != 0 {
					to = (to + 1) % sh.Tab.cap
				}
				m.Store64(sh.Tab.KeyAddr(to), m.Load64(sh.Tab.KeyAddr(from)))
				v := m.Load64(sh.Tab.ValAddr(from))
				if r.Intn(2) == 0 {
					v++
				}
				m.Store64(sh.Tab.ValAddr(to), v)
			}},
		{name: "lines never written", capacity: 64, universe: half,
			damage: func(r *rand.Rand, sh *Shard, m *memsim.Memory) {
				for n := 1 + r.Intn(3); n > 0; n-- {
					line := r.Intn(sh.Tab.cap / slotsPerLine)
					for i := line * slotsPerLine; i < (line+1)*slotsPerLine; i++ {
						m.Store64(sh.Tab.KeyAddr(i), 0)
						m.Store64(sh.Tab.ValAddr(i), 0)
					}
				}
			}},
		{name: "filled to rejection", capacity: 16,
			universe: func(capacity int) int { return 3 * capacity }, fills: true,
			tail: unackedTail(func(r *rand.Rand, sh *Shard, c pmem.Ctx, u int) uint64 { return uint64(1 + r.Intn(u)) })},
	}
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			verified, full := 0, 0
			for seed := int64(0); seed < 60; seed++ {
				what := fmt.Sprintf("seed %d", seed)
				mRef, shRef, baseN, basePair := rc.build(seed)
				mNew, shNew, _, _ := rc.build(seed)
				ref := &callLog{Native: pmem.Native{Mem: mRef}}
				got := &callLog{Native: pmem.Native{Mem: mNew}}
				for pass := 1; pass <= 2; pass++ {
					want := recoverMapModel(shRef, ref, baseN, basePair)
					st := shNew.RecoverLP(got, baseN, basePair)
					if st != want {
						t.Fatalf("%s pass %d: RecoverLP = %+v, map model %+v", what, pass, st, want)
					}
					if ref.h != got.h || ref.calls != got.calls {
						t.Fatalf("%s pass %d: %d ctx calls (hash %#x), map model %d (%#x)", what, pass, got.calls, got.h, ref.calls, ref.h)
					}
					if w, g := shRef.Tab.kv.Snapshot(mRef), shNew.Tab.kv.Snapshot(mNew); !slices.Equal(w, g) {
						t.Fatalf("%s pass %d: table words differ from the map model's", what, pass)
					}
					if pass == 1 && st.Verified {
						verified++
					}
				}
				if shNew.Tab.Occupied(mNew) == shNew.Tab.cap {
					full++
				}
			}
			switch {
			case rc.tail == nil && rc.damage == nil && verified != 60:
				t.Fatalf("an undamaged image repaired: %d of 60 verified", verified)
			case (rc.tail != nil || rc.damage != nil) && verified == 60:
				t.Fatal("no seed damaged the image")
			case rc.fills && full == 0:
				t.Fatal("no seed filled the table")
			}
		})
	}
}
