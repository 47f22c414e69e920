package main

import (
	"fmt"

	"lazyp/internal/checksum"
	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
	"lazyp/internal/workloads"
)

// layers.go is the layer pass of a traced run (source L): a KV op
// stream replayed on one goroutine through one layer's public
// functions at a time, pmem.Native as the Ctx, one span per timed loop
// (and one per stretch of preparation between loops, so the spans tile
// the pass). Each number is the cost of that layer alone; README.md
// says which end-to-end metric it should move.

const layerCalls = 1 << 20 // calls per timed loop

// sink keeps the compiler from deleting a loop whose result is unused.
var sink uint64

// layerPass times every layer loop and returns the per-layer metrics.
func layerPass(rec *spanRec, opt options) map[string]float64 {
	out := map[string]float64{}
	root := rec.begin(0, "layers")
	cur := rec.begin(root, "prep")
	n := max(int(float64(layerCalls)*opt.scale)/batchK*batchK, batchK)
	// timed closes the preparation span, runs one loop under its own
	// span, records ns per call, and opens the next preparation span.
	timed := func(metric string, calls int, loop func()) {
		cur = rec.next(cur, "layer."+metric)
		t0 := nanos()
		loop()
		out[metric] = float64(nanos()-t0) / float64(calls)
		cur = rec.next(cur, "prep")
	}

	// The workload generator itself — the driver's own cost per op.
	ops := make([]workloads.KVOp, n)
	g := workloads.NewKVGen(opt.seed, 0, keysPerConn, mixA, "zipfian")
	timed("workloads.kvgen_ns_per_op", n, func() {
		for i := range ops {
			ops[i] = g.Next()
		}
	})

	// Wire codec: a request and a response through both ends.
	timed("wire.req_ns", n, func() {
		var buf [kvserve.ReqSize]byte
		for i, op := range ops {
			kvserve.EncodeReq(&buf, kvserve.OpPut, uint32(i), op.Key, op.Val)
			_, seq, key, val := kvserve.DecodeReq(&buf)
			sink += uint64(seq) + key + val
		}
	})
	timed("wire.resp_ns", n, func() {
		var buf [kvserve.RespSize]byte
		for i, op := range ops {
			kvserve.EncodeResp(&buf, uint32(i), kvserve.StatusOK, op.Val)
			seq, st, val := kvserve.DecodeResp(&buf)
			sink += uint64(seq) + uint64(st) + val
		}
	})

	// lpstore: journal + table put (a seal every K) and the lock-free
	// get, on a table that fits the cache (1<<14 slots, zipfian keys)
	// and on one that does not (1<<21 slots, uniform keys: a zipfian
	// stream would sit in the cache whatever the table size).
	for _, geo := range []struct {
		tag, dist      string
		capacity, keys int
	}{
		{"fit", "zipfian", 1 << 14, 1 << 13},
		{"spill", "uniform", 1 << 21, 1 << 20},
	} {
		m := memsim.NewMemory((2*geo.capacity+2*n+n/batchK+64)*8 + (1 << 20))
		sh := lpstore.NewShardLP(m, "layer", 0, geo.capacity, n, batchK, checksum.Modular)
		pair := func(i int) (uint64, uint64) {
			k := workloads.KVKey(0, i)
			return k, workloads.KVInitVal(opt.seed, k)
		}
		sh.Preload(m, geo.keys, pair)
		sh.Tab.EnableSeqlock()
		c := &pmem.Native{Mem: m}
		kg := workloads.NewKVGen(opt.seed, 0, geo.keys, mixPut, geo.dist)
		for i := range ops {
			ops[i] = kg.Next()
		}
		w := sh.NewLPWriter()
		timed("lpstore.put_ns_"+geo.tag, n, func() {
			for _, op := range ops {
				w.Put(c, op.Key, op.Val)
			}
		})
		timed("lpstore.seqget_ns_"+geo.tag, n, func() {
			for _, op := range ops {
				v, _, _ := sh.Tab.SeqGet(m, op.Key)
				sink += v
			}
		})
		if geo.tag == "fit" {
			// Recovery over the n puts just journaled: acknowledge the
			// prefix, replay it, verify every slot.
			var st lpstore.RecoverStats
			timed("lpstore.recover_ns_per_put", n, func() {
				st = sh.RecoverLP(c, geo.keys, pair)
			})
			if st.AckedPuts != n || !st.Verified {
				panic(fmt.Sprintf("layer pass: recovery of %d journaled puts returned %+v", n, st))
			}
		}
	}

	// checksum: one State.Add per journaled word.
	for _, ck := range []struct {
		name string
		kind checksum.Kind
	}{{"modular", checksum.Modular}, {"parity", checksum.Parity}, {"adler32", checksum.Adler32}, {"dual", checksum.Dual}} {
		timed("checksum."+ck.name+"_ns_per_word", n, func() {
			st := checksum.New(ck.kind)
			for _, op := range ops {
				st.Add(op.Val)
			}
			sink += st.Sum()
		})
	}

	// obs: the always-on instruments a put crosses at least six times.
	reg := obs.NewRegistry()
	ctr, hist := reg.Counter("layer_counter"), reg.Histogram("layer_hist")
	timed("obs.counter_ns", n, func() {
		for range ops {
			ctr.Inc()
		}
	})
	timed("obs.hist_observe_ns", n, func() {
		for _, op := range ops {
			hist.Observe(op.Val >> 40)
		}
	})
	tr := obs.NewTracer(4096)
	for _, on := range []bool{false, true} {
		tr.Enable(on)
		name := map[bool]string{false: "obs.trace_off_ns", true: "obs.trace_on_ns"}[on]
		timed(name, n, func() {
			for i, op := range ops {
				tr.Record(obs.EvJournalAppend, 0, int64(i), op.Key, op.Val)
			}
		})
	}

	// loadmodel: tracked so ROADMAP items 3 and 5 have a before; none
	// of the seven workloads runs it end to end.
	spec, err := loadmodel.BuiltinSpec("steady", 2*opt.scale, "10s")
	if err != nil {
		panic(err) // a builtin spec; cannot fail
	}
	var lops []loadmodel.Op
	timed("loadmodel.gen_ns_per_op", 1, func() { lops, err = loadmodel.Generate(spec) })
	if err != nil || len(lops) == 0 {
		panic(fmt.Sprintf("layer pass: loadmodel.Generate: %d ops, %v", len(lops), err))
	}
	out["loadmodel.gen_ns_per_op"] /= float64(len(lops))
	timed("loadmodel.plan_ns_per_op", len(lops), func() {
		sink += uint64(len(loadmodel.Plan(spec, lops, loadmodel.PlanConfig{}).Classes))
	})
	rec.end(cur)
	rec.end(root)
	return out
}
