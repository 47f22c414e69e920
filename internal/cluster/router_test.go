package cluster

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/workloads"
)

// Keys whose slots stay distinct under the planTopo carve-up
// (TestPlanChunkSegments checks that they do).
const nearKey, farKey, orphanKey = 3, 5, 11

// planTopo builds a two-node topology with every slot owned by node 0,
// except the slot of farKey which is owned by node 1 and the slot of
// orphanKey which has no live primary.
func planTopo(farKey, orphanKey uint64) *Topology {
	t := &Topology{
		Nodes: []NodeInfo{
			{ID: "n0", Addr: "a0", State: StateAlive},
			{ID: "n1", Addr: "a1", State: StateAlive},
		},
		Slots: make([]SlotAssign, NumSlots),
	}
	for i := range t.Slots {
		t.Slots[i] = SlotAssign{Primary: 0, Follower: 1, Pair: 1}
	}
	t.Slots[SlotOf(farKey)] = SlotAssign{Primary: 1, Follower: 0, Pair: 0}
	t.Slots[SlotOf(orphanKey)] = SlotAssign{Primary: -1, Follower: -1, Pair: 0}
	return t
}

// TestPlanChunkSegments: the router's plan pass coalesces consecutive
// same-destination frames into one segment, routes pings and
// primary-less slots locally (node -1), and splits at every
// destination change.
func TestPlanChunkSegments(t *testing.T) {
	if SlotOf(farKey) == SlotOf(orphanKey) || SlotOf(nearKey) == SlotOf(farKey) ||
		SlotOf(nearKey) == SlotOf(orphanKey) {
		t.Fatal("test keys collide in slot space; pick different keys")
	}
	topo := planTopo(farKey, orphanKey)

	var chunk []byte
	chunk = kvserve.AppendReq(chunk, kvserve.OpPut, 0, nearKey, 0)
	chunk = kvserve.AppendReq(chunk, kvserve.OpGet, 1, nearKey, 0)
	chunk = kvserve.AppendReq(chunk, kvserve.OpPut, 2, farKey, 0)
	chunk = kvserve.AppendReq(chunk, kvserve.OpPing, 3, 0, 0)
	chunk = kvserve.AppendReq(chunk, kvserve.OpPut, 4, orphanKey, 0)
	chunk = kvserve.AppendReq(chunk, kvserve.OpPut, 5, nearKey, 0)

	segs, _ := planChunk(chunk, topo, nil)
	want := []proxySeg{
		{node: 0, off: 0, end: 2 * kvserve.ReqSize},
		{node: 1, off: 2 * kvserve.ReqSize, end: 3 * kvserve.ReqSize},
		{node: -1, off: 3 * kvserve.ReqSize, end: 5 * kvserve.ReqSize},
		{node: 0, off: 5 * kvserve.ReqSize, end: 6 * kvserve.ReqSize},
	}
	if len(segs) != len(want) {
		t.Fatalf("planChunk produced %d segments %+v, want %d", len(segs), segs, len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}

	// A nil topology (none pushed yet) answers everything locally.
	if segs, _ := planChunk(chunk, nil, nil); len(segs) != 1 || segs[0].node != -1 {
		t.Fatalf("nil-topology plan = %+v, want one local segment", segs)
	}
}

// TestPlanChunkZeroAlloc pins the data plane's steady state: planning
// a chunk into a reused segment slice allocates nothing.
func TestPlanChunkZeroAlloc(t *testing.T) {
	topo := planTopo(farKey, orphanKey)
	var chunk []byte
	for i := 0; i < 64; i++ {
		key := uint64(nearKey)
		switch i % 3 {
		case 1:
			key = farKey
		case 2:
			key = orphanKey
		}
		chunk = kvserve.AppendReq(chunk, kvserve.OpPut, uint32(i), key, 0)
	}
	segs := make([]proxySeg, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		segs, _ = planChunk(chunk, topo, segs[:0])
	})
	if allocs != 0 {
		t.Fatalf("planChunk allocates %.1f times per chunk, want 0", allocs)
	}
}

// FuzzPlanChunk: for arbitrary client bytes, under no topology and under
// planTopo's near, far and orphan slots, the plan covers the whole-frame
// prefix wholeFrames admits — every byte in exactly one segment, in
// order — keeps an OpTraceCtx prefix in its successor's segment (a
// chunk-trailing prefix is held back; a prefix followed by another prefix
// arms nothing and is exempt), names only nodes the topology has, and
// refuses exactly the chunks that hold an OpReplBatch header.
func FuzzPlanChunk(f *testing.F) {
	topo := planTopo(farKey, orphanKey)
	var mix []byte
	for i, key := range []uint64{nearKey, nearKey, farKey, orphanKey, nearKey} {
		mix = kvserve.AppendReq(mix, kvserve.OpPut, uint32(i), key, 0)
	}
	mix = kvserve.AppendReq(mix, kvserve.OpPing, 5, 0, 0)
	mix = kvserve.AppendReq(mix, kvserve.OpHello, 6, kvserve.FeatTrace|kvserve.FeatRepl, 0)
	f.Add(mix)
	f.Add(mix[:len(mix)-4]) // a partial last frame
	traced := kvserve.AppendReq(nil, kvserve.OpTraceCtx, 1, 0xabc, 0)
	f.Add(kvserve.AppendReq(traced, kvserve.OpGet, 1, farKey, 0))
	f.Add(kvserve.AppendReq(traced, kvserve.OpPing, 1, 0, 0))
	f.Add(kvserve.AppendReq(traced, kvserve.OpTraceCtx, 2, 0xdef, 0)) // prefix, then a held-back prefix
	f.Add(append(mix[:len(mix):len(mix)], traced...))
	f.Add(kvserve.AppendReplBatch(mix[:2*kvserve.ReqSize:2*kvserve.ReqSize], 9, 2, func(i int) (uint64, uint64, uint64) {
		return nearKey, uint64(i), 0
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		whole := wholeFrames(data)
		if whole%kvserve.ReqSize != 0 || whole > len(data) || len(data)-whole >= 2*kvserve.ReqSize {
			t.Fatalf("wholeFrames = %d of %d bytes", whole, len(data))
		}
		hasRepl := false
		for off := 0; off < whole; off += kvserve.ReqSize {
			hasRepl = hasRepl || data[off] == kvserve.OpReplBatch
		}
		for _, tp := range []*Topology{nil, topo} {
			segs, ok := planChunk(data[:whole], tp, nil)
			if ok == hasRepl {
				t.Fatalf("planChunk ok=%v on a chunk whose OpReplBatch presence is %v", ok, hasRepl)
			}
			if !ok {
				continue
			}
			end := 0
			for _, sg := range segs {
				if sg.off != end || sg.end <= sg.off || sg.end%kvserve.ReqSize != 0 {
					t.Fatalf("segments %+v: %+v does not continue at byte %d", segs, sg, end)
				}
				if sg.node < -1 || sg.node >= len(topo.Nodes) || (tp == nil && sg.node != -1) {
					t.Fatalf("segment %+v names no node of the topology", sg)
				}
				for off := sg.off; off < sg.end; off += kvserve.ReqSize {
					if data[off] != kvserve.OpTraceCtx {
						continue
					}
					nxt := off + kvserve.ReqSize
					if nxt+kvserve.ReqSize > len(data) {
						t.Fatalf("the OpTraceCtx at byte %d ends the whole frames and was not held back", off)
					}
					if nxt >= sg.end && data[nxt] != kvserve.OpTraceCtx {
						t.Fatalf("segments %+v split the OpTraceCtx at byte %d from its successor", segs, off)
					}
				}
				end = sg.end
			}
			if end != whole {
				t.Fatalf("segments %+v cover %d of %d bytes", segs, end, whole)
			}
		}
	})
}

// BenchmarkPlanChunk prices the router's per-frame work: one header
// decode and one slot lookup per put, segments coalesced as in a real
// chunk (64 puts over the near, far and orphan slots).
func BenchmarkPlanChunk(b *testing.B) {
	topo := planTopo(farKey, orphanKey)
	var chunk []byte
	for i := 0; i < 64; i++ {
		chunk = kvserve.AppendReq(chunk, kvserve.OpPut, uint32(i), []uint64{nearKey, nearKey, nearKey, farKey, orphanKey}[i%5], 0)
	}
	segs := make([]proxySeg, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		segs, _ = planChunk(chunk, topo, segs[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/put")
}

// TestRouterRefusesReplBatch: the router never grants FeatRepl, and a
// client that sends an OpReplBatch through it anyway loses its
// connection before a byte of the frame reaches a backend — the header
// is not routed by its count field, nor its payload re-framed as requests.
func TestRouterRefusesReplBatch(t *testing.T) {
	dir := t.TempDir()
	nodes := map[string]*Node{}
	for _, id := range []string{"n0", "n1"} {
		nodes[id] = startTestNode(t, id, filepath.Join(dir, id+".img"))
		defer nodes[id].Close()
	}
	r, err := StartRouter(RouterConfig{Nodes: nodeInfos(nodes), Heartbeat: 20 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer r.Close()

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var resp [kvserve.RespSize]byte
	c.Write(kvserve.AppendReq(nil, kvserve.OpHello, 1, kvserve.FeatTrace|kvserve.FeatRepl, 0))
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, st, granted := kvserve.DecodeResp(&resp); st != kvserve.StatusOK || granted != kvserve.FeatTrace {
		t.Fatalf("router hello answered %s, granted %#x; want ok and FeatTrace alone", kvserve.StatusName(st), granted)
	}
	key := workloads.KVKey(9, 1) // not preloaded
	c.Write(kvserve.AppendReplBatch(nil, 3, 1, func(int) (uint64, uint64, uint64) { return key, 77, 0 }))
	if n, err := io.ReadFull(c, resp[:]); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("OpReplBatch through the router: read %d bytes, err %v; want the connection ended", n, err)
	}
	for id, n := range nodes {
		if puts := n.Server().Stats().Puts; puts != 0 {
			t.Fatalf("node %s applied %d puts", id, puts)
		}
		cl, err := kvserve.Dial(n.Server().Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, st, err := cl.Get(key); err != nil || st != kvserve.StatusNotFound {
			t.Fatalf("node %s: Get = %s,%v want not_found", id, kvserve.StatusName(st), err)
		}
		cl.Close()
	}
}
