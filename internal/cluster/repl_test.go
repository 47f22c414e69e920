package cluster

import (
	"io"
	"net"
	"testing"
	"time"

	"lazyp/internal/kvserve"
)

// pairTopology is a two-member epoch-1 topology in which p0 is the
// primary of every slot and peer is its pair.
func pairTopology(peer NodeInfo) *Topology {
	topo := &Topology{
		Epoch: 1,
		Nodes: []NodeInfo{{ID: "p0", Addr: "127.0.0.1:9", State: StateAlive}, peer},
		Slots: make([]SlotAssign, NumSlots),
	}
	for i := range topo.Slots {
		topo.Slots[i] = SlotAssign{Primary: 0, Follower: -1, Pair: 1}
	}
	return topo
}

// fakeFollower is a replication peer whose answers the test dictates:
// it grants FeatRepl to every hello, reports each OpReplBatch frame's
// pair count on frames, and answers it with the next status sent on
// answer. closed receives one value per connection that ended.
type fakeFollower struct {
	addr   string
	answer chan byte
	frames chan int
	closed chan struct{}
	done   chan struct{}
}

func startFakeFollower(t *testing.T) *fakeFollower {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// 16 is more frames, answers and connections than any test has
	// outstanding, so neither side of the fake ever blocks on a buffer.
	f := &fakeFollower{
		addr:   ln.Addr().String(),
		answer: make(chan byte, 16),
		frames: make(chan int, 16),
		closed: make(chan struct{}, 16),
		done:   make(chan struct{}),
	}
	t.Cleanup(func() { close(f.done); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(c)
		}
	}()
	return f
}

func (f *fakeFollower) serve(c net.Conn) {
	defer func() {
		c.Close()
		f.closed <- struct{}{}
	}()
	var req [kvserve.ReqSize]byte
	if _, err := io.ReadFull(c, req[:]); err != nil {
		return
	}
	if _, err := c.Write(kvserve.AppendResp(nil, 0, kvserve.StatusOK, kvserve.FeatRepl)); err != nil {
		return
	}
	for {
		if _, err := io.ReadFull(c, req[:]); err != nil {
			return
		}
		_, seq, count, tcount := kvserve.DecodeReq(&req)
		n, ok := kvserve.ReplPayloadLen(count, tcount)
		if !ok {
			return
		}
		if _, err := io.ReadFull(c, make([]byte, n)); err != nil {
			return
		}
		f.frames <- int(count)
		var st byte
		select {
		case st = <-f.answer:
		case <-f.done:
			return
		}
		if _, err := c.Write(kvserve.AppendResp(nil, seq, st, 0)); err != nil {
			return
		}
	}
}

// forwardLive starts a replicator p0 whose pair peer p1 is f, alive.
func forwardLive(t *testing.T, f *fakeFollower, window int) *Replicator {
	t.Helper()
	r := NewReplicator(ReplConfig{Self: "p0", Window: window})
	t.Cleanup(r.Close)
	if err := r.ApplyTopology(pairTopology(NodeInfo{ID: "p1", Addr: f.addr, State: StateAlive})); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	return r
}

// waitRun waits run under a deadline, so a run that nothing resolves
// fails the test by name instead of hanging it.
func waitRun(t *testing.T, run kvserve.ReplRun) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- run.Wait() }()
	select {
	case ok := <-done:
		return ok
	case <-time.After(5 * time.Second):
		t.Fatal("run never resolved")
		return false
	}
}

// batch returns n keys with values tagged by round, and n trace IDs.
func batch(n, round int) (keys, vals, tids []uint64) {
	keys, vals, tids = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for j := range keys {
		keys[j] = uint64(j + 1)
		vals[j] = uint64(round)<<32 | uint64(j+1)
	}
	return keys, vals, tids
}

// TestForwardedRunWaitedOnce: a batch bound for one peer is one run,
// every put indexes it, and its single Wait returns the window slot —
// with a window of one, the next round's ForwardBatch would block for
// ever otherwise.
func TestForwardedRunWaitedOnce(t *testing.T) {
	f := startFakeFollower(t)
	r := forwardLive(t, f, 1)
	const n, rounds = 8, 3
	in := make([]uint16, n)
	for round := 0; round < rounds; round++ {
		keys, vals, tids := batch(n, round)
		var runs []kvserve.ReplRun
		fwd := make(chan struct{})
		go func() {
			runs = r.ForwardBatch(keys, vals, tids, in, nil)
			close(fwd)
		}()
		select {
		case <-fwd:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: ForwardBatch blocked; the last round's Wait kept the window's only slot", round)
		}
		if len(runs) != 1 {
			t.Fatalf("round %d: %d runs, want 1", round, len(runs))
		}
		for j, idx := range in {
			if idx != 1 {
				t.Fatalf("round %d: put %d indexes run %d, want 1", round, j, idx)
			}
		}
		if got := <-f.frames; got != n {
			t.Fatalf("round %d: frame of %d puts, want %d", round, got, n)
		}
		f.answer <- kvserve.StatusOK
		if !waitRun(t, runs[0]) {
			t.Fatalf("round %d: acked run not ackable", round)
		}
	}
	if acks, deg := r.ctAcks.Load(), r.ctDegraded.Load(); acks != n*rounds || deg != 0 {
		t.Fatalf("acks %d degraded %d, want %d and 0", acks, deg, n*rounds)
	}
}

// TestRefusedRunDegradesWithoutResend: whatever a follower refuses a
// run with — Overload and Expired included, which a kvserve follower
// never sends — the run degrades at once: not ackable while the
// follower's lease stands, its puts in the delta at their newest
// values, no second frame on the wire, and the session still serves
// the next run.
func TestRefusedRunDegradesWithoutResend(t *testing.T) {
	f := startFakeFollower(t)
	r := forwardLive(t, f, 4)
	const n = 4
	in := make([]uint16, n)
	refusals := []byte{kvserve.StatusOverload, kvserve.StatusExpired, kvserve.StatusFull}
	for round, st := range refusals {
		keys, vals, tids := batch(n, round)
		runs := r.ForwardBatch(keys, vals, tids, in, nil)
		<-f.frames
		f.answer <- st
		if waitRun(t, runs[0]) {
			t.Fatalf("%s: refused run ackable while the follower's lease stands", kvserve.StatusName(st))
		}
		select {
		case got := <-f.frames:
			t.Fatalf("%s: a %d-put frame followed the refusal, want none", kvserve.StatusName(st), got)
		case <-time.After(20 * time.Millisecond):
		}
		ps := r.view.Load().peers[SlotOf(keys[0])]
		ps.mu.Lock()
		for j, key := range keys {
			if e, ok := ps.delta[key]; !ok || e.val != vals[j] {
				ps.mu.Unlock()
				t.Fatalf("%s: key %#x buffered as %#x (ok=%v), want %#x", kvserve.StatusName(st), key, e.val, ok, vals[j])
			}
		}
		ps.mu.Unlock()
	}
	if deg := r.ctDegraded.Load(); deg != n*uint64(len(refusals)) {
		t.Fatalf("degraded %d, want %d", deg, n*len(refusals))
	}

	keys, vals, tids := batch(n, len(refusals))
	runs := r.ForwardBatch(keys, vals, tids, in, nil)
	<-f.frames
	f.answer <- kvserve.StatusOK
	if !waitRun(t, runs[0]) {
		t.Fatal("run after the refusals not ackable")
	}
	if d := r.DeltaLen("p1"); d != 0 {
		t.Fatalf("delta holds %d entries after the newer values acked, want 0", d)
	}
}

// TestCloseResolvesInflightRuns: Close finds the live session through
// its peer, ends the connection and resolves the unanswered run, which
// is not ackable: the follower's lease was never revoked.
func TestCloseResolvesInflightRuns(t *testing.T) {
	f := startFakeFollower(t)
	r := forwardLive(t, f, 2)
	keys, vals, tids := batch(3, 0)
	runs := r.ForwardBatch(keys, vals, tids, make([]uint16, len(keys)), nil)
	<-f.frames
	r.Close()
	if waitRun(t, runs[0]) {
		t.Fatal("run cut by Close is ackable")
	}
	f.answer <- kvserve.StatusOK // too late: the follower then reads the end of the connection
	select {
	case <-f.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("session connection still open after Close")
	}
}

// TestReplicatorDeltaCompaction pins the RF=1 degradation cost for
// overwrite-heavy mixes: while the pair peer is dead, the delta buffer
// holds the latest value per live key — not one entry per missed put —
// so catch-up replays O(live keys), no matter how long the outage or
// how hot the keys.
func TestReplicatorDeltaCompaction(t *testing.T) {
	r := NewReplicator(ReplConfig{Self: "p0", Window: 8})
	defer r.Close()
	if err := r.ApplyTopology(pairTopology(NodeInfo{ID: "p1", Addr: "127.0.0.1:10", State: StateDead})); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}

	// 100 rounds of overwrites across 32 live keys, forwarded in the
	// batches the flusher would hand over. Every put lands in the dead
	// peer's delta; each round supersedes the previous one.
	const liveKeys, rounds = 32, 100
	in := make([]uint16, liveKeys)
	for round := 0; round < rounds; round++ {
		keys, vals, tids := batch(liveKeys, round)
		if runs := r.ForwardBatch(keys, vals, tids, in, nil); len(runs) != 0 {
			t.Fatalf("round %d: %d runs to wait, want none (dead peer buffers at RF=1)", round, len(runs))
		}
		for j, idx := range in {
			if idx != 0 {
				t.Fatalf("round %d key %#x: run %d, want 0 (dead peer buffers at RF=1)", round, keys[j], idx)
			}
		}
	}

	if n := r.DeltaLen("p1"); n != liveKeys {
		t.Fatalf("delta holds %d entries after %d overwriting puts, want %d (one per live key)",
			n, liveKeys*rounds, liveKeys)
	}

	// The surviving entry per key must be the newest value — replaying
	// a stale one at catch-up would roll the follower back.
	v := r.view.Load()
	for j := 0; j < liveKeys; j++ {
		key := uint64(j + 1)
		ps := v.peers[SlotOf(key)]
		if ps == nil {
			t.Fatalf("key %#x routes to no peer", key)
		}
		ps.mu.Lock()
		ent, ok := ps.delta[key]
		ps.mu.Unlock()
		want := uint64(rounds-1)<<32 | key
		if !ok || ent.val != want {
			t.Fatalf("key %#x buffered as %#x (ok=%v), want newest value %#x", key, ent.val, ok, want)
		}
	}
}
