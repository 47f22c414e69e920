package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/workloads"
)

// driver.go is the benchmark's own wire-level load driver: a closed
// loop at fixed concurrency. Each connection keeps a window of W
// frames in flight and sends its next request only when a response
// frees a slot, so a slower server receives less load — the
// callers-that-wait model (see README "Deliberately absent" for why
// there is no paced open loop). It speaks kvserve.EncodeReq/DecodeResp
// over net.Conn and nothing else, so the repo's own load engines can
// be merged or moved without touching the benchmark.

// Sequence numbers are client-chosen and echoed verbatim, so the
// driver packs everything the reader needs to account a response into
// them: the window slot, the op kind, which measured phase (if any)
// the op belongs to, and whether a client.op span is wanted.
const (
	seqSlotMask = 0x0fff // up to 4096 frames in flight per connection
	seqPut      = 1 << 12
	seqPhShift  = 13 // 2 bits: 0 = not measured, 1 and 2 = measured phases
	seqSpan     = 1 << 15

	ivlNs      = int64(125 * time.Millisecond)
	sampleCap  = 2 << 20 // latency samples kept per kind, connection and phase
	spanEvery  = 64      // every n-th op of a traced phase gets a client.op span
	opKinds    = 2
	kindGet    = 0
	kindPut    = 1
	phaseSlots = 3
)

var epoch = time.Now()

// nanos is the driver's clock: monotonic nanoseconds since process
// start.
func nanos() int64 { return int64(time.Since(epoch)) }

// phaseStats is what a connection's reader records for one measured
// phase. Everything is preallocated by arm; the reader allocates
// nothing inside a measured window.
type phaseStats struct {
	t0    atomic.Int64 // phase start, set before the first frame is sent
	done  [opKinds]uint64
	sumNs [opKinds]uint64
	lat   [opKinds][]uint32 // exact per-op samples, every stride-th op, in completion order
	ctr   [opKinds]int
	ivl   []uint32 // completions per interval (ivlNs) since t0
	// cut[k][i] is len(lat[k]) when interval i ended, so each interval's
	// samples can be cut back out; cur is the interval being filled.
	cut   [opKinds][]int
	cur   int
	spans []span // client.op spans (traced phases only)
}

// samples returns the kind-k samples that completed in interval i.
func (st *phaseStats) samples(k, i int) []uint32 {
	end := func(j int) int { // samples taken by the end of interval j
		if j < 0 {
			return 0
		}
		if j < st.cur {
			return st.cut[k][j]
		}
		return len(st.lat[k])
	}
	return st.lat[k][end(i-1):end(i)]
}

// conn is one driver connection: a writer (runPhase, called from the
// workload's goroutine for this connection) and a reader goroutine
// that lives as long as the socket.
type conn struct {
	id     int
	nc     net.Conn
	bw     *bufio.Writer
	gen    *workloads.KVGen
	window int
	stride int

	// free carries the window: the reader returns a slot for every
	// response, the writer takes one for every request. Capacity
	// window+1 leaves room for the reader's -1 when the socket dies.
	free chan int32
	// Written by the writer before a frame leaves, read by the reader
	// when its response arrives; atomics because the socket is the only
	// ordering between the two.
	slotT0  []atomic.Int64
	slotKey []atomic.Uint32

	sent uint64 // ops drawn from gen and sent, all phases (writer)

	// Reader-owned until the writer has collected the whole window
	// back (drain), which orders these writes before any read.
	recv      uint64
	failed    uint64 // responses other than StatusOK ...
	shutdowns uint64 // ... of which StatusShutdown (expected once crash_recover aborts)
	okPuts    uint64
	firstBad  string
	acked     []uint32 // per key index: puts answered StatusOK
	stats     [phaseSlots]phaseStats
	rdDone    chan struct{}
	rdErr     error
}

func keyIdx(key uint64) uint32 { return uint32(key&(1<<40-1)) - 1 }

func dialConn(addr string, id int, seed uint64, sp servingSpec) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("driver: dial %s: %w", addr, err)
	}
	c := &conn{
		id: id, nc: nc, window: sp.window, stride: sp.stride,
		bw:      bufio.NewWriterSize(nc, 1<<15),
		gen:     sp.gen(seed, id),
		free:    make(chan int32, sp.window+1),
		slotT0:  make([]atomic.Int64, sp.window),
		slotKey: make([]atomic.Uint32, sp.window),
		acked:   make([]uint32, sp.keys),
		rdDone:  make(chan struct{}),
	}
	for s := 0; s < sp.window; s++ {
		c.free <- int32(s)
	}
	go c.reader(bufio.NewReaderSize(nc, 1<<15))
	return c, nil
}

// arm preallocates phase ph's recording buffers: sample slices for the
// kinds the mix produces, interval counters for seconds of run, and
// (traced phases) the client.op span buffer.
func (c *conn) arm(ph int, mix workloads.KVMix, seconds float64, traced bool) {
	st := &c.stats[ph]
	if mix.Read > 0 {
		st.lat[kindGet] = make([]uint32, 0, sampleCap)
	}
	if mix.Update > 0 {
		st.lat[kindPut] = make([]uint32, 0, sampleCap)
	}
	st.ivl = make([]uint32, int(seconds*float64(time.Second)/float64(ivlNs))+8)
	for k := range st.cut {
		st.cut[k] = make([]int, len(st.ivl))
	}
	if traced {
		st.spans = make([]span, 0, 1<<16)
	}
}

func (c *conn) reader(br *bufio.Reader) {
	defer close(c.rdDone)
	var buf [kvserve.RespSize]byte
	held := make([]int32, 0, c.window) // slots answered but not yet handed back
	for {
		// Release before blocking, as the writer flushes before blocking:
		// slots go back in one burst once everything that has arrived is
		// accounted, so the writer's next batch is as large as the
		// server's last one instead of as large as the scheduler made it.
		if br.Buffered() < kvserve.RespSize {
			for _, s := range held {
				c.free <- s
			}
			held = held[:0]
		}
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			c.rdErr = err
			c.free <- -1
			return
		}
		seq, status, _ := kvserve.DecodeResp(&buf)
		now := nanos()
		s := seq & seqSlotMask
		kind := kindGet
		if seq&seqPut != 0 {
			kind = kindPut
		}
		c.recv++
		if status != kvserve.StatusOK {
			c.failed++
			if status == kvserve.StatusShutdown {
				c.shutdowns++
			}
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("conn %d: %s answered %s", c.id,
					[opKinds]string{"get", "put"}[kind], kvserve.StatusName(status))
			}
		} else if kind == kindPut {
			c.okPuts++
			c.acked[c.slotKey[s].Load()]++
		}
		if ph := (seq >> seqPhShift) & 3; ph != 0 {
			st := &c.stats[ph]
			t0 := c.slotT0[s].Load()
			lat := uint64(now - t0)
			st.done[kind]++
			st.sumNs[kind] += lat
			i := min(int((now-st.t0.Load())/ivlNs), len(st.ivl)-1)
			for ; st.cur < i; st.cur++ {
				st.cut[kindGet][st.cur], st.cut[kindPut][st.cur] = len(st.lat[kindGet]), len(st.lat[kindPut])
			}
			st.ivl[i]++
			if st.ctr[kind]++; st.ctr[kind] == c.stride {
				st.ctr[kind] = 0
				if l := st.lat[kind]; len(l) < cap(l) {
					st.lat[kind] = append(l, uint32(min(lat, 1<<32-1)))
				}
			}
			if seq&seqSpan != 0 && len(st.spans) < cap(st.spans) {
				st.spans = append(st.spans, span{Name: "client.op", Start: t0, End: now})
			}
		}
		held = append(held, int32(s))
	}
}

// phase describes one stretch of load on a connection.
type phase struct {
	id       int   // 0 = unmeasured (warm-up), 1 or 2 = measured
	maxOps   int   // stop after this many ops ...
	deadline int64 // ... or at this driver-clock time (0 = none), whichever is first
	traced   bool
}

// runPhase sends ops from the connection's generator until the phase's
// op budget or deadline is reached, then drains: it returns once every
// frame it sent has been answered. sendEnd is when the last frame was
// queued. A dead socket returns an error; the ops still in flight are
// the abandoned ones.
func (c *conn) runPhase(ph phase) (sendEnd int64, err error) {
	var buf [kvserve.ReqSize]byte
	phBits := uint32(ph.id) << seqPhShift
	spanCt := 0
	for n := 0; n < ph.maxOps; n++ {
		var s int32
		select {
		case s = <-c.free:
		default:
			// Flush before blocking: the responses that free a slot can
			// only come for frames that left.
			if err := c.bw.Flush(); err != nil {
				return nanos(), fmt.Errorf("driver: conn %d: %w", c.id, err)
			}
			s = <-c.free
		}
		if s < 0 {
			return nanos(), fmt.Errorf("driver: conn %d lost: %w", c.id, c.rdErr)
		}
		now := nanos()
		if ph.deadline != 0 && now >= ph.deadline {
			c.free <- s
			break
		}
		op := c.gen.Next()
		seq := uint32(s) | phBits
		code := byte(kvserve.OpGet)
		if op.Kind != workloads.KVRead {
			code = kvserve.OpPut
			seq |= seqPut
		}
		if ph.traced {
			if spanCt++; spanCt == spanEvery {
				spanCt = 0
				seq |= seqSpan
			}
		}
		c.slotT0[s].Store(now)
		c.slotKey[s].Store(keyIdx(op.Key))
		kvserve.EncodeReq(&buf, code, seq, op.Key, op.Val)
		c.bw.Write(buf[:]) // a write error resurfaces at Flush
		c.sent++
	}
	sendEnd = nanos()
	if err := c.bw.Flush(); err != nil {
		return sendEnd, fmt.Errorf("driver: conn %d: %w", c.id, err)
	}
	return sendEnd, c.drain()
}

// drain waits until nothing is in flight by collecting the whole
// window, then hands it back.
func (c *conn) drain() error {
	for i := 0; i < c.window; i++ {
		if s := <-c.free; s < 0 {
			return fmt.Errorf("driver: conn %d lost with %d frames in flight: %w", c.id, c.window-i, c.rdErr)
		}
	}
	for s := 0; s < c.window; s++ {
		c.free <- int32(s)
	}
	return nil
}

// close shuts the socket and waits for the reader to exit.
func (c *conn) close() {
	c.nc.Close()
	<-c.rdDone
}

// readBack fetches keys over a fresh connection to addr, pipelined in
// chunks, and returns their values in order. A get that does not
// answer StatusOK is an error: every key asked for was preloaded.
func readBack(addr string, keys []uint64) ([]uint64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("read-back: dial %s: %w", addr, err)
	}
	defer nc.Close()
	bw := bufio.NewWriterSize(nc, 1<<15)
	br := bufio.NewReaderSize(nc, 1<<15)
	vals := make([]uint64, len(keys))
	const chunk = 1024
	var req [kvserve.ReqSize]byte
	var resp [kvserve.RespSize]byte
	for base := 0; base < len(keys); base += chunk {
		n := min(chunk, len(keys)-base)
		for i := 0; i < n; i++ {
			kvserve.EncodeReq(&req, kvserve.OpGet, uint32(i), keys[base+i], 0)
			bw.Write(req[:])
		}
		if err := bw.Flush(); err != nil {
			return nil, fmt.Errorf("read-back: %w", err)
		}
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(br, resp[:]); err != nil {
				return nil, fmt.Errorf("read-back: %w", err)
			}
			seq, status, val := kvserve.DecodeResp(&resp)
			if int(seq) >= n {
				return nil, fmt.Errorf("read-back: response for unknown seq %d", seq)
			}
			if status != kvserve.StatusOK {
				return nil, fmt.Errorf("read-back: get of preloaded key %#x answered %s",
					keys[base+int(seq)], kvserve.StatusName(status))
			}
			vals[base+int(seq)] = val
		}
	}
	return vals, nil
}

// checkFinal decides, for every key connection c wrote, whether the
// final value is one the durability contract allows: the last value
// acked to the driver or any value sent after it (the preloaded value
// too when nothing was acked). It regenerates c's op stream from the
// seed instead of logging it — the stream is a pure function of
// (seed, connection). final returns the observed value of a key index.
// Returns the number of keys written and the number whose final value
// is not allowed.
func checkFinal(c *conn, seed uint64, sp servingSpec, final func(idx uint32) uint64) (written, bad int) {
	g := sp.gen(seed, c.id)
	occ := make([]uint32, sp.keys)
	good := make([]bool, sp.keys)
	for i := uint64(0); i < c.sent; i++ {
		op := g.Next()
		if op.Kind == workloads.KVRead {
			continue
		}
		idx := keyIdx(op.Key)
		occ[idx]++
		if occ[idx] >= c.acked[idx] && final(idx) == op.Val {
			good[idx] = true
		}
	}
	for idx := range occ {
		if occ[idx] == 0 {
			continue
		}
		written++
		if good[idx] {
			continue
		}
		key := workloads.KVKey(c.id, idx)
		if c.acked[idx] == 0 && final(uint32(idx)) == workloads.KVInitVal(seed, key) {
			continue
		}
		bad++
	}
	return written, bad
}
