package kvserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The wire protocol is a fixed-frame binary exchange sized for
// pipelining: requests are 21 bytes ([op:1][seq:4][key:8][val:8]),
// responses 13 ([seq:4][status:1][val:8]). Sequence numbers are
// per-connection and chosen by the client; responses may arrive out of
// order (different shards commit independently), which is the point —
// a connection keeps a window of requests in flight and the group
// commit acks them in batch order.
//
// This file is the format's only owner: no other non-test file of
// kvserve, cluster or loadmodel knows a byte offset of a frame (CI
// greps for encoding/binary). Who speaks the protocol, and through what:
//
//   - the server (conn.go): DecodeReq per inbound frame, AppendResp for
//     every answer, ReplPayloadLen and DecodeReplBatch for an OpReplBatch;
//   - Client (below) and the load engine (internal/loadmodel):
//     AppendReq (EncodeReq for its hello) out, DecodeResp in;
//   - the router (internal/cluster/router.go): DecodeReq on the headers
//     it routes by — payload bytes pass through untouched — and
//     AppendResp for the frames it answers itself;
//   - the replicator (internal/cluster/repl.go): AppendReplBatch for a
//     forwarded run, EncodeReq for the session hello, DecodeResp for the
//     hello's answer and the follower's acks;
//   - bench/ and the tests: EncodeReq/EncodeResp and the decoders.
const (
	OpPut  = 'P'
	OpGet  = 'G'
	OpPing = 'N'
	// OpReplBatch is a run of replicated puts sharing one header and
	// one ack: a standard request header whose key field carries the
	// put count and whose val field the trace-entry count, followed by
	// count 16-byte (key, val) pairs and the trace entries (see
	// AppendReplBatch). Each put goes through admission, journaling and
	// group commit like a client put but is never re-forwarded — which
	// makes replication echo structurally impossible: with role views
	// converging per node, two members can transiently both believe they
	// own a slot, and ordinary puts bounced between them would amplify
	// forever. The receiver answers a single response carrying the
	// header's seq once every put in the run has settled inside its own
	// group commit — the worst member status wins, so one StatusOK ack
	// still means "every put in this run is LP-durable here". This is the
	// cluster's replication amortization: one frame and one ack per
	// forwarded batch instead of per put. Accepted only on a connection
	// whose OpHello was granted FeatRepl.
	OpReplBatch = 'B'
	// OpHello is the per-connection capability handshake: the key field
	// carries the feature bits the client wants, the response's val the
	// bits the server grants. A client that never sends it gets exactly
	// the pre-hello protocol — old clients stay wire-compatible byte
	// for byte — and a new client talking to an implementation that
	// predates the opcode reads StatusBadRequest and simply keeps its
	// optional features off.
	OpHello = 'H'
	// OpTraceCtx is the trace-context extension negotiated by OpHello's
	// FeatTrace bit: a standard request frame whose key field carries a
	// trace ID, attached to the NEXT frame on the same connection. It is
	// a silent prefix — the server consumes it without answering, so
	// framing, sequence-number flow, and response counts are untouched
	// for every other frame. The router forwards a prefix fused to its
	// successor so the pair lands on the same backend.
	OpTraceCtx = 'T'

	// FeatTrace is the OpHello feature bit for OpTraceCtx support.
	FeatTrace = uint64(1)
	// FeatRepl is the OpHello feature bit that opens a connection to
	// OpReplBatch frames: a replication session asks for it at dial, and
	// a connection that sends OpReplBatch without the grant is ended
	// (past a payload the server will not read, framing is lost). The
	// router answers hellos itself and never grants it, so nothing behind
	// a router can replicate into a member.
	FeatRepl = uint64(2)

	ReqSize  = 1 + 4 + 8 + 8
	RespSize = 4 + 1 + 8
	// ReplPairSize is the size of one (key, val) pair in an OpReplBatch
	// payload.
	ReplPairSize = 16
	// ReplTraceSize is the size of one [idx:4][tid:8] trace entry in an
	// OpReplBatch trace extension: the header's val field counts these
	// entries, which follow the pairs on the wire ascending by idx and
	// tag pair idx with trace ID tid. A header val of 0 — what every
	// pre-trace primary sends — is the extension absent.
	ReplTraceSize = 12
	// MaxReplBatch bounds the put count an OpReplBatch header may
	// declare — a receiver-side allocation guard, far above any real
	// group-commit batch.
	MaxReplBatch = 4096
)

// Response status codes.
const (
	// StatusOK acks the operation; for a put it means the put's batch
	// (LP) or its own write set (EP/WAL) is durably in the backing file.
	StatusOK = byte(iota)
	// StatusNotFound is a get miss.
	StatusNotFound
	// StatusOverload means the shard's mailbox was full; retry later.
	StatusOverload
	// StatusExpired means the request waited in the mailbox past
	// MaxQueueDelay and was not executed.
	StatusExpired
	// StatusFull rejects a put: the shard's table is at its admission
	// watermark or its LP journal is exhausted.
	StatusFull
	// StatusBadRequest rejects a malformed frame (unknown op, or the
	// reserved key 0).
	StatusBadRequest
	// StatusShutdown means the server is draining (or hit a backing-
	// file write error) and took no action.
	StatusShutdown
	// StatusMoved rejects a client put whose key this cluster member
	// does not own under its applied topology epoch: the client's
	// routing table is stale and it must refresh and re-route. Ordered
	// after StatusShutdown so the severity ranking of the pre-existing
	// codes (used by OpReplBatch worst-status aggregation) is
	// untouched; replication frames are exempt from the primary check,
	// so StatusMoved never appears in a replication ack.
	StatusMoved
)

// StatusName returns a human-readable status label.
func StatusName(st byte) string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not_found"
	case StatusOverload:
		return "overload"
	case StatusExpired:
		return "expired"
	case StatusFull:
		return "full"
	case StatusBadRequest:
		return "bad_request"
	case StatusShutdown:
		return "shutdown"
	case StatusMoved:
		return "moved"
	}
	return fmt.Sprintf("status(%d)", st)
}

func EncodeReq(buf *[ReqSize]byte, op byte, seq uint32, key, val uint64) {
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[1:], seq)
	binary.LittleEndian.PutUint64(buf[5:], key)
	binary.LittleEndian.PutUint64(buf[13:], val)
}

func DecodeReq(buf *[ReqSize]byte) (op byte, seq uint32, key, val uint64) {
	return buf[0],
		binary.LittleEndian.Uint32(buf[1:]),
		binary.LittleEndian.Uint64(buf[5:]),
		binary.LittleEndian.Uint64(buf[13:])
}

// AppendReq appends one request frame to b.
func AppendReq(b []byte, op byte, seq uint32, key, val uint64) []byte {
	var f [ReqSize]byte
	EncodeReq(&f, op, seq, key, val)
	return append(b, f[:]...)
}

func EncodeResp(buf *[RespSize]byte, seq uint32, status byte, val uint64) {
	binary.LittleEndian.PutUint32(buf[0:], seq)
	buf[4] = status
	binary.LittleEndian.PutUint64(buf[5:], val)
}

// AppendResp appends one response frame to b — how the server batches
// inline answers and acks, and how the router answers for itself.
func AppendResp(b []byte, seq uint32, status byte, val uint64) []byte {
	var f [RespSize]byte
	EncodeResp(&f, seq, status, val)
	return append(b, f[:]...)
}

func DecodeResp(buf *[RespSize]byte) (seq uint32, status byte, val uint64) {
	return binary.LittleEndian.Uint32(buf[0:]),
		buf[4],
		binary.LittleEndian.Uint64(buf[5:])
}

// AppendReplBatch appends one OpReplBatch frame of n puts to b: the
// header (key field n, val field the number of traced puts), the n
// (key, val) pairs, then one [idx:4][tid:8] entry per put whose tid is
// nonzero, ascending by pair index. put(i) yields pair i and is called
// once per pass. A run with no traced put encodes val = 0 and no
// entries — byte-identical to the pre-trace frame.
func AppendReplBatch(b []byte, seq uint32, n int, put func(i int) (key, val, tid uint64)) []byte {
	hdr := len(b)
	b = AppendReq(b, OpReplBatch, seq, uint64(n), 0)
	traced := uint64(0)
	for i := 0; i < n; i++ {
		key, val, tid := put(i)
		b = binary.LittleEndian.AppendUint64(b, key)
		b = binary.LittleEndian.AppendUint64(b, val)
		if tid != 0 {
			traced++
		}
	}
	if traced == 0 {
		return b
	}
	EncodeReq((*[ReqSize]byte)(b[hdr:]), OpReplBatch, seq, uint64(n), traced)
	for i := 0; i < n; i++ {
		if _, _, tid := put(i); tid != 0 {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = binary.LittleEndian.AppendUint64(b, tid)
		}
	}
	return b
}

// ReplPayloadLen returns the length of the payload that follows an
// OpReplBatch header declaring count pairs and tcount trace entries, or
// ok = false for a header the receiver refuses: count outside
// 1…MaxReplBatch, or more trace entries than pairs.
func ReplPayloadLen(count, tcount uint64) (n int, ok bool) {
	if count == 0 || count > MaxReplBatch || tcount > count {
		return 0, false
	}
	return int(count)*ReplPairSize + int(tcount)*ReplTraceSize, true
}

// DecodeReplBatch walks the payload of an OpReplBatch frame whose header
// declared count pairs and tcount trace entries, calling put once per
// pair, in order, with the pair's trace ID (0 = untraced). It reports
// false, having called nothing, when ReplPayloadLen refuses the header or
// payload is not exactly that long. Trace entries are consumed as a
// cursor over ascending idx: entries naming an earlier pair are skipped,
// so an entry out of order or past the last pair tags nothing.
func DecodeReplBatch(count, tcount uint64, payload []byte, put func(key, val, tid uint64)) bool {
	if n, ok := ReplPayloadLen(count, tcount); !ok || len(payload) != n {
		return false
	}
	trace := payload[int(count)*ReplPairSize:]
	for i := uint32(0); i < uint32(count); i++ {
		var tid uint64
		for len(trace) > 0 {
			e := trace
			idx := binary.LittleEndian.Uint32(e)
			if idx > i {
				break
			}
			trace = e[ReplTraceSize:]
			if idx == i {
				tid = binary.LittleEndian.Uint64(e[4:])
				break
			}
		}
		pair := payload[int(i)*ReplPairSize:]
		put(binary.LittleEndian.Uint64(pair), binary.LittleEndian.Uint64(pair[8:]), tid)
	}
	return true
}

// Response is one operation's outcome as seen by a Client. Err is set
// only for connection-level failures (the server died or the
// connection broke before the response arrived); otherwise Status is
// one of the Status codes above.
type Response struct {
	Status byte
	Val    uint64
	Err    error
}

// Client is a pipelined connection to a server: any number of
// operations may be in flight, matched to responses by sequence
// number. Safe for concurrent use.
type Client struct {
	c   net.Conn
	wmu sync.Mutex // serializes request frames

	mu   sync.Mutex
	seq  uint32
	pend map[uint32]chan Response
	err  error
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{c: c, pend: make(map[uint32]chan Response)}
	go cl.readLoop()
	return cl, nil
}

// WaitReady dials addr and pings until the server answers or the
// timeout elapses — the boot barrier for tests and scripted runs.
func WaitReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		cl, err := Dial(addr)
		if err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return nil
			}
		}
		last = err
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("kvserve: %s not ready after %v: %w", addr, timeout, last)
}

// start issues one operation and returns the channel its Response will
// arrive on (buffered; safe to abandon). A nonzero tid sends the op
// behind an OpTraceCtx prefix, both in one socket write so no other
// frame can slip between them.
func (cl *Client) start(op byte, key, val, tid uint64) (<-chan Response, error) {
	ch := make(chan Response, 1)
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
	cl.seq++
	seq := cl.seq
	cl.pend[seq] = ch
	cl.mu.Unlock()

	var buf [2 * ReqSize]byte
	f := buf[:0]
	if tid != 0 {
		f = AppendReq(f, OpTraceCtx, seq, tid, 0)
	}
	f = AppendReq(f, op, seq, key, val)
	cl.wmu.Lock()
	_, err := cl.c.Write(f)
	cl.wmu.Unlock()
	if err != nil {
		cl.mu.Lock()
		delete(cl.pend, seq)
		cl.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

func (cl *Client) readLoop() {
	br := bufio.NewReaderSize(cl.c, 1<<12)
	var buf [RespSize]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			cl.fail(err)
			return
		}
		seq, status, val := DecodeResp(&buf)
		cl.mu.Lock()
		ch := cl.pend[seq]
		delete(cl.pend, seq)
		cl.mu.Unlock()
		if ch != nil {
			ch <- Response{Status: status, Val: val}
		}
	}
}

// fail poisons the client and completes every in-flight operation
// with err — an unacked put stays unacked, exactly the durability
// question the crash test asks.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	for seq, ch := range cl.pend {
		delete(cl.pend, seq)
		ch <- Response{Err: err}
	}
	cl.mu.Unlock()
}

// do issues one operation and waits for its Response.
func (cl *Client) do(op byte, key, val, tid uint64) Response {
	ch, err := cl.start(op, key, val, tid)
	if err != nil {
		return Response{Err: err}
	}
	return <-ch
}

// Put writes key=val and waits for the ack.
func (cl *Client) Put(key, val uint64) (byte, error) {
	r := cl.do(OpPut, key, val, 0)
	return r.Status, r.Err
}

// Hello negotiates optional protocol features for this connection and
// returns the granted bits. A server (or proxy) that predates OpHello
// answers StatusBadRequest, which comes back as granted == 0 — the
// caller keeps its optional features off and proceeds.
func (cl *Client) Hello(features uint64) (uint64, error) {
	r := cl.do(OpHello, features, 0, 0)
	if r.Err != nil || r.Status != StatusOK {
		return 0, r.Err
	}
	return r.Val & features, nil
}

// PutTraced writes key=val carrying trace ID tid (nonzero). Call only
// after Hello granted FeatTrace.
func (cl *Client) PutTraced(tid, key, val uint64) (byte, error) {
	r := cl.do(OpPut, key, val, tid)
	return r.Status, r.Err
}

// Get reads key.
func (cl *Client) Get(key uint64) (uint64, byte, error) {
	r := cl.do(OpGet, key, 0, 0)
	return r.Val, r.Status, r.Err
}

// Ping round-trips a no-op frame.
func (cl *Client) Ping() error {
	r := cl.do(OpPing, 1, 0, 0)
	if r.Err == nil && r.Status != StatusOK {
		return fmt.Errorf("kvserve: ping answered %s", StatusName(r.Status))
	}
	return r.Err
}

// Err returns the connection-level failure that poisoned the client,
// if any.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// Close tears the connection down; in-flight operations complete with
// an error.
func (cl *Client) Close() error { return cl.c.Close() }
