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
// The frame constants and codecs are exported because two other layers
// speak this protocol verbatim: the lprouter proxy (internal/cluster)
// forwards client frames to node backends unchanged, and the cluster
// Replicator forwards sealed batches pair-member→pair-member as
// OpReplBatch frames.
const (
	OpPut = 'P'
	OpGet = 'G'
	// OpReplPut is the in-process tag the server stamps on each member
	// of a received OpReplBatch run: it is journaled and group-committed
	// like OpPut but never re-forwarded. The dedicated tag is what
	// makes replication echo structurally impossible — with role views
	// converging per node, two members can transiently both believe
	// they own a slot, and ordinary puts bounced between them would
	// amplify forever. It is never accepted from the wire: a frame
	// carrying it is answered StatusBadRequest.
	OpReplPut = 'R'
	OpPing    = 'N'
	// OpReplBatch is a run of replicated puts sharing one header and
	// one ack: a standard request header whose key field carries the
	// put count, followed by count 16-byte (key, val) pairs. Each put
	// is tagged OpReplPut (admission, journaling, group commit, never
	// re-forwarded); the receiver answers a single
	// response carrying the header's seq once every put in the run has
	// settled inside its own group commit — the worst member status
	// wins, so one StatusOK ack still means "every put in this run is
	// LP-durable here". This is the cluster's replication amortization:
	// one frame and one ack per forwarded batch instead of per put.
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
	// StatusBadRequest rejects a malformed frame (unknown op, or a
	// reserved key: 0 and NopKey).
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

func EncodeResp(buf *[RespSize]byte, seq uint32, status byte, val uint64) {
	binary.LittleEndian.PutUint32(buf[0:], seq)
	buf[4] = status
	binary.LittleEndian.PutUint64(buf[5:], val)
}

// appendResp encodes one response frame onto b — the connection
// reader's batched inline-response path (gets, pings, rejects), which
// accumulates frames and hands them to the socket in one write.
func appendResp(b []byte, seq uint32, status byte, val uint64) []byte {
	var f [RespSize]byte
	EncodeResp(&f, seq, status, val)
	return append(b, f[:]...)
}

func DecodeResp(buf *[RespSize]byte) (seq uint32, status byte, val uint64) {
	return binary.LittleEndian.Uint32(buf[0:]),
		buf[4],
		binary.LittleEndian.Uint64(buf[5:])
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
// arrive on (buffered; safe to abandon).
func (cl *Client) start(op byte, key, val uint64) (<-chan Response, error) {
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

	var buf [ReqSize]byte
	EncodeReq(&buf, op, seq, key, val)
	cl.wmu.Lock()
	_, err := cl.c.Write(buf[:])
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

// Put writes key=val and waits for the ack.
func (cl *Client) Put(key, val uint64) (byte, error) {
	ch, err := cl.start(OpPut, key, val)
	if err != nil {
		return 0, err
	}
	r := <-ch
	return r.Status, r.Err
}

// Hello negotiates optional protocol features for this connection and
// returns the granted bits. A server (or proxy) that predates OpHello
// answers StatusBadRequest, which comes back as granted == 0 — the
// caller keeps its optional features off and proceeds.
func (cl *Client) Hello(features uint64) (uint64, error) {
	ch, err := cl.start(OpHello, features, 0)
	if err != nil {
		return 0, err
	}
	r := <-ch
	if r.Err != nil {
		return 0, r.Err
	}
	if r.Status != StatusOK {
		return 0, nil
	}
	return r.Val & features, nil
}

// PutTraced writes key=val carrying trace ID tid: an OpTraceCtx prefix
// and the put leave in one socket write so no other frame can slip
// between them. Call only after Hello granted FeatTrace.
func (cl *Client) PutTraced(tid, key, val uint64) (byte, error) {
	ch := make(chan Response, 1)
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return 0, err
	}
	cl.seq++
	seq := cl.seq
	cl.pend[seq] = ch
	cl.mu.Unlock()

	var buf [2 * ReqSize]byte
	EncodeReq((*[ReqSize]byte)(buf[0:ReqSize]), OpTraceCtx, seq, tid, 0)
	EncodeReq((*[ReqSize]byte)(buf[ReqSize:]), OpPut, seq, key, val)
	cl.wmu.Lock()
	_, err := cl.c.Write(buf[:])
	cl.wmu.Unlock()
	if err != nil {
		cl.mu.Lock()
		delete(cl.pend, seq)
		cl.mu.Unlock()
		return 0, err
	}
	r := <-ch
	return r.Status, r.Err
}

// Get reads key.
func (cl *Client) Get(key uint64) (uint64, byte, error) {
	ch, err := cl.start(OpGet, key, 0)
	if err != nil {
		return 0, 0, err
	}
	r := <-ch
	return r.Val, r.Status, r.Err
}

// Ping round-trips a no-op frame.
func (cl *Client) Ping() error {
	ch, err := cl.start(OpPing, 1, 0)
	if err != nil {
		return err
	}
	r := <-ch
	if r.Err != nil {
		return r.Err
	}
	if r.Status != StatusOK {
		return fmt.Errorf("kvserve: ping answered %s", StatusName(r.Status))
	}
	return nil
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
