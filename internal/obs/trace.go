package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// EventType names a persistency event. The set spans all three
// instrumented layers: the kvserve service, the lpstore recovery
// machinery, and the simulator's memory system.
type EventType uint8

const (
	EvNone EventType = iota

	// Service / store events.
	EvBatchCommit    // a group-commit batch persisted; a=journal window of its last record, b=puts acked
	EvJournalAppend  // one journal record written; a=journal seq, b=key
	EvAckAdvance     // durably-acked put prefix advanced; a=new acked count
	EvRejectOverload // put rejected: mailbox full; a=shard
	EvRejectExpired  // put rejected: queue-delay deadline; a=shard
	EvRejectFull     // put rejected: occupancy/journal budget; a=shard
	EvRecoveryRepair // recovery wiped+rebuilt a shard; a=slots deviated, b=acked puts
	EvRegionMismatch // a checksum region failed verification; a=region/batch index
	EvEvictionLeak   // background write-back leaked a line; a=line addr

	// Simulator memory-system events.
	EvEvict    // dirty line written back to NVMM by eviction; a=line addr
	EvClean    // dirty line written back by the cleaning sweep; a=line addr
	EvFlush    // explicit flush instruction retired; a=line addr
	EvFence    // persist fence drained; a=cycles stalled
	EvROBStall // ROB head blocked on an outstanding miss; a=cycles stalled

	// EvRejectMoved is appended after the simulator events so every
	// pre-existing EventType keeps its numeric value.
	EvRejectMoved // put rejected: key not owned at this member's epoch; a=shard

	// Request-scoped span events. Every span event carries the
	// request's trace ID in A, so a drain from any process can be
	// merged with drains from its peers by trace ID alone. New types
	// append here, after everything older, for the same reason
	// EvRejectMoved sits where it does.
	EvClientSend    // client issued a traced op; a=traceID, b=key
	EvClientAck     // client saw the final response; a=traceID, b=latency ns
	EvRouterRoute   // router routed a traced frame; a=traceID, b=backend index
	EvStageEnq      // request admitted to a shard mailbox; a=traceID, b=key
	EvStageDeq      // shard owner dequeued the request; a=traceID, b=queue wait ns
	EvStageSeal     // containing group-commit batch sealed; a=traceID, b=journal window
	EvStageFlush    // batch write set durable (fsync included); a=traceID, b=journal window
	EvStageReplAck  // replication wait resolved on the primary; a=traceID, b=1 acked / 0 degraded
	EvStageReply    // response enqueued toward the client; a=traceID, b=status
	EvStageFwdEnq   // replication forward committed to a session slot; a=traceID
	EvStageFwdWrite // replication frame hit the wire; a=traceID
	EvStageFwdAck   // follower ack resolved the forward; a=traceID, b=1 acked / 0 degraded
	EvSlowPut       // tail sample: put latency over threshold; a=key, b=latency ns

	EvBoot // a kvserve image was brought up; a=0 fresh / 1 restored, b=bytes persisted doing it
)

var evNames = [...]string{
	EvNone:           "none",
	EvBatchCommit:    "batch_commit",
	EvJournalAppend:  "journal_append",
	EvAckAdvance:     "ack_advance",
	EvRejectOverload: "reject_overload",
	EvRejectExpired:  "reject_expired",
	EvRejectFull:     "reject_full",
	EvRecoveryRepair: "recovery_repair",
	EvRegionMismatch: "region_mismatch",
	EvEvictionLeak:   "eviction_leak",
	EvEvict:          "evict",
	EvClean:          "clean",
	EvFlush:          "flush",
	EvFence:          "fence",
	EvROBStall:       "rob_stall",
	EvRejectMoved:    "reject_moved",
	EvClientSend:     "client_send",
	EvClientAck:      "client_ack",
	EvRouterRoute:    "router_route",
	EvStageEnq:       "stage_enq",
	EvStageDeq:       "stage_deq",
	EvStageSeal:      "stage_seal",
	EvStageFlush:     "stage_flush",
	EvStageReplAck:   "stage_repl_ack",
	EvStageReply:     "stage_reply",
	EvStageFwdEnq:    "stage_fwd_enq",
	EvStageFwdWrite:  "stage_fwd_write",
	EvStageFwdAck:    "stage_fwd_ack",
	EvSlowPut:        "slow_put",
	EvBoot:           "boot",
}

func (t EventType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return fmt.Sprintf("event_%d", uint8(t))
}

// Event is one traced occurrence. Seq is the tracer's logical
// timestamp (total order of admission); TS is the caller's own clock
// — simulation cycles from the engine, UnixNano from the service, 0
// when the source has no meaningful clock. A and B are
// event-specific arguments (see the EventType comments).
type Event struct {
	Seq  uint64
	TS   int64
	Type EventType
	Src  int32 // originating shard or thread id; -1 when unattributed
	A, B uint64
}

// Sink receives events. The simulator engine and the store layers
// accept any Sink; Tracer is the standard implementation. Sink
// implementations must be safe for concurrent use and must not
// block: emitters sit on hot paths.
type Sink interface {
	Event(typ EventType, src int32, ts int64, a, b uint64)
}

// Tracer is a bounded ring buffer of Events. Memory use is fixed at
// construction (cap × sizeof(Event) ≈ cap × 40 bytes); when full,
// the oldest events are overwritten and counted as dropped. Disabled
// (the initial state) it costs one atomic load per Record call, so
// it can stay wired into hot paths permanently.
type Tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	seq     uint64 // next logical timestamp; admission order under mu
	buf     []Event
	start   int    // ring index of the oldest retained event
	n       int    // retained count
	dropped uint64 // events overwritten before being drained
}

// NewTracer returns a disabled tracer retaining at most cap events
// (minimum 1).
func NewTracer(cap int) *Tracer {
	if cap < 1 {
		cap = 1
	}
	return &Tracer{buf: make([]Event, cap)}
}

// Enable turns recording on or off. Events arriving while disabled
// are discarded without taking the lock.
func (t *Tracer) Enable(on bool) { t.on.Store(on) }

// Enabled reports whether the tracer is recording. Emitters with
// expensive arguments (a clock read, say) should gate on this before
// building them.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Event implements Sink.
func (t *Tracer) Event(typ EventType, src int32, ts int64, a, b uint64) {
	t.Record(typ, src, ts, a, b)
}

// Record admits one event if the tracer is enabled.
func (t *Tracer) Record(typ EventType, src int32, ts int64, a, b uint64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	seq := t.seq
	t.seq++
	i := t.start + t.n
	if t.n == len(t.buf) {
		// Full: overwrite the oldest.
		i = t.start
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
	} else {
		t.n++
	}
	t.buf[i%len(t.buf)] = Event{Seq: seq, TS: ts, Type: typ, Src: src, A: a, B: b}
	t.mu.Unlock()
}

// Drain removes and returns up to max retained events, oldest first
// (max ≤ 0 means all). Concurrent recording continues; drained
// events are returned exactly once.
func (t *Tracer) Drain(max int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	t.start = (t.start + n) % len(t.buf)
	t.n -= n
	return out
}

// Len returns the number of retained (undrained) events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten before being
// drained.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes events one JSON object per line. The encoding is
// hand-rolled (fixed fields, no reflection) so a large drain is
// cheap; every line is a valid JSON document.
func WriteJSONL(w io.Writer, events []Event) error {
	for _, e := range events {
		_, err := fmt.Fprintf(w, "{\"seq\":%d,\"type\":%q,\"src\":%d,\"ts\":%d,\"a\":%d,\"b\":%d}\n",
			e.Seq, e.Type.String(), e.Src, e.TS, e.A, e.B)
		if err != nil {
			return err
		}
	}
	return nil
}

// typeByName inverts evNames once, for drain parsing.
var typeByName = func() map[string]EventType {
	m := make(map[string]EventType, len(evNames))
	for i, n := range evNames {
		m[n] = EventType(i)
	}
	return m
}()

// ReadJSONL parses a WriteJSONL drain back into events. Lines whose
// type is unknown to this build are kept with EvNone so cross-version
// merges degrade instead of failing; malformed JSON is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
			Src  int32  `json:"src"`
			TS   int64  `json:"ts"`
			A    uint64 `json:"a"`
			B    uint64 `json:"b"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, Event{
			Seq: rec.Seq, TS: rec.TS, Type: typeByName[rec.Type],
			Src: rec.Src, A: rec.A, B: rec.B,
		})
	}
	return out, sc.Err()
}
