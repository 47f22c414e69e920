// Package kvserve is a networked, sharded key-value service fronting
// the lpstore shards — the layer that turns the repository's
// closed-loop, in-process persistency study into a request-serving
// system under open-loop concurrent load.
//
// The deployment mapping: a backing file plays NVMM, and the crash is a
// process death, which the page cache survives. The server's
// memsim.Memory is built over the file's mapped image region alone
// (pmemfile.go), as both its architectural and its durable image: every
// store lands in the page cache as it executes and is durable under that
// crash at once — the paper's natural eviction, with nothing volatile
// between a store and the file, so no line is ever copied into it. What
// orders durability is LP's alone: a batch is durable at its seal's
// checksum store, which program order puts after the batch's records.
// Kill -9 keeps every store the process executed — committed journal
// prefixes, an open batch's records and its table stores — and a restart
// recovers that image where it is mapped, wiping the open batch's ghosts.
//
// Request flow:
//
//   - every shard is owned by one goroutine with a bounded mailbox;
//     connections route requests by key hash and never touch shard
//     state themselves (the same single-writer discipline lpstore's
//     shards assume, so no locks anywhere on the data path);
//   - under LP, the owner group-commits: puts journal and mutate the
//     table with plain stores, and when the batch reaches BatchK puts
//     (or BatchWait expires and it is sealed short), the owner stores
//     the checksum of its journal window, which makes the batch durable.
//     The shard's flusher fsyncs the file if Config.Fsync prices it and
//     only then acks the batch's clients, so the service's durability
//     contract is exactly lpstore's acked-prefix guarantee: a put is
//     durable iff recovery acknowledges its record;
//   - under EP every put flushes and fences its own lines, and under WAL
//     every put runs a durable undo-logged transaction — the same
//     Figure-10 baselines; a fence is an fsync when Config.Fsync prices
//     it and free otherwise;
//   - an unsealed batch's table stores are in the file as they execute,
//     which makes restart recovery's ghost-wipe path real;
//   - admission control: a full mailbox rejects instead of queueing
//     (StatusOverload), and near-full tables or an exhausted journal
//     reject puts (StatusFull);
//   - graceful drain: Close stops the listener, lets owners drain
//     their mailboxes, seals and commits open batches, and syncs the
//     file, so a SIGTERM'd server restarts with zero repair;
//   - crash-recovering restart: opening an existing backing file
//     replays every shard's journal through lpstore.RecoverLP before
//     the listener accepts traffic, wiping ghosts and truncating the
//     unacknowledged journal tail.
package kvserve

import (
	"fmt"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// Config describes one server instance. The geometry fields (Mode
// through Seed) are burned into the backing file's header: reopening a
// file with a different geometry is refused rather than silently
// misinterpreted.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7411"; port 0
	// picks a free port — read it back from Server.Addr).
	Addr string
	// Path is the backing ("NVMM") file.
	Path string

	// Mode is the persistence discipline: ModeLP (group commit),
	// ModeEP, ModeWAL, or ModeBase (no durability; throughput ceiling).
	Mode lpstore.Mode
	// Shards is the number of shard owner goroutines (power of two).
	Shards int
	// Capacity is the slot capacity per shard (rounded up to a power
	// of two by lpstore).
	Capacity int
	// MaxOps is the per-shard journal capacity in puts, the lifetime
	// put budget of an LP shard across restarts. Multiple of BatchK.
	MaxOps int
	// BatchK is the LP group-commit size: the most puts a batch holds,
	// and the journal records per checksum region (window).
	BatchK int
	// Streams and Keys describe the preloaded dataset: Keys keys for
	// each of Streams kvgen client streams (workloads.KVKey(stream, i)),
	// hash-routed to shards. Load generators that issue reads must use
	// the same Streams/Keys/Seed so their key space exists.
	Streams int
	Keys    int
	// Seed derives the preload values (workloads.KVInitVal).
	Seed uint64

	// Mailbox is the per-shard request queue depth; a full mailbox
	// answers StatusOverload immediately (backpressure, not buffering).
	Mailbox int
	// BatchWait is the age, counted from its first put, at which an open
	// LP batch is sealed short of BatchK and committed. On Linux the
	// shard's seal clock (a timerfd) fires within tens of µs of it;
	// elsewhere it is a runtime timer, which an idle process may fire up
	// to a millisecond late. 0 means 500 µs.
	BatchWait time.Duration
	// Fsync fsyncs the backing file before every LP batch is acked, and
	// at every EP or WAL fence. Off by default: the contract defended by
	// the crash tests is process death, under which a store is durable
	// once it executes (the page cache survives), not power loss.
	Fsync bool
	// PipelineDepth is the LP commit pipeline depth: how many sealed
	// batches may be in flight through a shard's flusher while the
	// owner fills the next. 1 degenerates to the synchronous group
	// commit of earlier incarnations (seal blocks until the previous
	// batch was acked — after its fsync, if priced). Not a geometry
	// field: the file image is identical at any depth.
	PipelineDepth int

	// Registry receives the server's metrics (kvserve_* series, plus
	// the per-shard lpstore_* series). Nil means a private registry,
	// reachable through Server.Metrics — instruments are always live,
	// they just aren't shared.
	Registry *obs.Registry
	// Tracer receives persistency events (batch commits, rejects,
	// recovery repairs). Nil means a private, disabled tracer
	// of obs.DefaultTraceCap events, reachable through Server.Tracer;
	// recording starts only when some caller enables it.
	Tracer *obs.Tracer
	// TraceSample, when positive, makes the server mint a trace ID for
	// every TraceSample-th client put that arrives without one (the
	// OpTraceCtx wire extension), so its span events land in the tracer
	// ring even when no client participates. Ignored while the tracer
	// is disabled; 1 traces every put.
	TraceSample int
	// TraceSlow, when positive, records an EvSlowPut event (key +
	// latency) for every acked put whose enqueue-to-ack latency
	// exceeded it — the tail-capture rule: slow requests always leave a
	// record in the ring, sampled or not. Ignored while the tracer is
	// disabled.
	TraceSlow time.Duration

	// Repl, when non-nil, is the cluster replication hook (LP only):
	// the shard owner calls ForwardBatch with each sealed group-commit
	// batch's client puts, and the shard's completion goroutine waits
	// each forwarded run once after the batch's local write set is
	// durable — so a put is acked to the client only once both the
	// local group commit and the follower's own group commit have
	// completed. See internal/cluster.Replicator.
	Repl Replicator
}

// Replicator is the primary→follower replication hook a clustered
// server calls on its LP put path. Implementations (internal/cluster)
// consistent-hash each key to its pair peer and ship the puts over a
// pipelined connection as OpReplBatch frames — whole group-commit
// batches per frame, one follower ack per frame, so replication's
// network and wakeup costs amortize exactly like LP's persist costs.
//
// ForwardBatch is called by the shard owner goroutine at seal time
// with the sealed batch's client puts (parallel keys/vals/tids
// slices; a batch's OpReplBatch arrivals are never among them).
// tids[i] is put i's trace ID (0 = untraced) — a traced
// put's ID rides the replication frame so the follower's span events
// join the same timeline. It groups the puts by destination peer,
// ships each group as one frame sharing one ack, appends one ReplRun
// per group to runs and returns it, and sets in[i] to put i's 1-based
// index in the returned slice. in[i] = 0 means the put needs no
// forward (this node is not the key's primary, the key's slot has no
// pair peer, or the peer's lease is revoked — the put is then
// buffered for delta catch-up and acked at RF=1). It must not block
// beyond replication-window backpressure, and it is called by the
// owner — never the flusher — because window backpressure may block
// until a *remote* ack frees a slot, and a flusher blocked on remote
// progress deadlocks two nodes that forward to each other (each
// node's follower acks are produced by its flusher).
//
// Admit is called by every connection reader for each client put
// (OpPut only — gets and forwarded OpReplBatch copies are unaffected;
// the copies were authorized by the *forwarding* member's view, and
// refusing them would stall a lagging peer's catch-up into us
// mid-epoch-change) and returns the status to answer it with, StatusOK
// meaning "serve it". For internal/cluster: StatusOverload until a
// topology epoch has been applied — a freshly (re)started member acking
// before its first topology push would ack at RF=1 with no forward and
// no delta charge, outside the cluster's epoch fence — and StatusMoved
// for a key this member does not own under its applied epoch: the
// client's routing table is stale and it must refresh and re-route,
// instead of having membership-based forwarding paper over it. Must be
// safe for concurrent use.
type Replicator interface {
	ForwardBatch(keys, vals, tids []uint64, in []uint16, runs []ReplRun) []ReplRun
	Admit(key uint64) byte
}

// ReplRun is one forwarded run: the puts of a sealed batch bound for one
// pair peer, shipped as one frame that the peer acks once. Wait is called
// exactly once per run, after the batch's local write set (and fsync, if
// priced) completed, from the shard's single completion goroutine in seal
// order; it releases the run's window slot. It blocks until the run
// resolved and reports whether its puts may be acked to the client: true
// when the follower acked the run inside its own group commit, or when
// the forward degraded after the cluster revoked the follower's lease
// (the designed RF=1 fallback — the puts are buffered for rejoin
// catch-up). False when the forward failed while the follower is still
// considered alive (follower full, transient connection loss): the
// server then answers the run's clients with backpressure instead of an
// ack, because an ack would silently drop to RF=1 with no catch-up
// adjudicated.
type ReplRun interface {
	Wait() bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 14
	}
	if c.BatchK == 0 {
		c.BatchK = 32
	}
	if c.MaxOps == 0 {
		c.MaxOps = 1 << 16
	}
	if c.Streams == 0 {
		c.Streams = 4
	}
	if c.Keys == 0 {
		c.Keys = 2048
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mailbox == 0 {
		c.Mailbox = 256
	}
	if c.BatchWait == 0 {
		c.BatchWait = 500 * time.Microsecond
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	return c
}

func (c Config) validate() error {
	if c.Path == "" {
		return fmt.Errorf("kvserve: Config.Path is required")
	}
	if c.Shards&(c.Shards-1) != 0 || c.Shards <= 0 {
		return fmt.Errorf("kvserve: Shards must be a positive power of two, got %d", c.Shards)
	}
	if c.BatchK < 1 || c.MaxOps < c.BatchK || c.MaxOps%c.BatchK != 0 {
		return fmt.Errorf("kvserve: MaxOps (%d) must be a positive multiple of BatchK (%d)", c.MaxOps, c.BatchK)
	}
	if c.PipelineDepth < 1 {
		return fmt.Errorf("kvserve: PipelineDepth must be positive, got %d", c.PipelineDepth)
	}
	if c.Mailbox < 1 {
		return fmt.Errorf("kvserve: Mailbox must be positive, got %d", c.Mailbox)
	}
	if c.BatchWait < 0 {
		return fmt.Errorf("kvserve: BatchWait must not be negative, got %v", c.BatchWait)
	}
	if c.Repl != nil && c.Mode != lpstore.ModeLP {
		return fmt.Errorf("kvserve: replication requires ModeLP (the follower-ack rule is the LP group commit), got %v", c.Mode)
	}
	switch c.Mode {
	case lpstore.ModeBase, lpstore.ModeLP, lpstore.ModeEP, lpstore.ModeWAL:
	default:
		return fmt.Errorf("kvserve: unknown mode %v", c.Mode)
	}
	// The preload must leave headroom: watermark admission control
	// rejects puts at 7/8 occupancy, so demand at most half the slots.
	perShard := c.Streams * c.Keys / c.Shards
	if 2*perShard > c.Capacity {
		return fmt.Errorf("kvserve: preload %d keys/shard exceeds half of Capacity %d", perShard, c.Capacity)
	}
	return nil
}

// PipelineBatches returns the worst-case number of sealed-but-unacked
// group-commit batches across the commit pipelines — Shards ×
// (PipelineDepth + 1): per shard, the batch being sealed plus every
// batch the commit ring can hold in flight. Each such batch forwards
// at most one replication group (one window slot) per pair peer whose
// Wait cannot run until the batch flushes, so a clustered
// deployment's per-peer forward window is sized in these units and
// must strictly exceed this bound or the shard owners' seal-time
// ForwardBatch backpressure can deadlock them against their own
// completion goroutines; internal/cluster.StartNode validates exactly
// that.
func (c Config) PipelineBatches() int {
	c = c.withDefaults()
	return c.Shards * (c.PipelineDepth + 1)
}

// ShardOf exposes the shard routing function: the capacity planner in
// internal/loadmodel must route a generated op stream across shard
// queues exactly the way the server will, or its per-shard load split
// is fiction. shards must be a power of two.
func ShardOf(key uint64, shards int) int { return shardOf(key, shards) }

// shardOf routes a key to its shard. The multiplier differs from the
// table's probe hash (lpstore mix64) only in that we take the top bits,
// so routing and in-shard placement stay decorrelated.
func shardOf(key uint64, shards int) int {
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x>>40) & (shards - 1)
}
