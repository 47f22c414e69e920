// Package cluster federates N kvserve nodes into one service: a
// consistent-hash routing layer, primary→follower replication whose
// ack rule extends Lazy Persistency's batch-checksum durability
// boundary across the network, and heartbeat-driven crash failover
// that leans on each node's journal-replay recovery to rejoin a
// restarted node without stopping the cluster.
//
// The key space is cut into 1<<SlotBits slots. A bounded-load
// consistent-hash ring over the static membership (ring.go) assigns
// each slot a stable *pair* of nodes; within a pair, role is dynamic
// epoch state owned by the router: one member is the slot's primary
// (serves gets, accepts client puts) and the other its follower
// (receives forwarded puts). Roles flip only when a primary dies —
// the follower is promoted. Role views converge per node, so a node
// cannot trust its own role to distinguish "client put, forward it"
// from "forwarded put, just apply it": instead every pair member
// forwards client puts (OpPut) to the slot's other static member,
// and forwarded copies travel in OpReplBatch frames, whose members
// the receiver applies but never re-forwards —
// replication echo is impossible by opcode, not by role agreement.
//
// The durability contract, cluster-wide: a put is acked to the client
// only after (a) the primary's LP group commit made the put's batch
// durable in the primary's backing file AND (b) the follower reported
// its own ack, which the follower only sends after its own group
// commit (internal/kvserve Replicator hook). Acked therefore implies
// durable on both pair members, so a SIGKILL of either member loses
// no acked put: the survivor is promoted and keeps serving, and the
// killed member's restart recovers its own acked prefix from its
// journal (lpstore.RecoverLP) and receives the puts it missed through
// delta catch-up (repl.go) — the primary buffers, per downed peer,
// the latest value of every key it acked while the peer was away, and
// replays the buffer through the same ordered forwarding session
// before live forwarding resumes.
//
// During a follower outage the primary keeps acking at replication
// factor 1 rather than stalling writes — the ack rule is lease-gated,
// in the spirit of Ben-David et al.'s delay-free persistence under
// faults: the router's lease decides when the follower stops counting,
// and every put acked degraded is in the delta buffer, so pair
// equality is restored at rejoin. Losing both pair members before the
// catch-up completes is outside the replication factor and may lose
// the degraded-window puts (not the ones acked while both were up).
package cluster

import "time"

// SlotBits sizes the routing table: the key space is partitioned into
// 1<<SlotBits contiguous hash ranges ("slots"), each owned by one
// node pair. 1024 slots over a handful of nodes keeps per-slot load
// small while the table (3 ints per slot) stays push-friendly.
const SlotBits = 10

// NumSlots is the routing table length.
const NumSlots = 1 << SlotBits

// SlotOf routes a key to its slot: the top SlotBits of the same
// avalanche mix kvserve uses for shard routing, taken from the bottom
// bits upward so cluster slots and in-node shard placement (top bits)
// stay decorrelated.
func SlotOf(key uint64) int {
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & (NumSlots - 1))
}

// Node states as the router publishes them.
const (
	// StateAlive: heartbeats healthy, node is serving and (for pair
	// followers) caught up.
	StateAlive = "alive"
	// StateDead: the node's lease expired; its primary slots failed
	// over to the pair peers and forwards to it buffer as deltas.
	StateDead = "dead"
	// StateSyncing: the node is serving again after a restart and the
	// router is draining delta catch-up into it; it resumes as a
	// follower once the drain completes.
	StateSyncing = "syncing"
)

// NodeInfo is one member of the cluster as carried in a Topology.
type NodeInfo struct {
	// ID is the stable node identity (lpserve -node-id); ring
	// placement hashes the ID, so a restarted node keeps its slots.
	ID string `json:"id"`
	// Addr is the node's data-plane TCP address (kvserve protocol).
	Addr string `json:"addr"`
	// Ctrl is the node's control-plane base URL (the lpserve metrics
	// mux): /healthz, /cluster/topology, /cluster/catchup.
	Ctrl string `json:"ctrl"`
	// State is one of StateAlive, StateDead, StateSyncing.
	State string `json:"state"`
}

// SlotAssign is one slot's routing entry. Indices point into
// Topology.Nodes; -1 means none.
type SlotAssign struct {
	// Primary serves the slot's gets and accepts its puts. -1 only
	// when every pair member is dead (the router answers Overload).
	Primary int `json:"p"`
	// Follower receives forwarded puts and must ack before the
	// primary acks the client; -1 while the pair peer is dead or
	// syncing (the primary then runs at RF=1 and buffers deltas).
	Follower int `json:"f"`
	// Pair is the slot's stable second replica from the ring — equal
	// to Follower when that peer is alive, and still set while it is
	// dead so the primary knows whose delta buffer to charge. -1 on
	// single-node clusters.
	Pair int `json:"r"`
}

// Topology is the routing epoch the router owns and pushes: node
// membership with liveness states and the slot table. Nodes apply it
// atomically (Replicator.ApplyTopology) and report the epoch they
// hold in /healthz, which is how the router knows who needs a re-push.
type Topology struct {
	Epoch uint64       `json:"epoch"`
	Nodes []NodeInfo   `json:"nodes"`
	Slots []SlotAssign `json:"slots"`
}

// NodeIndex returns the index of id in t.Nodes, or -1.
func (t *Topology) NodeIndex(id string) int {
	for i := range t.Nodes {
		if t.Nodes[i].ID == id {
			return i
		}
	}
	return -1
}

// PrimaryAddr returns the data address serving key's slot, or "" when
// the slot has no live primary.
func (t *Topology) PrimaryAddr(key uint64) string {
	sa := t.Slots[SlotOf(key)]
	if sa.Primary < 0 {
		return ""
	}
	return t.Nodes[sa.Primary].Addr
}

// The ring's shape (BuildPairs) and the dial bounds.
const (
	ringVNodes        = 64              // virtual points per node on the hash ring
	ringLoadFactor    = 1.25            // bounded-load cap: a node's slot share relative to fair share
	routerDialTimeout = time.Second     // a proxy dial to a backend
	replDialTimeout   = 2 * time.Second // a replication session's dial, and its hello
)

// Defaults shared by the router and node wrappers.
const (
	DefaultHeartbeat = 50 * time.Millisecond
	DefaultLeaseMiss = 6
	// DefaultReplWindow is counted in replication batches (OpReplBatch
	// frames), not puts: one sealed group-commit batch consumes at
	// most one slot per destination peer.
	DefaultReplWindow = 256
)
