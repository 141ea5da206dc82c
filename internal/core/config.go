// Package core implements the Canopus consensus protocol (Rizvi, Wong,
// Keshav — CoNEXT 2017).
//
// A Node is an event-driven engine.Machine. Execution is divided into
// consensus cycles of h rounds (h = LOT height). In round 1 a node
// reliably broadcasts its pending request batch inside its super-leaf; in
// round i it obtains the states of its height-i ancestor's children —
// pushed once per super-leaf by one of their emulators to a
// representative (which pulls them only when the push fails to arrive)
// and re-broadcast to peers — and merges them by proposal number into
// the height-i state.
// After round h every live node holds the same total order (Theorem 1).
//
// Reads are never disseminated: a node buffers each read at its arrival
// position inside its own request set and answers it when the cycle that
// orders that set commits (§5); only the weaker Sequential and Stale
// levels read committed state without a cycle (Node.ReadLocal). The §7.2
// write leases are not implemented: they require at most one outstanding
// request per client. Pipelining (§7.1) lets many cycles be in flight
// with commits strictly in cycle order.
package core

import (
	"fmt"
	"log/slog"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// BroadcastKind selects the intra-super-leaf reliable broadcast.
type BroadcastKind uint8

const (
	// BroadcastRaft is the software path: per-origin Raft groups (§4.3).
	BroadcastRaft BroadcastKind = iota
	// BroadcastSwitch uses hardware-assisted atomic broadcast.
	BroadcastSwitch
)

// Config parameterizes a Canopus node.
type Config struct {
	Tree *lot.Tree
	Self wire.NodeID

	// NumReps is the number of super-leaf representatives (§4.5).
	// Default 2: one failure does not delay remote fetches.
	NumReps int

	// Broadcast selects the reliable-broadcast implementation.
	Broadcast BroadcastKind

	// MaxBatch starts the next cycle early once this many client
	// requests are pending (§7.1, third trigger). Default 1000 (the
	// paper's multi-DC configuration).
	MaxBatch int

	// CycleInterval, when non-zero, is the upper bound between two
	// pipelined cycle starts: while cycles take at least this long, the
	// cycle timer starts the next one every CycleInterval with the earlier
	// ones still in flight (§7.1, second trigger; the paper uses 5ms
	// across datacenters). Cycles shorter than it are not overlapped;
	// there the self-clocked starts (a request at an idle node, a commit
	// with requests pending) set the rate, paced at half of it. Zero
	// disables the timer and the pace: cycles are purely self-clocked and
	// no timer is armed for them.
	CycleInterval time.Duration

	// MaxInFlight bounds concurrently executing cycles (§7.1). Default
	// 4; wide-area pipelines want RTT/CycleInterval or more. 1 disables
	// pipelining.
	//
	// Every node of a cluster must configure the same value. No node
	// starts cycle k before it has committed k − MaxInFlight, and two
	// membership rules count on that bound being the same everywhere: a
	// join committed in cycle X seats its node from cycle X + MaxInFlight,
	// and a leaf evicted at cycle D is substituted locally from cycle
	// D + MaxInFlight. A joiner compares its value, and LeafTimeout, with
	// its sponsor's and stays out when they differ.
	MaxInFlight int

	// FetchTimeout is how long a representative waits, from the start of
	// a cycle, for a pushed vnode state before it pulls it, and then for
	// the answer before it asks another emulator. Default 50ms; wide-area
	// deployments should exceed the largest one-way delay plus the spread
	// of the super-leaves' cycle starts.
	FetchTimeout time.Duration

	// TickInterval drives heartbeats, elections and fetch-retry checks.
	// Default 5ms.
	TickInterval time.Duration

	// SessionIdleCycles is the replicated client-session idle bound: a
	// session with no committed mutation for this many consensus cycles
	// is reclaimed through consensus (an expiry update riding a
	// proposal), freeing its dedup state on every replica. Default 4096
	// cycles (~tens of seconds at millisecond cycle intervals); negative
	// disables idle reclamation.
	SessionIdleCycles int

	// Durability, when non-nil, receives every committed cycle's root
	// proposal for write-ahead logging (the internal/wal manager
	// implements it). Appends happen on the apply stage and Sync is called
	// once per drained batch — group commit: one fsync covers every cycle
	// the stage found queued, and those cycles' client replies are
	// withheld until the Sync returns. (Under the simulator a batch is one
	// cycle; its in-memory FS keeps that cheap and deterministic.) A
	// durability error is fail-stop for the log: it is recorded
	// (Node.DurabilityError), no further appends are attempted, and the
	// node keeps serving from memory. It is not a Consumer: it must finish
	// before anything of the cycle is released.
	Durability Durable

	// LeafTimeout, when non-zero, arms super-leaf eviction (the RCanopus
	// direction, see docs/ARCHITECTURE.md "Failure model"): a
	// representative whose cross-leaf fetch has gone unanswered for this
	// long past the cycle's start proposes evicting the silent leaf. A
	// quorum of the surviving leaves (a majority counted over ALL static
	// leaves) must seal the slot before a tombstone — the leaf's state
	// replaced by Leave updates for its members — resolves the cycle;
	// afterwards merges substitute the tombstone locally and consensus
	// continues without the dead leaf until its members rejoin.
	//
	// Zero (the default) disables eviction entirely: a dead super-leaf
	// stalls global consensus, the stock Canopus behaviour. Set it well
	// above FetchTimeout (Validate rejects it at or below) and the
	// worst-case WAN round-trip; a false
	// suspicion costs an eviction plus re-join (an availability blip),
	// never divergence. All nodes must configure the same LeafTimeout and
	// MaxInFlight. Eviction assumes crash-stop or symmetric partitions
	// (both sides unreachable) — the fault model netsim injects.
	LeafTimeout time.Duration

	// StallThreshold, when positive, arms the liveness *detector*: a
	// node holding started-but-uncommitted cycles with no commit
	// progress for this long flags itself degraded (Node.StallSuspected,
	// the canopus_core_stalled gauge, and "degraded: stalled" on the
	// admin /healthz and /status). Detection is pure observation — no
	// messages are sent, no timers armed, no protocol decision changes —
	// so simulator replays stay bit-identical and nodes may configure it
	// independently. The flag clears by itself when commits resume
	// (e.g. after a partition heals). Zero (the default) keeps stock §6
	// semantics: a minority side stalls silently.
	StallThreshold time.Duration
}

func (c *Config) fill() {
	if c.NumReps <= 0 {
		c.NumReps = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1000
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 50 * time.Millisecond
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 5 * time.Millisecond
	}
	if c.SessionIdleCycles == 0 {
		c.SessionIdleCycles = 4096
	}
}

// Validate rejects a configuration that runs but defeats itself. Zero
// fields stand for their defaults.
func (c Config) Validate() error {
	c.fill()
	if c.LeafTimeout > 0 && c.LeafTimeout <= c.FetchTimeout {
		// A leaf would be evicted before the pull of its state is overdue.
		return fmt.Errorf("core: LeafTimeout %v must exceed FetchTimeout %v", c.LeafTimeout, c.FetchTimeout)
	}
	return nil
}

// retention is how many committed cycles' states a node keeps to serve
// late fetches (see Node.recent).
func (c *Config) retention() uint64 { return uint64(c.MaxInFlight) + 16 }

// Durable is the write-ahead persistence hook the commit pipeline feeds
// (see Config.Durability). AppendCommit receives committed cycles
// strictly in cycle order with the cycle's root proposal — the total
// order every replica resolved — which must not be retained beyond the
// call unless encoded. Sync makes every appended record durable;
// replies for the covered cycles are released only after it returns.
// Both are called from the apply stage, one goroutine at a time.
type Durable interface {
	AppendCommit(cycle uint64, root *wire.Proposal) error
	Sync() error
}

// StateMachine is the replicated application state Canopus drives;
// kvstore.Store implements it. Once the node runs, only its apply stage
// calls it. A node built without one (nil) runs fluid workloads: it orders
// request counts and materializes no state.
type StateMachine interface {
	// ApplyWriteAt applies one committed write as of the given commit
	// cycle; a non-zero owner binds the key to that session (ephemeral).
	// It returns the machine's own copy of the written value (nil for a
	// delete), which must never change again: the cycle's events carry it,
	// and their consumers may keep it.
	ApplyWriteAt(req *wire.Request, cycle, owner uint64) []byte
	// Read returns the current value for key (nil if absent). Called
	// only at linearization points chosen by the protocol.
	Read(key uint64) []byte
	// ModCycle returns the commit cycle that last wrote key (0 when
	// absent), which GuardCycleLE transactions compare against.
	ModCycle(key uint64) uint64
	// ExpireOwned deletes every key owned by the given session,
	// returning the deleted keys sorted ascending.
	ExpireOwned(owner uint64) []uint64
	// SnapshotShards returns the state's image — contents, key metadata
	// and apply-log chains — which a sponsor sends a joiner. It must not
	// alias live state: later writes keep applying while it is sent.
	SnapshotShards() []kvstore.ShardState
	// RestoreShards replaces the state with an image; it refuses one
	// whose shard count differs from the machine's.
	RestoreShards(image []kvstore.ShardState) error
}

// Callbacks connect a node to its surroundings. They are fixed when the
// node is built (NewNode, NewJoiner).
type Callbacks struct {
	// Consumers receive the node's one output, the committed stream:
	// every consumer sees every Commit, in list order.
	Consumers []Consumer
	// OnEvicted fires once, in the machine turn, when the node learns the
	// rest of the cluster has evicted its super-leaf (an Evicted notice):
	// its state is no longer part of consensus and it must restart through
	// the join protocol.
	OnEvicted func()
	// Log receives the node's protocol trace at Debug level: one record per
	// event (start, commit, fetch, join-reply, ...), carrying the node and
	// its leaf, the cycle and the event's own attributes. Nil discards it.
	Log *slog.Logger
}

// Consumer receives a node's committed stream (§5: each cycle's total
// order, its writes applied and its reads answered at their positions).
// The event hub, the client port, the simulator's reply dispatcher and the
// test and chaos recorders are consumers.
type Consumer interface {
	// Committed is called once per committed cycle, strictly in cycle
	// order, on the node's apply stage: after the cycle has applied and,
	// with a Durability hook, after the Sync that covers it. Under a live
	// runner it runs off the machine lock, so a consumer does its own
	// synchronization and must not block. c and its slices are only valid
	// during the call; event values are immutable and may be kept (see
	// StateMachine.ApplyWriteAt).
	Committed(c *Commit)
}

// ConsumerFunc adapts a function to a Consumer.
type ConsumerFunc func(c *Commit)

// Committed calls f(c).
func (f ConsumerFunc) Committed(c *Commit) { f(c) }

// Commit is one committed cycle as a node's consumers see it.
type Commit struct {
	// Cycle is the committed cycle: never 0, and above the Cycle of every
	// earlier Commit of the same node.
	Cycle uint64
	// Order is the cycle's total order. Batches are read-only.
	Order []*wire.Batch
	// Events are the cycle's key-change events in committed total order:
	// plain writes and deletes, committed transaction ops, and the
	// deletions of an expired session's ephemeral keys. A cycle without
	// any still commits, so consumers can advance their cycle watermark.
	Events []wire.Event
	// Replies are the requests this node completes in the cycle, in client
	// arrival order; Vals[i] is the result of Replies[i]: a read's value,
	// a transaction's encoded verdict, a duplicate's cached result, nil for
	// a write ack or a read miss.
	Replies []wire.Request
	Vals    [][]byte
	// Rejected are this node's mutations whose session the replicated
	// table did not know (expired or never registered): deterministically
	// applied nowhere, so the serving node surfaces the expiry instead of
	// a completion.
	Rejected []wire.Request
}
