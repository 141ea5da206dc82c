// Package broadcast provides reliable broadcast within a super-leaf
// (paper §4.3) in two interchangeable flavours:
//
//   - Raft: the paper's software path. Every super-leaf member leads its
//     own Raft group with its peers as followers; broadcasting appends to
//     the origin's group log and delivery happens on commit. If an origin
//     fails, the group elects a takeover leader which finishes any
//     in-flight replication and then appends a GroupClosed barrier,
//     giving every survivor an identical cut of the origin's messages.
//
//   - Switch: hardware-assisted atomic broadcast (the paper notes modern
//     ToR switches can provide this). The sender serializes once and the
//     switch fans out; liveness comes from multicast heartbeats.
//
// Both deliver messages per-origin FIFO, report peer failures exactly
// once, and support removing/re-adding peers at Canopus cycle boundaries.
//
// This package is the substrate under internal/core's round 1: a node's
// cycle proposal — carrying its request batch plus any membership,
// lease and session updates — is what travels here, and the identical
// delivery cut is what lets every super-leaf member compute identical
// vnode states. The Raft flavour is built on internal/raftlite.
package broadcast

import (
	"time"

	"canopus/internal/raftlite"
	"canopus/internal/wire"
)

// Callbacks connect a broadcaster to its owner (the Canopus node).
type Callbacks struct {
	// Deliver hands up one broadcast payload from origin. For a given
	// origin, deliveries arrive in the origin's send order, and all live
	// members deliver the same sequence. The payload is immutable and
	// the owner may keep it (it is also what the Raft log retains).
	Deliver func(origin wire.NodeID, payload wire.Message)
	// PeerFailed reports a crashed super-leaf peer, exactly once per
	// incarnation, after the failure cut is established (i.e. no further
	// deliveries from that origin will follow).
	PeerFailed func(peer wire.NodeID)
	// RaftStats, when non-nil, is where the Raft flavour counts the
	// AppendEntries and replies its groups send; the owner exports it.
	RaftStats *raftlite.Stats
}

// Broadcaster is the reliable-broadcast abstraction the Canopus core
// builds on. Implementations are single-threaded, driven by the owner's
// Recv/Timer handlers.
type Broadcaster interface {
	// Broadcast reliably disseminates payload to all current super-leaf
	// members, including the caller.
	Broadcast(payload wire.Message)
	// Handle processes an incoming message, returning true if it was a
	// broadcast-layer message (consumed), false if the owner should
	// interpret it. m is lent for the call (engine.Machine.Recv's rule):
	// neither implementation keeps it — only the payloads it carries,
	// which are immutable and are what Deliver hands up.
	Handle(from wire.NodeID, m wire.Message) bool
	// Tick drives heartbeats, elections and failure detection; the owner
	// calls it on a periodic timer.
	Tick()
	// RemovePeer drops a failed peer from the membership (applied by the
	// owner at a cycle boundary, after the failure cut).
	RemovePeer(peer wire.NodeID)
	// AddPeer admits a (re)joined peer with a fresh incarnation.
	AddPeer(peer wire.NodeID)
	// Members returns the current membership, including self. The
	// returned slice is owned by the broadcaster: callers must treat it
	// as read-only and must not retain it across AddPeer/RemovePeer.
	Members() []wire.NodeID
}

// Config is shared by both implementations.
type Config struct {
	Members []wire.NodeID // initial super-leaf membership, including self

	// Incarnations maps members to their current incarnation number (how
	// many times they have re-joined). A node building its broadcaster
	// after a re-join seeds this from the JoinReply so its group IDs line
	// up with the survivors'. Missing entries default to zero.
	Incarnations map[wire.NodeID]uint32

	// TickInterval is how often the owner promises to call Tick; used to
	// derive sensible default timeouts.
	TickInterval time.Duration
	// HeartbeatInterval between liveness probes (default 4×Tick).
	HeartbeatInterval time.Duration
	// FailAfter is the silence threshold declaring a peer dead
	// (default 25×Heartbeat). It must comfortably exceed transient CPU
	// queueing under load: a deposed-but-alive member is treated as
	// crashed (crash-stop semantics) and must rejoin.
	FailAfter time.Duration
}

func (c *Config) fill() {
	if c.TickInterval == 0 {
		c.TickInterval = 5 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 4 * c.TickInterval
	}
	if c.FailAfter == 0 {
		c.FailAfter = 25 * c.HeartbeatInterval
	}
}

// groupID packs an origin and its incarnation into a Raft group ID.
// Incarnations advance when a node re-joins after a crash, so stragglers
// from the previous incarnation's group cannot disturb the new one.
func groupID(origin wire.NodeID, incarnation uint32) uint64 {
	return uint64(uint32(origin)) | uint64(incarnation)<<32
}

func groupOrigin(g uint64) wire.NodeID { return wire.NodeID(int32(uint32(g))) }

func groupIncarnation(g uint64) uint32 { return uint32(g >> 32) }

// messageGroup extracts the Raft group from a broadcast-layer message.
func messageGroup(m wire.Message) (uint64, bool) {
	switch v := m.(type) {
	case *wire.RaftAppend:
		return v.Group, true
	case *wire.RaftAppendReply:
		return v.Group, true
	case *wire.RaftVote:
		return v.Group, true
	case *wire.RaftVoteReply:
		return v.Group, true
	}
	return 0, false
}
