// Package broadcast provides reliable broadcast within a super-leaf
// (paper §4.3): the Sequencer. One member of the leaf, the sequencer of
// the current epoch, stamps every broadcast with the next slot of one
// leaf-wide log and fans it out; a member delivers the log in slot order
// once a majority of the seated members holds a slot. A silent member is
// cut by a GroupClosed entry in the same log, and a silent sequencer is
// replaced by an epoch change whose new sequencer carries every delivered
// slot over and cuts the old one. Every member therefore delivers one
// sequence, and reports each peer failure once, at the same place in it.
//
// The paper's hardware-assisted flavour — ToR switches that replicate a
// message to the members of a rack — is the same Sequencer with
// Config.Multicast set: a message it sends to several members is
// serialized once and replicated by the switch (engine.Env.Multicast).
// The order stays the sequencer's, so the flavours differ in cost only.
//
// This package is the substrate under internal/core's round 1: a node's
// cycle proposal — carrying its request batch plus any membership and
// session updates — is what travels here, and the identical
// delivery cut is what lets every super-leaf member compute identical
// vnode states.
package broadcast

import (
	"sync/atomic"
	"time"

	"canopus/internal/wire"
)

// Callbacks connect a Sequencer to its owner (the Canopus node).
type Callbacks struct {
	// Deliver hands up one broadcast payload from origin. Every live
	// member delivers the same sequence, and each origin's broadcasts in
	// its send order. The payload is immutable and the owner may keep it
	// (it is also what the log retains).
	Deliver func(origin wire.NodeID, payload wire.Message)
	// PeerFailed reports a crashed super-leaf peer, exactly once per
	// incarnation, after the failure cut is established (i.e. no further
	// deliveries from that origin will follow).
	PeerFailed func(peer wire.NodeID)
	// Stats, when non-nil, is where the Sequencer counts the messages it
	// sends; the owner exports it.
	Stats *Stats
}

// Stats counts the Sequencer's messages by kind. The fields are atomic so
// an exporter may read them from any goroutine.
type Stats struct {
	// Forwards carried an origin's broadcast to the sequencer (and in a
	// leaf of more than three seats to every member); Appends carried
	// stamped entries from it; Heartbeats are appends with nothing to
	// carry; Acks are members' answers; Epochs are an epoch change's
	// requests and answers. A multicast counts once per member it is for.
	Forwards, Appends, Heartbeats, Acks, Epochs atomic.Uint64
}

// Config parameterizes a Sequencer.
type Config struct {
	Members []wire.NodeID // initial super-leaf membership, including self
	// Seats is the super-leaf's static size: the most members it can ever
	// have, however many are seated now. The Sequencer commits on a
	// majority of the seated members; Seats only bounds delivery on
	// receipt (at most three) and a larger leaf's own counting. 0 selects
	// the larger-leaf path.
	Seats int

	// Incarnations maps members to their current incarnation number (how
	// many times they have re-joined), as the owner's membership view
	// holds it, so traffic and failure cuts of an earlier incarnation are
	// told apart. Missing entries default to zero.
	Incarnations map[wire.NodeID]uint32

	// TickInterval is how often the owner promises to call Tick (default
	// 5ms); the liveness probe interval and the failure threshold derive
	// from it (heartbeat, failAfter).
	TickInterval time.Duration
	// Multicast hands a forward, an acknowledgement and an epoch's log
	// request — each the same message for every member it goes to — to
	// the switch in one engine.Env.Multicast (the hardware-assisted
	// flavour of §4.3). Appends stay one per member: each carries what
	// that member lacks.
	Multicast bool
	// SeatGrace is how much longer than failAfter the failure detector
	// waits for the first word of a peer admitted by AddPeer: the peer
	// learns of its seat from a JoinReply that its sponsor, perhaps a
	// wide-area hop away, sends when it commits the cycle before the seat.
	SeatGrace time.Duration
}

func (c *Config) fill() {
	if c.TickInterval == 0 {
		c.TickInterval = 5 * time.Millisecond
	}
}

// heartbeat is the interval between liveness probes: four ticks.
func (c *Config) heartbeat() time.Duration { return 4 * c.TickInterval }

// failAfter is the silence that declares a peer dead: 25 heartbeats. It
// must comfortably exceed transient CPU queueing under load: a
// deposed-but-alive member is treated as crashed (crash-stop semantics)
// and must rejoin.
func (c *Config) failAfter() time.Duration { return 25 * c.heartbeat() }
