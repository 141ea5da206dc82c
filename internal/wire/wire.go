// Package wire defines the Canopus messages and their compact binary
// codec. The baselines' messages (EPaxos, Zab) are not here: they run on
// the simulator only, and live with their protocols, with a modeled size
// and no encoding.
//
// Messages serve double duty:
//
//   - On the real TCP transport they are encoded with AppendTo and decoded
//     with Decode, or by a connection's Decoder, which reuses scratch for
//     the leaf broadcast's control traffic (length-prefixed framing lives in
//     internal/transport).
//   - On the discrete-event simulator they are passed by pointer and only
//     WireSize is consulted, so the cost of a message on a link is modeled
//     without actually serializing it.
//
// Because the simulator hands the same message pointer to several
// recipients, received messages must be treated as read-only; protocol
// code copies any slice it needs to mutate. Because a Decoder reuses its
// scratch, a receiver also copies, by value, what it keeps of a message
// (engine.Machine.Recv states the rule in full).
//
// client.go holds the one client protocol. Its names carry the version
// suffixes under which its two halves arrived (ClientRequestV2,
// AppendClientRequestV3, ...): the repository's frozen benchmark compiles
// against them, and the V3 in ClientMagicV3 is the version byte on the
// wire. There is no other version.
package wire

import (
	"fmt"
	"time"
)

// NodeID identifies a physical protocol participant (a pnode in Canopus
// terms, a replica in EPaxos/Zab terms). IDs are dense small integers
// assigned by the topology builder.
type NodeID int32

// NoNode is the zero-value-adjacent sentinel for "no node".
const NoNode NodeID = -1

func (n NodeID) String() string {
	if n == NoNode {
		return "none"
	}
	return fmt.Sprintf("n%d", int32(n))
}

// Op is the kind of a client request.
type Op uint8

const (
	// OpRead is a key read. Canopus never puts reads on the wire; other
	// protocols do.
	OpRead Op = iota
	// OpWrite is a key write.
	OpWrite
	// OpDelete removes a key. Deletes travel and order exactly like
	// writes (they mutate replicated state); only the state machine
	// treats them differently.
	OpDelete
	// OpTxn is a guarded multi-op transaction. The request's Val carries
	// the encoded Txn body (see AppendTxn); Key is unused. A txn travels
	// and orders exactly like a write — the committed cycle order makes
	// it atomic for free — and its guards are evaluated against the
	// store at apply time, identically on every replica.
	OpTxn
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpTxn:
		return "txn"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutates reports whether the operation changes replicated state (and
// therefore must be disseminated and ordered by consensus).
func (o Op) Mutates() bool { return o == OpWrite || o == OpDelete || o == OpTxn }

// Request is a single client key-value operation. The paper's workload
// uses 16-byte key-value pairs: an 8-byte key plus an 8-byte value, which
// is the natural fit for Key plus a short Val.
type Request struct {
	Client uint64 // client identity, unique across the deployment
	Seq    uint64 // per-client sequence number (FIFO order)
	Op     Op
	Key    uint64
	Val    []byte // nil for reads
}

// PayloadBytes returns the modeled wire footprint of the request body,
// matching its encoded size exactly.
func (r *Request) PayloadBytes() int { return requestSize(r) }

// ArrivalSample records when a group of requests arrived at a node. The
// fluid workload mode aggregates many arrivals into a handful of samples
// so that request latency can be measured without materializing every
// request as an event.
type ArrivalSample struct {
	At    int64  // virtual (or wall) time in nanoseconds
	Count uint32 // number of requests this sample stands for
	Read  bool   // whether the sampled requests are reads
}

// Batch is the unit of ordering in every protocol here: the set of
// requests a node accumulated during one batching window (one consensus
// cycle in Canopus, one batch duration in EPaxos/Zab).
//
// A batch is either explicit (Reqs non-nil; counts and sizes derived) or
// fluid (Reqs nil; NumRead/NumWrite/ByteSize carry aggregate totals).
// Fluid batches let the simulator model multi-million-request-per-second
// workloads with event counts proportional to messages, not requests.
type Batch struct {
	Origin   NodeID
	Reqs     []Request // explicit mode; nil in fluid mode
	NumRead  uint32
	NumWrite uint32
	ByteSize uint32 // fluid mode payload bytes
	Samples  []ArrivalSample
}

// Requests returns the total number of requests in the batch.
func (b *Batch) Requests() int { return int(b.NumRead) + int(b.NumWrite) }

// PayloadBytes returns the modeled payload size of the batch body: the
// encoded size of explicit requests, or ByteSize for fluid batches.
func (b *Batch) PayloadBytes() int {
	if b.Reqs != nil {
		n := 0
		for i := range b.Reqs {
			n += b.Reqs[i].PayloadBytes()
		}
		return n
	}
	return int(b.ByteSize)
}

// WireSize returns the modeled on-wire size of the batch including its
// fixed header and arrival samples. For explicit batches it equals the
// encoded size exactly.
func (b *Batch) WireSize() int { return batchSize(b) }

// MemberUpdate announces a membership change inside a super-leaf. Updates
// ride on Canopus proposal messages so that every node applies the same
// change at the same cycle boundary (paper §4.6).
type MemberUpdate struct {
	Node  NodeID
	Leave bool // true: node left/crashed; false: node (re)joined
	// legacy is flag bit 1, set on some joins by older builds' WAL. Never
	// read: it keeps such a record's decoding canonical (FuzzCodec).
	legacy bool
}

// SessionIDBit marks a Request.Client identity as a replicated client
// session. Session IDs are drawn with this bit set; connection-scoped
// identities (and the driver sentinel) keep it clear, so the apply path
// can tell session traffic apart without a per-request flag.
const SessionIDBit uint64 = 1 << 63

// IsSessionID reports whether a Request.Client identity names a
// replicated client session (see SessionIDBit).
func IsSessionID(client uint64) bool { return client&SessionIDBit != 0 }

// SessionUpdate registers or expires a replicated client session. Like
// MemberUpdate, session updates ride proposal messages so every replica
// applies the same change at the same cycle boundary — the session dedup
// table is replicated state.
type SessionUpdate struct {
	ID     uint64
	Expire bool // true: reclaim the session; false: register it
}

// SessionReply is one cached (seq, reply) pair inside a SessionState.
type SessionReply struct {
	Seq uint64
	Val []byte
}

// SessionState is one session's dedup state in a join-protocol state
// transfer: the compaction floor (every seq below it is known applied),
// the commit cycle of the session's last mutation, and the cached
// replies for applied seqs at or above the floor.
type SessionState struct {
	ID         uint64
	Low        uint64
	LastActive uint64
	Applied    []SessionReply
}

// Kind discriminates message types on the wire.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Canopus (paper §4.2).
	KindProposal        // proposal / proposal-response
	KindProposalRequest // representative asks an emulator for a vnode state

	// The super-leaf's sequenced broadcast (paper §4.3).
	KindSeqForward
	KindSeqAppend
	KindSeqAck
	KindSeqEpoch

	// The EPaxos and Zab baselines' messages had these bytes. They run on
	// the simulator only and have no encoding now (internal/epaxos,
	// internal/zab); the bytes stay reserved.
	_ // reserved: an EPaxos message
	_ // reserved: an EPaxos message
	_ // reserved: an EPaxos message
	_ // reserved: an EPaxos message
	_ // reserved: an EPaxos message
	_ // reserved: a Zab message
	_ // reserved: a Zab message
	_ // reserved: a Zab message
	_ // reserved: a Zab message
	_ // reserved: a Zab message

	// Membership and liveness.
	_               // reserved: was a heartbeat of a broadcast flavour
	KindGroupClosed // barrier closing a failed origin's broadcast group
	KindJoinRequest // restarted node asks a live peer to sponsor its re-join
	KindJoinReply   // sponsor's snapshot + start cycle
	_               // reserved: was a broadcast flavour's envelope

	// Leaf-granular fault tolerance (RCanopus direction).
	KindLeafSeal     // intra-leaf broadcast: stop accepting a vnode's state for a cycle
	KindEvictQuery   // representative asks a remote leaf to seal-or-serve a vnode state
	KindEvictPromise // remote leaf's promise that the vnode state is sealed out
	KindEvicted      // notice to an evicted leaf's members: stop, rejoin fresh

	kindMax
)

var kindNames = [...]string{
	KindInvalid:         "invalid",
	KindProposal:        "proposal",
	KindProposalRequest: "proposal-request",
	KindSeqForward:      "seq-forward",
	KindSeqAppend:       "seq-append",
	KindSeqAck:          "seq-ack",
	KindSeqEpoch:        "seq-epoch",
	KindGroupClosed:     "group-closed",
	KindJoinRequest:     "join-request",
	KindJoinReply:       "join-reply",
	KindLeafSeal:        "leaf-seal",
	KindEvictQuery:      "evict-query",
	KindEvictPromise:    "evict-promise",
	KindEvicted:         "evicted",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is implemented by every protocol message, the baselines'
// included: all a holder of one calls is its size.
type Message interface {
	// WireSize is the modeled encoded size in bytes. It must equal
	// len(AppendTo(nil)) for an explicit-mode Encodable; fluid-mode
	// batches contribute their modeled ByteSize instead of encoded bytes.
	WireSize() int
}

// Encodable is a Message with a binary encoding: every Canopus kind. It is
// what Decode returns, what a broadcast entry carries, and what the TCP
// transport and the WAL write.
type Encodable interface {
	Message
	// AppendTo appends the binary encoding of the message, its kind byte
	// first, to b.
	AppendTo(b []byte) []byte
}

// Proposal is the Canopus proposal message M_i = {R', N', F', C, i, v}
// (paper §4.2): the ordered request sets from the previous round, the
// largest proposal number seen, pending membership updates, the cycle ID,
// round number and the (v)node whose state it carries. It is used both as
// the round-1 broadcast and as the response to a ProposalRequest.
type Proposal struct {
	Cycle  uint64
	Round  uint8
	VNode  string // vnode path ("1.2"); for round 1 the origin pnode's parent is implied
	Origin NodeID // pnode that produced the message
	Num    uint64 // proposal number: round 1 random draw, later rounds the max of merged children

	// Batches is the ordered list of request sets represented by this
	// proposal: a single batch in round 1, the merged ordered list in
	// later rounds (children concatenated in ascending proposal-number
	// order, ties broken by vnode ID then origin — paper §4.2). The
	// order is identical on all nodes.
	Batches []*Batch

	Updates  []MemberUpdate
	Sessions []SessionUpdate

	// Resolve marks a proposal that is allowed past a leaf seal: either a
	// sealed-out vnode's real state served by a node that already held it,
	// or the eviction tombstone substituted for a dead leaf's subtree.
	// Plain (non-Resolve) states for a sealed vnode are dropped, which is
	// what makes an eviction round converge on one value per (cycle,
	// vnode) cluster-wide.
	Resolve bool
}

// ProposalRequest asks an emulator of VNode for that vnode's state in the
// given cycle and round (paper §4.2). The receiver answers with a Proposal
// once it has computed the state, buffering the request if it has not.
type ProposalRequest struct {
	Cycle uint64
	Round uint8
	VNode string
	From  NodeID
}

// SeqEntry is one slot of a super-leaf's broadcast log: the payload an
// origin broadcast, stamped by the sequencer of Epoch. OSeq numbers the
// origin's broadcasts — its incarnation in the high 32 bits, a count in
// the low — so a sequencer stamps each of them once and in the origin's
// order, and a later incarnation's numbers are all higher. Entries the
// sequencer adds itself (failure cuts) carry OSeq 0.
type SeqEntry struct {
	Epoch   uint64
	Origin  NodeID
	OSeq    uint64
	Payload Encodable // nil only in an append to the entry's origin, which holds it
}

// SeqForward carries an origin's broadcast to the sequencer of Epoch,
// unstamped. Match is how far the origin's log matches the sequencer's,
// which makes a forward an acknowledgement too.
type SeqForward struct {
	Epoch   uint64
	Origin  NodeID
	OSeq    uint64
	Match   uint64
	Payload Encodable
}

// SeqAppend is the sequencer's fan-out: Entries occupy slots Seq, Seq+1,
// ... of the log, after a slot Seq-1 stamped in PrevEpoch. Without
// entries it is a heartbeat or a commit notice. The sender is the
// sequencer that Epoch names (SeqLeader).
type SeqAppend struct {
	Epoch     uint64
	Seq       uint64
	PrevEpoch uint64
	Commit    uint64 // the sequencer's delivered prefix
	Trim      uint64 // every slot up to Trim is on every member and may be dropped
	Entries   []SeqEntry
}

// SeqAck tells the sequencer of Epoch that From holds its log up to
// Match or, with Reject, that an append did not fit after From's slot
// Match.
type SeqAck struct {
	Epoch  uint64
	From   NodeID
	Inc    uint32
	Match  uint64
	Reject bool
}

// SeqEpoch opens a new epoch. From the candidate that Epoch names it asks
// every member to stop accepting older epochs and to send its log above
// Commit, the candidate's delivered prefix; a member's answer is a
// SeqEpoch from it, whose Entries start at slot Seq, the slot before
// which was stamped in PrevEpoch, whose Commit is the member's own
// delivered prefix, and whose Delivered holds the highest origin number
// it delivered of each origin, trimmed slots included.
type SeqEpoch struct {
	Epoch     uint64
	From      NodeID
	Commit    uint64
	Seq       uint64
	PrevEpoch uint64
	Entries   []SeqEntry
	Delivered []OriginSeq
}

// OriginSeq is an origin's broadcast number OSeq (see SeqEntry).
type OriginSeq struct {
	Origin NodeID
	OSeq   uint64
}

// SeqLeader is the member that sequences epoch e: an epoch number packs a
// round above the sequencer's node ID, so two candidates never open the
// same epoch.
func SeqLeader(e uint64) NodeID { return NodeID(int32(uint32(e))) }

// SeqEpochOf is the epoch that round opens with leader as its sequencer.
func SeqEpochOf(round uint32, leader NodeID) uint64 {
	return uint64(round)<<32 | uint64(uint32(leader))
}

// GroupClosed is the failure cut of Origin: the entry a super-leaf's
// sequencer appends when Origin falls silent, or a new sequencer appends
// for the one it replaces. Ordering it in the leaf's log gives all
// survivors an identical cut: every proposal of Origin delivered before
// it counts, nothing after it ever will. This is what makes the
// super-leaf's delivered-message sets identical despite asynchronous
// failure detection (paper assumption A4 / Lemma 1).
type GroupClosed struct {
	Origin NodeID
	Inc    uint32 // the incarnation cut: a later one of Origin is not
}

// JoinRequest asks a live peer to sponsor this node's re-join (paper §3,
// assumption 6: failed nodes rejoin via a join protocol).
type JoinRequest struct {
	From NodeID
	// Nonce is drawn once per joining process: a reply echoes it, so a
	// process installs only a reply to its own request.
	Nonce uint64
}

// JoinReply carries the sponsor's state transfer: the cycle after which
// the joiner takes part, the sponsor's membership view, its store image
// and the cluster-wide settings the joiner must share.
type JoinReply struct {
	From       NodeID
	Nonce      uint64 // the answered JoinRequest's
	StartCycle uint64
	Alive      []NodeID
	// Incarnations is aligned with Alive: how many times each member has
	// re-joined, so the joiner's broadcast group IDs match the
	// survivors'. The joiner's own (new) incarnation is included.
	Incarnations []uint32
	// Seats is aligned with Alive: the cycle a member's pending seat
	// counts from, 0 for a member already seated.
	Seats []uint64
	// Contents is the sponsor's store contents as kvstore.AppendContents
	// encodes them (nil from a node without a state machine): the payload
	// of a WAL snapshot's contents section.
	Contents []byte
	// Sessions is the store image's replicated client-session table as
	// kvstore.AppendSessions encodes it, so a rejoined replica classifies
	// retried mutations exactly like the replicas that never crashed.
	Sessions []byte
	// MaxInFlight, LeafTimeout and SessionIdleCycles are the sponsor's
	// values after defaults; every node of a cluster must use the same
	// ones.
	MaxInFlight       uint32
	LeafTimeout       time.Duration
	SessionIdleCycles int64
}

// LeafSeal is the intra-leaf broadcast that closes a (cycle, vnode) slot
// during a leaf-eviction round. The leaf's sequencer puts it and the vnode
// states one member may be re-broadcasting into one log, so every member
// of the sealing leaf agrees on whether the real state arrived before the
// seal: after delivery, plain proposals for the vnode are refused and only
// a Resolve-flagged proposal (the held state or the tombstone) fills it.
// A broadcast that orders each origin alone (the switch flavour) cannot
// give that agreement, so eviction runs over the sequencer only.
type LeafSeal struct {
	Cycle     uint64
	VNode     string
	Initiator NodeID // who to answer with EvictPromise (or the held state)
}

// EvictQuery asks a member of another super-leaf to resolve a (cycle,
// vnode) slot for an eviction round: reply with the vnode's state
// (Resolve-flagged) if the leaf holds it, otherwise seal the slot and
// reply with an EvictPromise.
type EvictQuery struct {
	Cycle uint64
	VNode string
	From  NodeID
}

// EvictPromise is a leaf's binding answer to an EvictQuery: the (cycle,
// vnode) slot is sealed leaf-wide and no member will accept or serve a
// plain state for it.
type EvictPromise struct {
	Cycle uint64
	VNode string
	From  NodeID
}

// Evicted tells a node that the committed membership view dropped it:
// its leaf-mates cut it, or the cluster evicted its super-leaf. The
// receiver must stop participating with its current state and rejoin
// through the join protocol. An eviction round sends it to the evicted
// leaf's members, and every node answers a dead-in-view sender with it.
type Evicted struct {
	From NodeID
}
