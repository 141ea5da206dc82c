package broadcast

import (
	"slices"

	"canopus/internal/engine"
	"canopus/internal/raftlite"
	"canopus/internal/wire"
)

// Raft is the software reliable-broadcast path of §4.3: one Raft group
// per super-leaf member, the member being the group's initial (and
// normally permanent) leader.
type Raft struct {
	env engine.Env
	cfg Config
	cbs Callbacks

	members     []wire.NodeID
	incarnation map[wire.NodeID]uint32
	groups      map[uint64]*raftlite.Raft
	order       []uint64             // deterministic group iteration order
	closed      map[uint64]bool      // groups whose origin's failure cut is delivered
	failed      map[uint64]bool      // PeerFailed already reported for this group
	expected    map[wire.NodeID]bool // Expect'ed peers not yet added
}

var _ Broadcaster = (*Raft)(nil)

// NewRaft builds the Raft broadcaster for one node. env must belong to a
// member listed in cfg.Members.
func NewRaft(env engine.Env, cfg Config, cbs Callbacks) *Raft {
	cfg.fill()
	b := &Raft{
		env:         env,
		cfg:         cfg,
		cbs:         cbs,
		members:     append([]wire.NodeID(nil), cfg.Members...),
		incarnation: make(map[wire.NodeID]uint32),
		groups:      make(map[uint64]*raftlite.Raft),
		closed:      make(map[uint64]bool),
		failed:      make(map[uint64]bool),
		expected:    make(map[wire.NodeID]bool),
	}
	for _, origin := range b.members {
		b.openGroup(origin, cfg.Incarnations[origin])
	}
	return b
}

// openGroup creates this node's member of origin's broadcast group.
func (b *Raft) openGroup(origin wire.NodeID, inc uint32) {
	g := groupID(origin, inc)
	b.incarnation[origin] = inc
	cfg := raftlite.Config{
		Group:         g,
		Self:          b.env.ID(),
		Peers:         append([]wire.NodeID(nil), b.members...),
		MaxPeers:      b.cfg.Seats,
		InitialLeader: origin,
		// Heartbeats ride on the tick-derived intervals; elections must be
		// slow enough that a healthy origin is never deposed.
		HeartbeatInterval:  b.cfg.heartbeat(),
		ElectionTimeoutMin: b.cfg.failAfter(),
		ElectionTimeoutMax: 2 * b.cfg.failAfter(),
	}
	b.order = append(b.order, g)
	r := raftlite.New(cfg, raftlite.IO{
		Send: b.env.Send,
		Deliver: func(_ uint64, payload wire.Message) {
			b.deliver(g, payload)
		},
		LeaderChanged: func(_ uint64, leader wire.NodeID) {
			b.leaderChanged(g, leader)
		},
		Now:   b.env.Now,
		Rand:  b.env.Rand(),
		Stats: b.cbs.RaftStats,
	})
	r.HoldCompaction(len(b.expected) > 0)
	b.groups[g] = r
}

func (b *Raft) deliver(g uint64, payload wire.Message) {
	origin := groupOrigin(g)
	if closed, ok := payload.(*wire.GroupClosed); ok {
		if b.closed[g] {
			return // duplicate barrier from a second takeover; idempotent
		}
		b.closed[g] = true
		if !b.failed[g] && b.cbs.PeerFailed != nil {
			b.failed[g] = true
			b.cbs.PeerFailed(closed.Origin)
		}
		return
	}
	if b.closed[g] {
		return // nothing counts after the failure cut
	}
	if b.cbs.Deliver != nil {
		b.cbs.Deliver(origin, payload)
	}
}

// leaderChanged fires on any leadership view change in group g. If this
// node took over a group whose origin is someone else, the origin is dead
// (the failure detector is the election itself): finish replication and
// close the group with a barrier.
func (b *Raft) leaderChanged(g uint64, leader wire.NodeID) {
	origin := groupOrigin(g)
	if leader != b.env.ID() || origin == b.env.ID() || b.closed[g] {
		return
	}
	// Takeover: the no-op barrier appended by becomeLeader already
	// commits any in-flight origin entries; the GroupClosed entry then
	// fixes the cut.
	_ = b.groups[g].Propose(&wire.GroupClosed{Origin: origin})
}

// Broadcast appends payload to this node's own group.
func (b *Raft) Broadcast(payload wire.Message) {
	g := groupID(b.env.ID(), b.incarnation[b.env.ID()])
	if err := b.groups[g].Propose(payload); err != nil {
		// Not leader of our own group: we were deposed, which only
		// happens when the rest of the super-leaf considered us dead.
		// Crash-stop semantics say we must not continue; dropping the
		// broadcast stalls us, which the join protocol repairs.
		return
	}
}

// Handle routes Raft traffic to the right group.
func (b *Raft) Handle(from wire.NodeID, m wire.Message) bool {
	g, ok := messageGroup(m)
	if !ok {
		return false
	}
	r, ok := b.groups[g]
	if !ok {
		return true // a stale incarnation or a removed peer's group: drop
	}
	r.Handle(from, m)
	return true
}

// Tick drives all groups in a fixed order (map iteration would make
// simulations non-deterministic).
func (b *Raft) Tick() {
	for _, g := range b.order {
		if r, ok := b.groups[g]; ok {
			r.Tick()
		}
	}
}

// RemovePeer drops peer from every group's voting set and retires peer's
// own group. Called at a cycle boundary, identically on all survivors.
func (b *Raft) RemovePeer(peer wire.NodeID) {
	idx := slices.Index(b.members, peer)
	if idx < 0 {
		return
	}
	b.members = slices.Delete(b.members, idx, idx+1)
	g := groupID(peer, b.incarnation[peer])
	delete(b.groups, g)
	b.closed[g] = true
	b.setAllPeers()
}

func (b *Raft) setAllPeers() {
	for _, g := range b.order {
		if r, ok := b.groups[g]; ok {
			r.SetPeers(b.members)
		}
	}
}

// Expect holds every group's compaction until peer is added, so the
// entries appended in between are still there to replicate to it.
func (b *Raft) Expect(peer wire.NodeID) {
	b.expected[peer] = true
	b.holdCompaction()
}

func (b *Raft) holdCompaction() {
	for _, r := range b.groups {
		r.HoldCompaction(len(b.expected) > 0)
	}
}

// AddPeer admits peer under incarnation inc: a new group for it, and a
// seat in every existing group, whose matchIndex for it keeps what it
// has not received from compaction. Called at a cycle boundary,
// identically on all members (the joiner itself builds the same state
// from the JoinReply).
func (b *Raft) AddPeer(peer wire.NodeID, inc uint32) {
	delete(b.expected, peer)
	if !slices.Contains(b.members, peer) {
		b.members = append(b.members, peer)
		b.setAllPeers()
		b.openGroup(peer, inc)
		b.groups[groupID(peer, inc)].DeferElection(b.cfg.SeatGrace)
	}
	b.holdCompaction()
}
