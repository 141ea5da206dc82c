package broadcast

import (
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
	order       []uint64        // deterministic group iteration order
	closed      map[uint64]bool // groups whose origin's failure cut is delivered
	failed      map[uint64]bool // PeerFailed already reported for this group
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
		InitialLeader: origin,
		// Heartbeats ride on the configured intervals; elections must be
		// slow enough that a healthy origin is never deposed.
		HeartbeatInterval:  b.cfg.HeartbeatInterval,
		ElectionTimeoutMin: b.cfg.FailAfter,
		ElectionTimeoutMax: 2 * b.cfg.FailAfter,
	}
	b.order = append(b.order, g)
	b.groups[g] = raftlite.New(cfg, raftlite.IO{
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
		origin := groupOrigin(g)
		if groupIncarnation(g) != b.incarnation[origin] {
			return true // stale incarnation: drop
		}
		return true // unknown group (e.g. for a peer we removed): drop
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

// Members returns the current membership including self. Read-only;
// stable until the next AddPeer/RemovePeer (RemovePeer re-slices with a
// fresh backing array, so a slice handed out earlier never mutates).
func (b *Raft) Members() []wire.NodeID {
	return b.members
}

// RemovePeer drops peer from every group's voting set and retires peer's
// own group. Called at a cycle boundary, identically on all survivors.
func (b *Raft) RemovePeer(peer wire.NodeID) {
	idx := -1
	for i, m := range b.members {
		if m == peer {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	b.members = append(b.members[:idx:idx], b.members[idx+1:]...)
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

// AddPeer admits peer with a fresh incarnation: a new group for it, and a
// seat in every existing group. Called at a cycle boundary, identically
// on all members (including the joiner itself, which builds the same
// state from the JoinReply).
func (b *Raft) AddPeer(peer wire.NodeID) {
	for _, m := range b.members {
		if m == peer {
			return
		}
	}
	b.members = append(b.members, peer)
	b.setAllPeers()
	b.openGroup(peer, b.incarnation[peer]+1)
}

// Incarnation reports a member's current incarnation number, used by the
// join protocol's state transfer.
func (b *Raft) Incarnation(id wire.NodeID) uint32 { return b.incarnation[id] }
