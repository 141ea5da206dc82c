package broadcast

import (
	"slices"
	"sort"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// Switch is the hardware-assisted broadcast variant of §4.3: "for ToR
// switches that support hardware-assisted atomic broadcast, nodes in a
// super-leaf can use this functionality to efficiently and safely
// distribute proposal messages".
//
// The sender serializes each payload once (Env.Multicast) and the switch
// replicates it; atomicity and per-origin order are provided by the
// fabric, which the simulator models faithfully and a real deployment
// would obtain from the switch. Nothing orders two origins' messages
// against each other: two members broadcasting at one instant may be
// delivered in different orders on different members, which is why
// core.Config.Validate refuses leaf eviction over this flavour. Liveness
// uses multicast heartbeats with a silence threshold.
type Switch struct {
	env engine.Env
	cfg Config
	cbs Callbacks

	members  []wire.NodeID
	lastSeen map[wire.NodeID]time.Duration
	failed   map[wire.NodeID]bool
	pingSeq  uint64
	nextPing time.Duration
}

var _ Broadcaster = (*Switch)(nil)

// NewSwitch builds the switch-assisted broadcaster for one node.
func NewSwitch(env engine.Env, cfg Config, cbs Callbacks) *Switch {
	cfg.fill()
	b := &Switch{
		env:      env,
		cfg:      cfg,
		cbs:      cbs,
		members:  append([]wire.NodeID(nil), cfg.Members...),
		lastSeen: make(map[wire.NodeID]time.Duration),
		failed:   make(map[wire.NodeID]bool),
	}
	for _, m := range b.members {
		b.lastSeen[m] = env.Now()
	}
	return b
}

func (b *Switch) peersOnly() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(b.members))
	for _, m := range b.members {
		if m != b.env.ID() {
			out = append(out, m)
		}
	}
	return out
}

// Broadcast multicasts the payload and delivers it locally (the hardware
// path delivers to the sender too).
func (b *Switch) Broadcast(payload wire.Message) {
	env := &wire.Envelope{Origin: b.env.ID(), Payload: payload}
	b.env.Multicast(b.peersOnly(), env)
	if b.cbs.Deliver != nil {
		b.cbs.Deliver(b.env.ID(), payload)
	}
}

// Handle consumes envelopes and pings.
func (b *Switch) Handle(from wire.NodeID, m wire.Message) bool {
	switch v := m.(type) {
	case *wire.Envelope:
		b.lastSeen[v.Origin] = b.env.Now()
		if b.failed[v.Origin] {
			return true // past the failure cut: ignore stragglers
		}
		if b.cbs.Deliver != nil {
			b.cbs.Deliver(v.Origin, v.Payload)
		}
		return true
	case *wire.Ping:
		b.lastSeen[v.From] = b.env.Now()
		return true
	}
	return false
}

// Tick multicasts heartbeats and checks peer liveness.
func (b *Switch) Tick() {
	now := b.env.Now()
	if now >= b.nextPing {
		b.nextPing = now + b.cfg.heartbeat()
		b.pingSeq++
		b.env.Multicast(b.peersOnly(), &wire.Ping{From: b.env.ID(), Seq: b.pingSeq})
	}
	// Deterministic order for failure reports.
	peers := b.peersOnly()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		if b.failed[p] {
			continue
		}
		if now-b.lastSeen[p] > b.cfg.failAfter() {
			b.failed[p] = true
			if b.cbs.PeerFailed != nil {
				b.cbs.PeerFailed(p)
			}
		}
	}
}

// RemovePeer drops a peer after its failure cut.
func (b *Switch) RemovePeer(peer wire.NodeID) {
	b.members = slices.DeleteFunc(b.members, func(m wire.NodeID) bool { return m == peer })
	delete(b.lastSeen, peer)
}

// Expect does nothing: the fabric keeps no log to replay to a peer, so a
// peer receives only what is multicast after AddPeer.
func (b *Switch) Expect(wire.NodeID) {}

// AddPeer admits a (re)joined peer. The fabric needs no incarnation.
func (b *Switch) AddPeer(peer wire.NodeID, _ uint32) {
	if slices.Contains(b.members, peer) {
		return
	}
	b.members = append(b.members, peer)
	b.lastSeen[peer] = b.env.Now()
	b.failed[peer] = false
}
