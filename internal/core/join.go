package core

import (
	"log/slog"
	"time"

	"canopus/internal/engine"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// Join protocol (§3 assumption 6: "nodes fail by crashing and require a
// failed node to rejoin the system using a join protocol", modeled on
// Raft's approach as the paper suggests).
//
// Joiner J:  send JoinRequest to each configured super-leaf peer in turn
//            until a JoinReply arrives, then install the sponsor's state
//            and participate from the reply's StartCycle + 1.
//
// Sponsor S: queue a membership update (a Leave, if J's previous
//            incarnation is still in the view, then a Join); the update
//            rides S's next round-1 proposal (cycle X). Every member
//            applies it when X commits — simultaneously arming a
//            pipeline barrier so no member evaluates cycle X+1's round-1
//            completion with a stale membership. At commit S sends
//            JoinReply{StartCycle: X} with a state snapshot.

const joinRetryInterval = 200 * time.Millisecond

// sponsorship records an accepted JoinRequest on the sponsor: the cycle
// whose membership update answers it (0 until one is proposed) and
// whether the sponsorship was a cross-leaf resurrection. See the
// Node.sponsoring field and applyMembership for the kind rules.
type sponsorship struct {
	cycle     uint64
	resurrect bool
}

// sendJoinRequest tries the next peer, alternating deterministically
// between own super-leaf members (the common restart; they hold the
// broadcast incarnations) and cross-leaf nodes — the fallback that
// resurrects a fully-dead (evicted) leaf, whose members can only be
// sponsored from outside (see leaf.go). Alternating rather than
// exhausting one list first keeps both paths fast: a joiner behind live
// leafmates is picked up within two attempts instead of waiting out a
// full lap of cross-leaf denials, and a dead leaf's first joiner reaches
// an outside sponsor just as quickly.
func (n *Node) sendJoinRequest() {
	var own, cross []wire.NodeID
	for _, p := range n.tree.SuperLeaf(n.sl).Members {
		if p != n.cfg.Self {
			own = append(own, p)
		}
	}
	for _, p := range n.tree.AllNodes() {
		if n.tree.SuperLeafOf(p) != n.sl {
			cross = append(cross, p)
		}
	}
	seq := n.joinSeq
	n.joinSeq++
	var target wire.NodeID
	switch {
	case len(own) == 0 && len(cross) == 0:
		return // single-node cluster: nothing to rejoin
	case len(own) == 0:
		target = cross[seq%len(cross)]
	case len(cross) == 0:
		target = own[seq%len(own)]
	case seq%2 == 0:
		target = own[(seq/2)%len(own)]
	default:
		target = cross[(seq/2)%len(cross)]
	}
	n.env.Send(target, &wire.JoinRequest{From: n.cfg.Self})
	n.env.After(joinRetryInterval, engine.Tag(tagJoinRetry, 0))
}

// onJoinRequest is the sponsor side.
func (n *Node) onJoinRequest(from wire.NodeID, m *wire.JoinRequest) {
	if n.rejoin || n.stalled {
		return // cannot sponsor while not participating
	}
	if m.From == n.cfg.Self {
		return
	}
	resurrect := false
	if joinerSL := n.tree.SuperLeafOf(m.From); joinerSL != n.sl {
		if joinerSL < 0 {
			return // not a configured node
		}
		// Cross-leaf sponsorship resurrects only a fully-empty (evicted)
		// leaf: while any member of the joiner's leaf is alive in the
		// view, only those peers may sponsor — they alone know the leaf's
		// broadcast incarnation numbers, and a cross-leaf Join committing
		// next to live members would hand the joiner stale (zero)
		// incarnations for its broadcast groups. A fully-dead leaf
		// restarts every group from incarnation zero with no survivors
		// holding old state, so zeros are then exactly right. The update
		// is flagged Resurrect so that, if another member's join commits
		// first, this one is voided at apply time everywhere instead of
		// seating a member the sponsor cannot actually brief (see
		// applyMembership).
		if members := n.view.Members(joinerSL); len(members) > 0 {
			if len(members) == 1 && members[0] == m.From {
				// The joiner's resurrection already committed, yet it is
				// still asking: the one-shot JoinReply was lost (a live
				// deployment drops frames at a process-restart boundary —
				// the sponsor's first write after the restart can land on
				// a stale connection). The joiner is its leaf's only
				// seated member, so nobody else holds leaf state and the
				// current committed state IS the original reply's
				// content. Re-answer instead of deadlocking: without
				// this, every retry is dropped here (the leaf is no
				// longer empty) while the original sponsor's cleared
				// sponsorship makes it mute too.
				n.trace("join-rereply", n.committed, slog.Int("joiner", int(m.From)))
				n.sendJoinReply(m.From, n.committed)
			}
			return
		}
		resurrect = true
	}
	if _, already := n.sponsoring[m.From]; already {
		return // join in flight; the joiner's retry changes nothing
	}
	n.sponsoring[m.From] = sponsorship{resurrect: resurrect} // carrying cycle assigned at proposal time
	n.trace("join-accept", 0, slog.Int("joiner", int(m.From)))
	if n.view.Alive(m.From) && !n.closedPeers[m.From] {
		// The previous incarnation never got a failure cut (e.g. the
		// node restarted faster than detection): retire it first.
		n.pendingUpdates = append(n.pendingUpdates, wire.MemberUpdate{Node: m.From, Leave: true})
		n.onPeerFailedLocal(m.From)
	}
	n.pendingUpdates = append(n.pendingUpdates, wire.MemberUpdate{Node: m.From, Resurrect: resurrect})
	// Make sure a cycle carries the update promptly.
	if n.started == n.committed {
		n.tryStartCycles(n.started+1, causeOther)
	}
}

// onPeerFailedLocal marks a peer closed without queueing another Leave
// update (the caller already has).
func (n *Node) onPeerFailedLocal(peer wire.NodeID) {
	n.closedPeers[peer] = true
	for k := n.committed + 1; k <= n.started; k++ {
		if c, ok := n.cycles[k]; ok && c.started && !c.complete {
			n.advance(c)
		}
	}
}

// sendJoinReply transfers state to the joiner once its join update has
// committed in cycle cyc.
func (n *Node) sendJoinReply(joiner wire.NodeID, cyc uint64) {
	reply := &wire.JoinReply{
		From:       n.cfg.Self,
		StartCycle: cyc,
	}
	for _, id := range n.tree.AllNodes() {
		if n.view.Alive(id) {
			reply.Alive = append(reply.Alive, id)
			reply.Incarnations = append(reply.Incarnations, n.incarnationOf(id))
		}
	}
	if n.sm != nil {
		// Taken on the apply stage, which owns the store: the snapshot
		// reflects every cycle up to cyc (all ordered, so their plans are
		// with the stage, possibly still applying off the machine lock).
		n.stage.call(func() { reply.Snapshot = n.sm.Snapshot() })
	}
	reply.Sessions = n.sessions.Snapshot()
	n.trace("join-reply", cyc, slog.Int("joiner", int(joiner)))
	n.env.Send(joiner, reply)
}

// incarnationOf reports the broadcast-layer incarnation for own-SL
// members (others are irrelevant to the joiner).
func (n *Node) incarnationOf(id wire.NodeID) uint32 {
	type incarnations interface {
		Incarnation(wire.NodeID) uint32
	}
	if b, ok := n.bc.(incarnations); ok && n.tree.SuperLeafOf(id) == n.sl {
		return b.Incarnation(id)
	}
	return 0
}

// onJoinReply installs the sponsor's state and resumes participation.
func (n *Node) onJoinReply(m *wire.JoinReply) {
	if !n.rejoin {
		return // duplicate reply from a second sponsor attempt
	}
	n.trace("join-install", m.StartCycle)
	n.rejoin = false
	if n.cfg.LeafTimeout > 0 {
		// Remotes that have not yet committed our Join still see us dead
		// and answer our first messages with Evicted; absorb those for one
		// leaf-timeout (see Node.evictGraceUntil).
		n.evictGraceUntil = n.env.Now() + n.cfg.LeafTimeout
	}
	n.started = m.StartCycle
	n.committed = m.StartCycle
	n.orderedW.Store(m.StartCycle)

	// Rebuild the membership view: start from the static tree and fail
	// everyone absent from the sponsor's alive set.
	n.view = lot.NewView(n.tree)
	alive := make(map[wire.NodeID]bool, len(m.Alive))
	for _, id := range m.Alive {
		alive[id] = true
	}
	var dead []wire.MemberUpdate
	for _, id := range n.tree.AllNodes() {
		if !alive[id] {
			dead = append(dead, wire.MemberUpdate{Node: id, Leave: true})
		}
	}
	n.view.Apply(dead)

	// Install the state machine snapshot. The install rides the apply
	// stage as a synthetic plan, like everything that writes the store, so
	// it serializes with the committed-state reads already there; the
	// applied watermark advances to StartCycle when it lands.
	// Snapshot entries smuggle each key's last-modified cycle and owner
	// session in Seq/Client (see kvstore.Store.Snapshot): a TxnMachine
	// installs them through ApplyWriteAt so the joiner's event-plane
	// metadata matches every replica that never crashed.
	plan := n.newPlan(m.StartCycle)
	plan.snapshot = true
	if n.sm != nil {
		for i := range m.Snapshot {
			plan.ops = append(plan.ops, planOp{req: &m.Snapshot[i], comp: -1})
		}
	}
	n.stage.submit(stageCmd{kind: cmdPlan, plan: plan})
	// Install the session dedup table: retried mutations must classify
	// here exactly as on replicas that never crashed.
	n.sessions.Restore(m.Sessions)

	// Build the broadcast layer with the sponsor's incarnation numbers.
	var members []wire.NodeID
	incs := make(map[wire.NodeID]uint32)
	for i, id := range m.Alive {
		if n.tree.SuperLeafOf(id) == n.sl {
			members = append(members, id)
			if i < len(m.Incarnations) {
				incs[id] = m.Incarnations[i]
			}
		}
	}
	n.initBroadcast(members, incs)

	// The clock starts over with the protocol state: a pace timer armed
	// before this is not owed any more (its firing finds paceArmed clear).
	n.paceArmed, n.lastCycleTook = false, 0
	n.env.After(n.cfg.TickInterval, engine.Tag(tagTick, 0))
	if n.cfg.CycleInterval > 0 {
		n.nextCycleAt = n.env.Now() + n.cfg.CycleInterval
		n.env.After(n.cfg.CycleInterval, engine.Tag(tagCycleTimer, 0))
	}
}
