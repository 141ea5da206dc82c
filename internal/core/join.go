package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"time"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// Join protocol (§3 assumption 6: "nodes fail by crashing and require a
// failed node to rejoin the system using a join protocol", modeled on
// Raft's approach as the paper suggests). The committed membership view
// (lot.View, changed only by applyMembership and seat) owns who is in a
// leaf; see docs/ARCHITECTURE.md "Joining and leaving a leaf".
//
// Joiner J:  send JoinRequest to every other configured node in turn
//            until a JoinReply arrives, then install the sponsor's state
//            and participate from the reply's StartCycle + 1.
//
// Sponsor S: any participating node in whose committed view J holds no
//            seat. A Join update rides S's next round-1 proposal; its
//            cycle X commits everywhere, and the view gives J a new
//            incarnation and a seat counting from X + MaxInFlight. No node
//            can start that cycle before it has committed X (canStart), so
//            every node seats J in the same cycles' round 1. J's
//            leaf-mates keep their broadcast logs whole from X's commit
//            (Expect), so J receives every proposal of its first cycles.
//            At the commit of the cycle before the seat, every node seats
//            J (its leaf-mates seat it in their broadcast) and S sends
//            JoinReply{StartCycle: X + MaxInFlight - 1} with its store
//            image (contents and session table), which J installs through
//            RestoreImage.
//            S sends it again each joinRetryInterval until it commits the
//            seat's cycle: the transport may lose the frame, and the cycle
//            cannot commit before J has proposed in it. J installs only a
//            reply that echoes its own request's nonce, so no process
//            takes over a seat that an earlier process of the same node
//            may have proposed under.
//
// A J still seated in S's view is not sponsored: only its leaf's agreed
// failure cut (the GroupClosed its sequencer orders, which every member
// delivers at one slot) retires it, and J's retry is sponsored once that
// Leave has committed. S does not hasten the cut: a retry already in
// flight when J's reply lands would cut the incarnation just seated.

const joinRetryInterval = 200 * time.Millisecond

// sponsored is one join this node proposed: the nonce of the request it
// answers, and the cycle the seat counts from once taken (0 until then).
// It ends when that cycle commits here (resendJoinReplies) or a Leave
// retires the joiner.
type sponsored struct{ nonce, seat uint64 }

// sendJoinRequest asks the next of the other configured nodes, in a fixed
// rotation: any of them may sponsor.
func (n *Node) sendJoinRequest() {
	others := slices.DeleteFunc(n.tree.AllNodes(), func(p wire.NodeID) bool { return p == n.cfg.Self })
	if len(others) == 0 {
		return // single-node cluster: nothing to rejoin
	}
	n.env.Send(others[n.joinSeq%len(others)], &wire.JoinRequest{From: n.cfg.Self, Nonce: n.joinNonce})
	n.joinSeq++
	n.env.After(joinRetryInterval, engine.Tag(tagJoinRetry, 0))
}

// onJoinRequest is the sponsor side.
func (n *Node) onJoinRequest(m *wire.JoinRequest) {
	j := m.From
	if n.rejoin || n.stalled || j == n.cfg.Self || n.tree.SuperLeafOf(j) < 0 {
		return // not participating, or not a configured peer
	}
	if n.view.Alive(j) {
		if members := n.view.Members(n.tree.SuperLeafOf(j)); len(members) == 1 && members[0] == j {
			// J is its leaf's only seated member and asks again: it
			// restarted, or lost its reply and its sponsor is gone. No
			// leaf-mate exists to cut it, so no Leave will ever free the
			// seat; and nobody else holds leaf state, so the committed
			// state IS the original reply's content. Re-answer.
			n.trace("join-rereply", n.committed, slog.Int("joiner", int(j)))
			n.sendJoinReply(j, m.Nonce, n.committed)
		}
		return
	}
	if _, ok := n.sponsoring[j]; ok {
		return // join in flight; the joiner's retry changes nothing
	}
	n.sponsoring[j] = sponsored{nonce: m.Nonce}
	n.trace("join-accept", 0, slog.Int("joiner", int(j)))
	n.pendingUpdates = append(n.pendingUpdates, wire.MemberUpdate{Node: j})
	n.startSelfClocked(causeOther) // a cycle carries the update promptly
}

// resendJoinReplies answers again every joiner seated from a cycle this
// node has not committed yet — the committed state is still the first
// reply's — and ends the sponsorships whose seat cycle it has: the joiner
// proposed in it, or its leaf's failure cut let the cycle go on without
// it.
func (n *Node) resendJoinReplies() {
	owed := false
	for _, j := range slices.Sorted(maps.Keys(n.sponsoring)) {
		switch s := n.sponsoring[j]; s.seat {
		case 0:
		case n.committed + 1:
			n.sendJoinReply(j, s.nonce, n.committed)
			owed = true
		default:
			delete(n.sponsoring, j)
		}
	}
	if n.resending = owed; owed {
		n.env.After(joinRetryInterval, engine.Tag(tagJoinRetry, 0))
	}
}

// sendJoinReply transfers state to the joiner, answering its request's
// nonce, once its seat is taken at the commit of cycle cyc.
func (n *Node) sendJoinReply(joiner wire.NodeID, nonce, cyc uint64) {
	reply := &wire.JoinReply{
		From:              n.cfg.Self,
		Nonce:             nonce,
		StartCycle:        cyc,
		MaxInFlight:       uint32(n.cfg.MaxInFlight),
		LeafTimeout:       n.cfg.LeafTimeout,
		SessionIdleCycles: int64(n.cfg.SessionIdleCycles),
	}
	for _, id := range n.tree.AllNodes() {
		if n.view.Alive(id) {
			reply.Alive = append(reply.Alive, id)
			reply.Incarnations = append(reply.Incarnations, n.view.Incarnation(id))
			reply.Seats = append(reply.Seats, n.view.PendingFrom(id))
		}
	}
	if n.sm != nil {
		// Taken on the apply stage, which owns the store: the image
		// reflects every cycle up to cyc (all ordered, so their plans are
		// with the stage, possibly still applying off the machine lock).
		var img kvstore.Image
		n.stage.call(func() { img = n.sm.Image() })
		reply.Contents = kvstore.AppendContents(nil, &img.Contents)
		reply.Sessions = kvstore.AppendSessions(nil, img.Sessions)
	}
	n.trace("join-reply", cyc, slog.Int("joiner", int(joiner)))
	n.env.Send(joiner, reply)
}

// onJoinReply installs the sponsor's state and resumes participation. A
// reply it cannot install — the sponsor runs another MaxInFlight,
// LeafTimeout or SessionIdleCycles, or its image does not decode — halts
// the node: it stays out of the cluster, whose next failure cut retires
// the seat it was given.
func (n *Node) onJoinReply(m *wire.JoinReply) {
	if !n.rejoin || n.stalled || m.Nonce != n.joinNonce {
		return // a duplicate, a refused join, or the answer to an earlier process's request
	}
	if err := n.installJoinImage(m); err != nil {
		n.log.LogAttrs(context.Background(), slog.LevelError, "join refused",
			slog.Int("sponsor", int(m.From)), slog.String("reason", err.Error()),
			slog.Int("max_in_flight", n.cfg.MaxInFlight), slog.Int("sponsor_max_in_flight", int(m.MaxInFlight)),
			slog.Duration("leaf_timeout", n.cfg.LeafTimeout), slog.Duration("sponsor_leaf_timeout", m.LeafTimeout),
			slog.Int("session_idle_cycles", n.cfg.SessionIdleCycles), slog.Int64("sponsor_session_idle_cycles", m.SessionIdleCycles))
		n.halt(false)
		return
	}
	n.trace("join-install", m.StartCycle)
	n.rejoin = false
	// Absorb the Evicted answers of remotes that have not committed our
	// Join yet (see Node.evictGraceUntil).
	n.evictGraceUntil = n.env.Now() + max(n.cfg.LeafTimeout, n.cfg.stuckAfter())
	n.started = m.StartCycle
	n.committed = m.StartCycle
	n.orderedW.Store(m.StartCycle)

	// The sponsor's committed view: who holds a seat, under which
	// incarnation, and which seats are still pending.
	n.view = lot.RestoreView(n.tree, m.Alive, m.Incarnations, m.Seats)

	n.initBroadcast()

	// The clock starts over with the protocol state: a pace timer armed
	// before this is not owed any more (its firing finds paceArmed clear).
	n.paceArmed, n.lastCycleTook, n.emptyCycles, n.lastBatch = false, 0, 0, 0
	n.env.After(n.cfg.TickInterval, engine.Tag(tagTick, 0))
	if n.cfg.CycleInterval > 0 {
		n.nextCycleAt = n.env.Now() + n.cfg.CycleInterval
		n.env.After(n.cfg.CycleInterval, engine.Tag(tagCycleTimer, 0))
	}
}

// installJoinImage checks a reply's cluster-wide settings against this
// node's and installs its image — contents and session table, so retried
// mutations classify here exactly as on replicas that never crashed — on
// the apply stage, which owns the store. The applied watermark reaches
// StartCycle with the store; the install is not a committed cycle, so no
// consumer sees it. Nothing changes when it fails.
func (n *Node) installJoinImage(m *wire.JoinReply) error {
	if int(m.MaxInFlight) != n.cfg.MaxInFlight || m.LeafTimeout != n.cfg.LeafTimeout ||
		m.SessionIdleCycles != int64(n.cfg.SessionIdleCycles) {
		return errors.New("cluster-wide settings differ")
	}
	var img kvstore.Image
	var err error
	if n.sm != nil {
		if img.Contents, err = kvstore.DecodeContents(m.Contents); err != nil {
			return fmt.Errorf("contents image: %w", err)
		}
		if img.Sessions, err = kvstore.DecodeSessions(m.Sessions); err != nil {
			return fmt.Errorf("session image: %w", err)
		}
	}
	n.stage.call(func() {
		if n.sm != nil {
			n.sm.RestoreImage(img)
		}
		n.applied.Store(m.StartCycle)
		n.stage.serveParked()
	})
	return nil
}
