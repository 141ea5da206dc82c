package core

import (
	"log/slog"
	"sort"
	"sync"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// tryCommit commits completed cycles strictly in cycle order (§7.1:
// "nodes always commit the requests from consensus cycles in sequence").
func (n *Node) tryCommit() {
	for {
		c, ok := n.cycles[n.committed+1]
		if !ok || !c.complete {
			return
		}
		n.commit(c)
	}
}

// commit resolves cycle c's total order and hands it to the apply stage.
// Order resolution runs here, inside the machine turn, with the protocol
// state that must evolve in lock-step on every replica: membership, and
// the waiters of the cycle's session updates. The resulting applyPlan
// (state-machine operations plus this node's completion records) goes to
// the stage (stage.go), the only path from a cycle to the store — its
// session table included — the WAL and the consumers.
func (n *Node) commit(c *cycle) {
	root := c.states[n.tree.Height]
	n.committed = c.id
	n.orderedW.Store(c.id)
	n.stats.cycleCommits.Add(1)
	if c.started {
		n.lastCycleTook = n.env.Now() - c.startedAt
	}
	if len(root.Batches) == 0 && len(root.Sessions) == 0 && len(root.Updates) == 0 {
		n.emptyCycles++
	} else {
		n.emptyCycles = 0
	}
	n.lastCommitAt = n.env.Now()
	if n.stallDetected.Load() {
		n.stallDetected.Store(false)
	}
	n.trace("commit", c.id)

	n.settleSessionWaiters(root.Sessions)
	plan := n.resolveOrder(c.id, root)
	n.applyMembership(c.id, root.Updates)
	answers := n.seat(c.id + 1)

	n.stage.submit(stageCmd{kind: cmdPlan, plan: plan})

	// Join replies go out only after cycle c's plan is with the stage,
	// where sendJoinReply takes the image behind it. A reply sent from
	// seat would carry the state as of c-1 while telling the joiner to
	// resume at c+1, silently losing cycle c's writes on every rejoin.
	for _, j := range answers {
		n.sendJoinReply(j, n.sponsoring[j].nonce, c.id)
	}
	if len(answers) > 0 && !n.resending {
		n.resending = true
		n.env.After(joinRetryInterval, engine.Tag(tagJoinRetry, 0)) // resendJoinReplies
	}

	delete(n.cycles, c.id)
	delete(n.proposed, c.id)
	n.recent[c.id] = c.states
	if n.cfg.LeafTimeout > 0 && len(c.child) > 0 {
		// Steal the cycle's fetched child states so eviction queries for
		// gap cycles can be answered with the exact state this node merged
		// (see Node.recentChild).
		n.recentChild[c.id] = c.child
		c.child = nil
	}
	n.freeCycle(c)
	if old := c.id - n.retention(); old > 0 && old <= c.id {
		n.dropRecent(old)
	}

	// Self-clocking (§4.2): a node starts the next cycle if it received
	// one or more client requests during the prior cycle. With
	// pipelining the next cycles are usually already running; pacing
	// keeps saturated self-clocked deployments at the pace.
	if n.pendingCount() > 0 {
		n.startSelfClocked(causeCommit)
	}
}

// dropRecent forgets committed cycle old's retained states: it left the
// window in which a lagging super-leaf can still ask for them. The states
// slice (not the states) is reused by a later cycle.
func (n *Node) dropRecent(old uint64) {
	if states, ok := n.recent[old]; ok && len(n.statesFree) < n.cfg.MaxInFlight+4 {
		clear(states)
		n.statesFree = append(n.statesFree, states)
	}
	delete(n.recent, old)
	delete(n.recentChild, old)
}

// resolveOrder walks the cycle's total order and produces its applyPlan.
// Remote batches contribute their writes; this node's own batch is
// replayed from the locally retained full request set so reads execute
// at their arrival positions among the node's own writes (§5). Session
// classification is the apply stage's: a plan holds every committed
// mutation, and the stage decides which apply.
func (n *Node) resolveOrder(cyc uint64, root *wire.Proposal) *applyPlan {
	plan := n.newPlan(cyc)
	plan.root, plan.Order = root, root.Batches
	set := n.proposed[cyc]
	for _, b := range root.Batches {
		if b.Origin == n.cfg.Self && set != nil {
			n.resolveOwnSet(set, plan)
			set = nil
			continue
		}
		if n.sm != nil {
			for i := range b.Reqs {
				plan.ops = append(plan.ops, planOp{req: &b.Reqs[i], comp: -1})
			}
		}
	}
	// A read-only set whose batch was empty (and therefore absent from
	// the order) linearizes at the end of the cycle: its reads are
	// concurrent with every write ordered by this cycle, and its client
	// issued no interleaved writes, so this placement is consistent
	// with both real time and per-client order.
	if set != nil {
		n.resolveOwnSet(set, plan)
	}
	return plan
}

// resolveOwnSet puts this node's own request set into the plan: every
// request gets a completion record, in arrival order, and — given a state
// machine — the operation that fills it (a read's value, a transaction's
// verdict, a duplicate's committed reply; nil for a write's ack).
func (n *Node) resolveOwnSet(set *ownSet, plan *applyPlan) {
	plan.set = set
	for i := range set.reqs {
		plan.Replies = append(plan.Replies, set.reqs[i])
		plan.Vals = append(plan.Vals, nil)
		if n.sm != nil {
			plan.ops = append(plan.ops, planOp{req: &set.reqs[i], comp: int32(len(plan.Replies) - 1)})
		}
	}
}

// deliverPlan hands one applied (and, when durable, synced) plan to the
// node's consumers: the one choke point every committed cycle leaves the
// node through, in cycle order, on the apply stage.
func (n *Node) deliverPlan(p *applyPlan) {
	if len(n.cbs.Consumers) == 0 {
		return
	}
	n.buildPlanEvents(p)
	for _, cons := range n.cbs.Consumers {
		cons.Committed(&p.Commit)
	}
}

// planPool recycles applyPlans (and, via plan.set, own request sets):
// machine turns allocate, the delivering goroutine frees.
var planPool = sync.Pool{New: func() any { return new(applyPlan) }}

// ownSetPool recycles the per-cycle request-set backing arrays.
var ownSetPool = sync.Pool{New: func() any { return new(ownSet) }}

func (n *Node) newPlan(cyc uint64) *applyPlan {
	p := planPool.Get().(*applyPlan)
	p.Cycle = cyc
	return p
}

// freePlan recycles a delivered plan. Entries are cleared so pooled
// plans do not pin request payloads or store values.
func (n *Node) freePlan(p *applyPlan) {
	clear(p.ops)
	clear(p.Replies)
	clear(p.Vals)
	clear(p.Rejected)
	p.ops, p.Replies, p.Vals, p.Rejected = p.ops[:0], p.Replies[:0], p.Vals[:0], p.Rejected[:0]
	p.root, p.Order = nil, nil
	clear(p.outcomes)
	clear(p.txnEvents)
	clear(p.Events)
	p.outcomes, p.txnEvents, p.Events = p.outcomes[:0], p.txnEvents[:0], p.Events[:0]
	p.expired, p.expiredKeys, p.rejects = p.expired[:0], p.expiredKeys[:0], p.rejects[:0]
	if set := p.set; set != nil {
		p.set = nil
		clear(set.reqs)
		clear(set.arrivals)
		set.reqs, set.arrivals, set.writes = set.reqs[:0], set.arrivals[:0], 0
		ownSetPool.Put(set)
	}
	planPool.Put(p)
}

// applyMembership folds the cycle's committed membership updates into
// the view and, for this super-leaf, the broadcast layer. Every live node
// applies the same updates at the same cycle boundary, which is the
// invariant keeping emulation tables identical (§4.6). Leaves apply
// before joins, so a node retired and rejoined in one cycle holds a fresh
// seat. A join seats the node from cycle cyc + MaxInFlight (see join.go
// and seat); its leaf-mates, which cannot have started that cycle yet,
// keep everything they broadcast from now on for it (Expect). A Leave
// retires only a seated member (lot.View.Leave).
func (n *Node) applyMembership(cyc uint64, updates []wire.MemberUpdate) {
	if len(updates) == 0 {
		return
	}
	ordered := append([]wire.MemberUpdate(nil), updates...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Leave != ordered[j].Leave {
			return ordered[i].Leave
		}
		return ordered[i].Node < ordered[j].Node
	})
	for _, u := range ordered {
		if !u.Leave {
			if n.view.Join(u.Node, cyc+uint64(n.cfg.MaxInFlight)) {
				n.trace("member-join", cyc, slog.Int("member", int(u.Node)))
				n.expect(u.Node)
			}
			continue
		}
		// Leaf-death watermark: the cycle whose commit emptied a
		// super-leaf's membership (an eviction tombstone landing) is when
		// local tombstone substitution may begin (leaf.go). Only the
		// non-empty -> empty transition records it — a redundant Leave
		// against an already-empty leaf must not push the watermark
		// forward.
		usl := n.tree.SuperLeafOf(u.Node)
		before := n.cfg.LeafTimeout > 0 && usl >= 0 && len(n.view.Members(usl)) > 0
		if !n.view.Leave(u.Node) {
			continue
		}
		n.trace("member-leave", cyc, slog.Int("member", int(u.Node)))
		delete(n.sponsoring, u.Node)
		if before && len(n.view.Members(usl)) == 0 {
			n.leafDeadAt[usl] = cyc
			n.stats.leavesDead.Store(int64(len(n.leafDeadAt)))
			n.trace("leaf-dead", cyc, slog.Int("dead_leaf", usl))
		}
		if usl == n.sl && u.Node != n.cfg.Self {
			n.bc.RemovePeer(u.Node)
		}
	}
}

// seat takes, at the commit of cycle k-1, every seat that counts from
// cycle k: the joiner's leaf-mates seat it in their broadcast under the
// incarnation the view holds, an evicted leaf it belongs to is re-admitted
// to the merge, and the joins this node sponsored are returned to be
// answered. Every node has committed the joins by now (they committed by
// k - MaxInFlight), so every node seats the same members here.
func (n *Node) seat(k uint64) (answer []wire.NodeID) {
	for _, id := range n.view.Seat(k) {
		usl := n.tree.SuperLeafOf(id)
		n.trace("member-seat", k, slog.Int("member", int(id)))
		if usl == n.sl && id != n.cfg.Self {
			n.bc.AddPeer(id, n.view.Incarnation(id))
			delete(n.closedPeers, id)
		}
		if _, wasDead := n.leafDeadAt[usl]; wasDead {
			// Substitution stops; the leaf's states are fetched again.
			delete(n.leafDeadAt, usl)
			n.stats.leafReadmissions.Add(1)
			n.stats.leavesDead.Store(int64(len(n.leafDeadAt)))
		}
		if s, ok := n.sponsoring[id]; ok {
			s.seat = k
			n.sponsoring[id] = s
			answer = append(answer, id)
		}
	}
	return answer
}
