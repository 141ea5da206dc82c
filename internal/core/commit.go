package core

import (
	"log/slog"
	"sort"
	"sync"

	"canopus/internal/kvstore"
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
// Order resolution runs here, inside the machine turn: session
// classification of the total order, membership, session GC — everything
// that must evolve in lock-step on every replica. The resulting applyPlan
// (state-machine operations plus this node's completion records) goes to
// the stage (stage.go), the only path from a cycle to the store, the WAL
// and the consumers.
func (n *Node) commit(c *cycle) {
	root := c.states[n.tree.Height]
	n.committed = c.id
	n.orderedW.Store(c.id)
	n.stats.cycleCommits.Add(1)
	if c.started {
		n.lastCycleTook = n.env.Now() - c.startedAt
	}
	if n.cfg.StallThreshold > 0 || n.cfg.LeafTimeout > 0 {
		n.lastCommitAt = n.env.Now()
		if n.stallDetected.Load() {
			n.stallDetected.Store(false)
		}
	}
	n.trace("commit", c.id)

	n.applySessions(c.id, root.Sessions)
	plan := n.resolveOrder(c.id, root.Batches)
	plan.expired = append(plan.expired, n.expiredScratch...)
	joiners := n.applyMembership(c.id, root.Updates)
	n.gcSessions(c.id)

	plan.root, plan.Order = root, root.Batches
	n.stage.submit(stageCmd{kind: cmdPlan, plan: plan})

	// Join replies go out only after cycle c's plan is with the stage,
	// where sendJoinReply takes the snapshot behind it. A reply sent from
	// applyMembership would snapshot the state as of c-1 while telling the
	// joiner to resume at c+1, silently losing cycle c's writes on every
	// rejoin.
	for _, j := range joiners {
		n.sendJoinReply(j, c.id)
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
	if n.stallAfter != 0 && n.committed >= n.stallAfter {
		n.stallAfter = 0
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
// classification (the replicated dedup table) happens here, serially, in
// the committed order — the apply stage never touches protocol state.
func (n *Node) resolveOrder(cyc uint64, order []*wire.Batch) *applyPlan {
	plan := n.newPlan(cyc)
	set := n.proposed[cyc]
	for _, b := range order {
		if b.Origin == n.cfg.Self && set != nil {
			n.resolveOwnSet(cyc, set, plan)
			plan.set = set
			set = nil
			continue
		}
		if n.sm != nil && b.Reqs != nil {
			for i := range b.Reqs {
				req := &b.Reqs[i]
				if wire.IsSessionID(req.Client) {
					if _, verdict := n.sessions.Begin(req.Client, req.Seq, cyc); verdict != kvstore.SessionApply {
						continue // duplicate (or expired): never re-apply
					}
					n.sessions.Record(req.Client, req.Seq, nil)
				}
				// A remote transaction is an op like any other here: every
				// replica evaluates it at apply time and records the result
				// (the session table is replicated state, and a failover
				// retry may land here).
				plan.ops = append(plan.ops, planOp{req: req, comp: -1})
			}
		}
	}
	// A read-only set whose batch was empty (and therefore absent from
	// the order) linearizes at the end of the cycle: its reads are
	// concurrent with every write ordered by this cycle, and its client
	// issued no interleaved writes, so this placement is consistent
	// with both real time and per-client order.
	if set != nil {
		n.resolveOwnSet(cyc, set, plan)
		plan.set = set
	}
	return plan
}

// resolveOwnSet classifies this node's own request set into the plan:
// every request gets a completion record (in arrival order), mutations
// that must apply and reads that must execute become plan operations.
func (n *Node) resolveOwnSet(cyc uint64, set *ownSet, plan *applyPlan) {
	for i := range set.reqs {
		req := &set.reqs[i]
		switch req.Op {
		case wire.OpWrite, wire.OpDelete:
			if wire.IsSessionID(req.Client) {
				cached, verdict := n.sessions.Begin(req.Client, req.Seq, cyc)
				switch verdict {
				case kvstore.SessionUnknown:
					// Deterministically not applied anywhere; the serving
					// node surfaces the expiry instead of an OK.
					plan.Rejected = append(plan.Rejected, *req)
					continue
				case kvstore.SessionDuplicate:
					// The committed result; do not re-apply.
					plan.Replies = append(plan.Replies, *req)
					plan.Vals = append(plan.Vals, cached)
					continue
				default:
					n.sessions.Record(req.Client, req.Seq, nil)
				}
			}
			if n.sm != nil {
				plan.ops = append(plan.ops, planOp{req: req, comp: -1})
			}
			plan.Replies = append(plan.Replies, *req)
			plan.Vals = append(plan.Vals, nil)
		case wire.OpRead:
			n.addRead(plan, req, false)
		case wire.OpTxn:
			if wire.IsSessionID(req.Client) {
				_, verdict := n.sessions.Begin(req.Client, req.Seq, cyc)
				switch verdict {
				case kvstore.SessionUnknown:
					plan.Rejected = append(plan.Rejected, *req)
					continue
				case kvstore.SessionDuplicate:
					// The original's result resolves at apply time (its own
					// plan has applied by then — strict cycle order), from
					// the compaction-surviving txn slot.
					n.addRead(plan, req, true)
					continue
				default:
					n.sessions.Record(req.Client, req.Seq, nil)
				}
			}
			n.addRead(plan, req, false)
		}
	}
}

// addRead records a completion whose value the apply stage fills — a
// read, a transaction's verdict, or (dup) a duplicate transaction's cached
// verdict — and, given a state machine, the operation that fills it.
func (n *Node) addRead(p *applyPlan, req *wire.Request, dup bool) {
	p.Replies = append(p.Replies, *req)
	p.Vals = append(p.Vals, nil)
	if n.sm != nil {
		p.ops = append(p.ops, planOp{req: req, comp: int32(len(p.Replies) - 1), dup: dup})
	}
}

// deliverPlan hands one applied (and, when durable, synced) plan to the
// node's consumers: the one choke point every committed cycle leaves the
// node through, in cycle order, on the apply stage. A join install is
// not a committed cycle and is not delivered.
func (n *Node) deliverPlan(p *applyPlan) {
	if p.snapshot || len(n.cbs.Consumers) == 0 {
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
	p.snapshot = false
	clear(p.outcomes)
	clear(p.txnEvents)
	clear(p.Events)
	p.outcomes, p.txnEvents, p.Events = p.outcomes[:0], p.txnEvents[:0], p.Events[:0]
	p.expired, p.expiredKeys = p.expired[:0], p.expiredKeys[:0]
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
// the emulation table and, for this super-leaf, the broadcast layer.
// Every live node applies the same updates at the same cycle boundary,
// which is the invariant keeping emulation tables identical (§4.6).
// Leaves apply before joins so a crash/rejoin pair in one cycle nets out
// to a fresh incarnation.
func (n *Node) applyMembership(cyc uint64, updates []wire.MemberUpdate) (joiners []wire.NodeID) {
	if len(updates) == 0 {
		return nil
	}
	ordered := append([]wire.MemberUpdate(nil), updates...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Leave != ordered[j].Leave {
			return ordered[i].Leave
		}
		return ordered[i].Node < ordered[j].Node
	})
	// Resurrect joins (cross-leaf sponsorships, see onJoinRequest) are
	// only valid if the joiner's leaf is still empty when the update
	// applies: the sponsor checked emptiness when it accepted the
	// request, but another member's join may have committed in between,
	// and seating this one anyway would add a member holding stale (zero)
	// broadcast incarnations — a zombie the leaf's round 1 then waits on
	// forever. The pre-cycle member counts decide, so every node voids
	// exactly the same stale updates (the committed prefix, and therefore
	// the pre-cycle view, is identical everywhere). Two resurrect joins
	// landing in the SAME cycle both see a pre-cycle-empty leaf and both
	// seat with all-zero incarnations, which is consistent.
	//
	// Voids are decided — and the voided sponsor's reply cancelled —
	// BEFORE any update applies: when a stale resurrect join and a live
	// member's valid join for the same node share a cycle, the valid
	// entry must not trip the stale sponsor's reply guard (its reply
	// would hand the joiner zero incarnations the leaf no longer runs).
	var voided []bool
	{
		var preMembers map[int]int
		for i, u := range ordered {
			if u.Leave || !u.Resurrect {
				continue
			}
			usl := n.tree.SuperLeafOf(u.Node)
			if usl < 0 {
				continue
			}
			if preMembers == nil {
				preMembers = make(map[int]int)
			}
			if _, ok := preMembers[usl]; !ok {
				preMembers[usl] = len(n.view.Members(usl))
			}
			if preMembers[usl] != 0 {
				if voided == nil {
					voided = make([]bool, len(ordered))
				}
				voided[i] = true
				if s, ok := n.sponsoring[u.Node]; ok && s.resurrect && s.cycle == cyc {
					delete(n.sponsoring, u.Node)
				}
			}
		}
	}
	for i, u := range ordered {
		if voided != nil && voided[i] {
			// Stale resurrection (see above): no view change, no peer add,
			// no reply. The joiner is still in its retry loop and will be
			// sponsored by a now-live leaf member (a Leave+Join with
			// properly bumped incarnations).
			continue
		}
		usl := n.tree.SuperLeafOf(u.Node)
		inOwnSL := usl == n.sl
		if u.Leave {
			// Leaf-death watermark: the cycle whose commit emptied a
			// super-leaf's membership (an eviction tombstone landing) is
			// when local tombstone substitution may begin (leaf.go). Only
			// the non-empty -> empty transition records it — a redundant
			// Leave against an already-empty leaf must not push the
			// watermark forward.
			before := n.cfg.LeafTimeout > 0 && usl >= 0 && len(n.view.Members(usl)) > 0
			n.view.Apply([]wire.MemberUpdate{u})
			n.trace("member-leave", cyc, slog.Int("member", int(u.Node)))
			if before && len(n.view.Members(usl)) == 0 {
				n.leafDeadAt[usl] = cyc
				n.stats.leavesDead.Store(int64(len(n.leafDeadAt)))
				n.trace("leaf-dead", cyc, slog.Int("dead_leaf", usl))
			}
			if inOwnSL && u.Node != n.cfg.Self {
				n.bc.RemovePeer(u.Node)
			}
			continue
		}
		n.view.Apply([]wire.MemberUpdate{u})
		n.trace("member-join", cyc, slog.Int("member", int(u.Node)))
		if usl >= 0 {
			if _, wasDead := n.leafDeadAt[usl]; wasDead {
				// A member of an evicted leaf rejoined: re-admit the leaf
				// to the merge (substitution stops; its states are fetched
				// again).
				delete(n.leafDeadAt, usl)
				n.leafReadmitAt[usl] = n.env.Now()
				n.stats.leafReadmissions.Add(1)
				n.stats.leavesDead.Store(int64(len(n.leafDeadAt)))
			}
		}
		if inOwnSL && u.Node != n.cfg.Self {
			n.bc.AddPeer(u.Node)
			delete(n.closedPeers, u.Node)
		}
		// Reply only when this node's own sponsorship kind matches the
		// applied update: an own-leaf sponsor replies for a normal join
		// (it holds the bumped broadcast incarnations), a cross-leaf
		// sponsor only for an applied resurrection (the leaf was empty,
		// so its all-zero incarnations are exactly right). A mismatched
		// reply would hand the joiner incarnations the leaf doesn't run,
		// wedging its round 1. The reply itself is deferred to the caller
		// (commit) so the snapshot includes this cycle's writes.
		if s, ok := n.sponsoring[u.Node]; ok && s.cycle == cyc && s.resurrect == u.Resurrect {
			delete(n.sponsoring, u.Node)
			joiners = append(joiners, u.Node)
		}
	}
	return joiners
}
