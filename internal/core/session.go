package core

import (
	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// Replicated client sessions. A session is the unit of exactly-once
// mutation semantics: registration and expiry ride proposal messages
// (like membership updates), and the session table lives in the state
// machine (kvstore.Store), written only by the apply stage. As a cycle
// applies, the stage registers and expires its sessions, classifies each
// mutation carrying a session identity — first sight, duplicate or
// unknown session — and records each transaction's verdict, in the
// committed total order, identically on every replica. This is the
// RCanopus move of making client-visible guarantees part of the
// replicated state machine rather than per-connection bookkeeping: dedup
// state survives the serving node, so a retried-after-failover mutation
// whose first submission committed returns the cached reply instead of
// applying twice.
//
// Idle sessions are reclaimed as a function of the committed order, not
// local timers: at every stride cycle the stage expires the sessions with
// no committed mutation in Config.SessionIdleCycles cycles (expireIdle),
// so no clock skew can split the replicas. The machine turn keeps only
// the register and expire waiters.

// RegisterSession proposes a fresh session through the next consensus
// cycle. done fires from the node's event context once the registration
// commits (ok=true, with the session ID every replica now knows), or
// with ok=false if the node cannot commit it (stalled, rejoining, or
// shut down before the commit). Call from the node's event context.
func (n *Node) RegisterSession(done func(id uint64, ok bool)) {
	if n.stalled || n.rejoin {
		if done != nil {
			done(0, false)
		}
		return
	}
	// The table is read under its lock (the stage may be writing it); a
	// registration committed but not yet applied is a 2^-63 collision.
	id := n.env.Rand().Uint64() | wire.SessionIDBit
	for t := n.Sessions(); (t != nil && t.Has(id)) || n.regWaiters[id] != nil; {
		id = n.env.Rand().Uint64() | wire.SessionIDBit
	}
	n.pendingSessions = append(n.pendingSessions, wire.SessionUpdate{ID: id})
	if done != nil {
		if n.regWaiters == nil {
			n.regWaiters = make(map[uint64]func(uint64, bool))
		}
		n.regWaiters[id] = done
	}
	n.afterSubmit()
}

// ExpireSession proposes reclaiming a session through consensus. done
// (optional) fires from the node's event context once the expiry commits
// (ok=true even if the session was already gone), or with ok=false if
// this node cannot commit it.
func (n *Node) ExpireSession(id uint64, done func(ok bool)) {
	if n.stalled || n.rejoin {
		if done != nil {
			done(false)
		}
		return
	}
	n.pendingSessions = append(n.pendingSessions, wire.SessionUpdate{ID: id, Expire: true})
	if done != nil {
		if n.expWaiters == nil {
			n.expWaiters = make(map[uint64][]func(bool))
		}
		n.expWaiters[id] = append(n.expWaiters[id], done)
	}
	n.afterSubmit()
}

// FailSessionWaiters abandons every pending RegisterSession/ExpireSession
// completion (done runs with ok=false): the node is stalling or shutting
// down, and the cycles those registrations ride will not commit here.
// Called internally on stall; servers also call it from their shutdown
// paths. Runs in the node's event context.
func (n *Node) FailSessionWaiters() {
	regs, exps := n.regWaiters, n.expWaiters
	n.regWaiters, n.expWaiters = nil, nil
	for _, done := range regs {
		done(0, false)
	}
	for _, dones := range exps {
		for _, done := range dones {
			done(false)
		}
	}
}

// Sessions exposes the replicated session table (for tests and tooling),
// nil without a state machine.
func (n *Node) Sessions() *kvstore.SessionTable {
	if n.sm == nil {
		return nil
	}
	return n.sm.Sessions()
}

// settleSessionWaiters completes the waiters of one committed cycle's
// session updates. The table itself changes when the cycle applies
// (applySessions); a mutation the waiter's client sends next rides a later
// cycle, which applies after this one.
func (n *Node) settleSessionWaiters(updates []wire.SessionUpdate) {
	for _, u := range updates {
		if u.Expire {
			dones := n.expWaiters[u.ID]
			delete(n.expWaiters, u.ID)
			for _, done := range dones {
				done(true)
			}
		} else if done, ok := n.regWaiters[u.ID]; ok {
			delete(n.regWaiters, u.ID)
			done(u.ID, true)
		}
	}
}

// applySessions folds a plan's committed session updates into the table,
// before its operations, so a registration and the session's first
// mutations may share a cycle. Expired sessions join the plan's expiry
// tail. Runs on the stage.
func (n *Node) applySessions(t *kvstore.SessionTable, p *applyPlan) {
	for _, u := range p.root.Sessions {
		if u.Expire {
			t.Expire(u.ID)
			p.expired = append(p.expired, u.ID)
		} else {
			t.Register(u.ID, p.Cycle)
		}
	}
}

// admitSession classifies one committed session mutation of a plan and
// reports whether it applies. A duplicate does not, and its own
// completion gets the committed reply (a transaction's recorded verdict,
// nil once a later transaction of the session displaced it: the serving
// layer then surfaces an error rather than guessing); neither does a mutation of an unknown session (expired, or never
// registered), whose own completion the serving node surfaces as an
// expiry. Runs on the stage.
func (n *Node) admitSession(t *kvstore.SessionTable, p *applyPlan, op *planOp) bool {
	req := op.req
	cached, verdict := t.Begin(req.Client, req.Seq, p.Cycle)
	if verdict == kvstore.SessionApply {
		return true
	}
	op.skip = true
	switch {
	case op.comp < 0:
	case verdict == kvstore.SessionUnknown:
		p.rejects = append(p.rejects, op.comp)
	case req.Op == wire.OpTxn:
		p.Vals[op.comp] = t.CachedTxn(req.Client, req.Seq)
	default:
		p.Vals[op.comp] = cached
	}
	return false
}

// expireIdle reclaims, at every stride cycle, the sessions with no
// committed mutation in the last SessionIdleCycles cycles. Idleness is
// measured in thousands of cycles, so the scan runs on a sixteenth of them
// and expiry still lands within ~6% of the bound. The result is a function
// of the committed order alone: every replica expires the same sessions at
// the same cycle. Runs on the stage, after the plan's operations.
func (n *Node) expireIdle(t *kvstore.SessionTable, p *applyPlan) {
	idle := uint64(n.cfg.SessionIdleCycles)
	if n.cfg.SessionIdleCycles <= 0 || p.Cycle <= idle {
		return
	}
	if stride := idle / 16; stride > 1 && p.Cycle%stride != 0 {
		return
	}
	for _, id := range t.IdleBefore(p.Cycle - idle) {
		t.Expire(id)
		p.expired = append(p.expired, id)
	}
}
