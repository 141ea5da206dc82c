package core

import (
	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// Replicated client sessions. A session is the unit of exactly-once
// mutation semantics: registration and expiry ride proposal messages
// (like membership updates), so every replica applies the same
// session-table change at the same cycle boundary, and every
// replica classifies each committed mutation carrying a session identity
// — duplicate or first sight — identically from the same total order.
// This is the RCanopus move of making client-visible guarantees part of
// the replicated state machine rather than per-connection bookkeeping:
// dedup state survives the serving node, so a retried-after-failover
// mutation whose first submission committed returns the cached reply
// instead of applying twice.
//
// Idle sessions are reclaimed through consensus, not local timers: at
// each commit every node scans its (replicated, identical) table and
// proposes an expiry update for sessions with no committed mutation in
// Config.SessionIdleCycles cycles. The proposal itself is just a hint —
// only its commit changes the table — so duplicate proposals from
// several nodes are harmless and no clock skew can split the replicas.

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
	id := n.env.Rand().Uint64() | wire.SessionIDBit
	for n.sessions.Has(id) || n.regWaiters[id] != nil {
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

// Sessions exposes the replicated session table (for tests and tooling).
func (n *Node) Sessions() *kvstore.SessionTable { return n.sessions }

// applySessions folds one committed cycle's session updates into the
// replicated table. Applied before the cycle's request order, so a
// registration and the session's first mutations may share a cycle.
func (n *Node) applySessions(cyc uint64, updates []wire.SessionUpdate) {
	n.expiredScratch = n.expiredScratch[:0]
	for _, u := range updates {
		if u.Expire {
			n.sessions.Expire(u.ID)
			n.expiredScratch = append(n.expiredScratch, u.ID)
			delete(n.expireProposed, u.ID)
			if dones := n.expWaiters[u.ID]; dones != nil {
				delete(n.expWaiters, u.ID)
				for _, done := range dones {
					done(true)
				}
			}
			continue
		}
		n.sessions.Register(u.ID, cyc)
		if done, ok := n.regWaiters[u.ID]; ok {
			delete(n.regWaiters, u.ID)
			done(u.ID, true)
		}
	}
}

// gcSessions proposes expiry for sessions with no committed mutation in
// the configured idle window. Every node runs the same scan over the
// same table; expireProposed keeps each node from re-proposing every
// cycle while an expiry is in flight.
func (n *Node) gcSessions(cyc uint64) {
	idle := uint64(n.cfg.SessionIdleCycles)
	if n.cfg.SessionIdleCycles <= 0 || n.sessions.Len() == 0 || cyc <= idle {
		return
	}
	// Stride the scan: idleness is measured in thousands of cycles, so
	// a full-table sweep at every commit buys nothing — at idle/16 the
	// commit hot path pays the O(sessions) cost on a small fraction of
	// cycles while expiry still lands within ~6% of the bound.
	if stride := idle / 16; stride > 1 && cyc%stride != 0 {
		return
	}
	for _, id := range n.sessions.IdleBefore(cyc - idle) {
		if !n.expireProposed[id] {
			if n.expireProposed == nil {
				n.expireProposed = make(map[uint64]bool)
			}
			n.expireProposed[id] = true
			n.pendingSessions = append(n.pendingSessions, wire.SessionUpdate{ID: id, Expire: true})
		}
	}
}
