package core

import (
	"bytes"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"canopus/internal/wire"
)

// Crash-restart recovery. A node with a Durability hook persists every
// committed cycle's root proposal (the total order every replica
// resolved); after a full-cluster power loss each node rebuilds from its
// own disk instead of the join protocol's state transfer:
//
//  1. The wal manager restores the state machine from the latest
//     snapshot and calls RestoreState with the snapshot's cycle and
//     session table.
//  2. It replays the WAL tail through ReplayCommit, one committed root
//     per cycle, which re-runs the order-resolution path (session
//     classification included) and re-applies the writes — bit-identical
//     to the original commits, because both consume the same total order
//     with the same session table.
//  3. Init starts the node normally. Durable watermarks differ across
//     replicas by the group-commit lag, so the node marked `recovered`
//     closes the gap through root catch-up (rounds.go): the cycle at
//     committed+1, stuck past the fetch timeout in any round, fetches
//     the ROOT vnode state — which peers serve from their retained
//     recent window, filled by ReplayCommit and RetainRoot — and
//     installs it as the committed result directly.
//
// Scope: recovery is the cold-start path. Membership updates in replayed
// roots are intentionally NOT re-applied — the view resets to the
// configured tree (a full-cluster restart brings everyone back). A
// single node restarting into a live cluster still uses the join
// protocol: its peers committed its Leave, and only a Join update
// re-admits it to the broadcast groups.

// RestoreState installs recovered baseline state. Must be called before
// Init, after the caller restored the state machine's contents: it sets
// every watermark to cycle, replaces the session table, and marks the
// node recovered (enabling root catch-up).
func (n *Node) RestoreState(cycle uint64, sessions []wire.SessionState) {
	n.committed = cycle
	n.started = cycle
	n.orderedW.Store(cycle)
	n.applied.Store(cycle)
	if sessions != nil {
		n.sessions.Restore(sessions)
	}
	n.recovered = true
}

// ReplayCommit re-commits one durable cycle from its logged root
// proposal. Must be called before Init, in cycle order. The write set
// and session-table evolution reproduce the original commit exactly;
// no Commit reaches the consumers (the clients and watchers of the cycle
// did not survive the crash; a hub sees the replayed cycles as a gap). The
// root is retained in the recent-state window so
// lagging peers can root-catch-up from this node after restart.
func (n *Node) ReplayCommit(cycle uint64, root *wire.Proposal) error {
	if cycle != n.committed+1 {
		return fmt.Errorf("core: replay of cycle %d at watermark %d (want %d)", cycle, n.committed, n.committed+1)
	}
	n.applySessions(cycle, root.Sessions)
	plan := n.resolveOrder(cycle, root.Batches)
	plan.expired = append(plan.expired, n.expiredScratch...)
	n.gcSessions(cycle)
	n.committed = cycle
	n.started = cycle
	n.orderedW.Store(cycle)
	// The stage's first step only: the record is on disk already, and no
	// client or watcher of the cycle survived the crash.
	n.applyPlan(plan)
	n.applied.Store(cycle)
	n.freePlan(plan)

	n.retainRoot(cycle, root)
	if old := cycle - n.retention(); old > 0 && old <= cycle {
		n.dropRecent(old)
	}
	n.recovered = true
	n.stats.replayed.Add(1)
	return nil
}

// RetainRoot keeps the logged root of a cycle at or below the snapshot
// RestoreState installed, so that peers which had not committed it when
// the power went can still root-catch-up from this node: the snapshot
// holds the state after the cycle, not the order that produced it.
// Cycles older than the retention window are ignored. Must be called
// before Init.
func (n *Node) RetainRoot(cycle uint64, root *wire.Proposal) {
	if cycle <= n.committed && cycle+n.retention() > n.committed {
		n.retainRoot(cycle, root)
	}
}

// retainRoot puts a committed root in the recent-state window, from which
// onProposalRequest serves it.
func (n *Node) retainRoot(cycle uint64, root *wire.Proposal) {
	states := make([]*wire.Proposal, n.tree.Height+1)
	states[n.tree.Height] = root
	n.recent[cycle] = states
}

// Recovered reports whether this node restarted from durable state.
func (n *Node) Recovered() bool { return n.recovered }

// DurabilityError returns the first error the Durability hook reported,
// or nil. Logging is fail-stop: after an error no further appends are
// attempted and the node serves from memory only. Safe from any
// goroutine.
func (n *Node) DurabilityError() error {
	if err, ok := n.durErr.Load().(error); ok {
		return err
	}
	return nil
}

// appendDurable logs one committed cycle's root; the record then owes a
// Sync (unsynced) before the cycle is released.
func (n *Node) appendDurable(cycle uint64, root *wire.Proposal) {
	d := n.cfg.Durability
	if d == nil || n.durFailed {
		return
	}
	if err := d.AppendCommit(cycle, root); err != nil {
		n.durFailed = true
		n.durErr.Store(err)
		return
	}
	n.unsynced = true
}

// syncDurable ends a group commit: one Sync covers every record appended
// since the last, and nothing appended means nothing to do. On error
// logging fail-stops.
func (n *Node) syncDurable() {
	if !n.unsynced || n.durFailed {
		return
	}
	n.unsynced = false
	if err := n.cfg.Durability.Sync(); err != nil {
		n.durFailed = true
		n.durErr.Store(err)
	}
}

// rootVNode names the LOT root — the vnode whose state IS the cycle's
// committed result. It is never fetched by the normal rounds (only the
// root's children are), so a root-state message unambiguously belongs to
// the catch-up path.
func (n *Node) rootVNode() string { return n.tree.Ancestor(n.sl, n.tree.Height) }

// onRootState installs a fetched committed root: the recovered node was
// stuck on this cycle because its peers are already past it — they drop
// its round-1 proposals as stale, and one that replayed the cycle from its
// log holds its root but not the vnode states a later round pulls — so
// consensus can never finish locally. But the cycle's result is already
// agreed, and installing the root verbatim commits exactly what every
// other replica committed.
func (n *Node) onRootState(p *wire.Proposal) {
	if !n.recovered || p.Cycle != n.committed+1 {
		return
	}
	c, ok := n.cycles[p.Cycle]
	if !ok || !c.started || c.complete {
		return
	}
	// This node's post-restart request set cannot be in the agreed order
	// (peers dropped the proposal carrying it), so requeue it for a later
	// cycle — unless the order does contain a matching own batch, which
	// means round 1 actually completed elsewhere with our proposal and
	// the normal resolve path must consume the set.
	if set := n.proposed[p.Cycle]; set != nil && !orderContainsSet(p.Batches, n.cfg.Self, set) {
		n.requeueSet(p.Cycle, set)
	}
	// The same goes for what startCycle moved into that proposal besides
	// requests: a session registration dropped here is a client that
	// waits for ever.
	n.requeueUpdates(c.own, p)
	n.trace("root-catchup", p.Cycle, slog.String("vnode", p.VNode))
	c.states[n.tree.Height] = p
	c.round = n.tree.Height + 1
	c.complete = true
	n.tryCommit()
	// Chain: if the next cycle is already stuck the same way,
	// fetch its root immediately instead of waiting out another timeout.
	if c2, ok := n.cycles[n.committed+1]; ok && c2.started && !c2.complete {
		n.sendFetch(c2, n.rootVNode())
	}
}

// requeueSet returns a proposed-but-never-ordered request set to the
// accumulation window, ahead of newer arrivals, so the requests ride the
// next cycle this node starts.
func (n *Node) requeueSet(cyc uint64, set *ownSet) {
	delete(n.proposed, cyc)
	reqs := make([]wire.Request, 0, len(set.reqs)+len(n.accum.reqs))
	reqs = append(append(reqs, set.reqs...), n.accum.reqs...)
	arrivals := make([]time.Duration, 0, len(set.arrivals)+len(n.accum.arrivals))
	arrivals = append(append(arrivals, set.arrivals...), n.accum.arrivals...)
	n.accum.reqs, n.accum.arrivals = reqs, arrivals
	n.accum.writes += set.writes
	clear(set.reqs)
	clear(set.arrivals)
	set.reqs, set.arrivals, set.writes = set.reqs[:0], set.arrivals[:0], 0
	ownSetPool.Put(set)
}

// requeueUpdates returns the session and membership updates of own — this
// node's abandoned round-1 proposal — to the pending queues, ahead of
// newer ones, except those the installed root carries too (round 1
// completed elsewhere with the proposal).
func (n *Node) requeueUpdates(own, root *wire.Proposal) {
	if own == nil {
		return
	}
	n.pendingSessions = append(missingFrom(own.Sessions, root.Sessions), n.pendingSessions...)
	n.pendingUpdates = append(missingFrom(own.Updates, root.Updates), n.pendingUpdates...)
}

// missingFrom returns the elements of own that have lacks, in order.
func missingFrom[T comparable](own, have []T) []T {
	var out []T
	for _, x := range own {
		if !slices.Contains(have, x) {
			out = append(out, x)
		}
	}
	return out
}

// orderContainsSet reports whether the committed order includes a batch
// from self whose writes match the given set's writes — i.e. the set
// this node proposed for the cycle is the one consensus ordered.
func orderContainsSet(order []*wire.Batch, self wire.NodeID, set *ownSet) bool {
	for _, b := range order {
		if b.Origin != self {
			continue
		}
		i := 0
		match := true
		for j := range set.reqs {
			if !set.reqs[j].Op.Mutates() {
				continue
			}
			if i >= len(b.Reqs) || !sameRequest(&b.Reqs[i], &set.reqs[j]) {
				match = false
				break
			}
			i++
		}
		if match && i == len(b.Reqs) {
			return true
		}
	}
	return false
}

func sameRequest(a, b *wire.Request) bool {
	return a.Client == b.Client && a.Seq == b.Seq && a.Op == b.Op &&
		a.Key == b.Key && bytes.Equal(a.Val, b.Val)
}
