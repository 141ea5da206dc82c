package core

import (
	"sort"

	"canopus/internal/wire"
)

// Write leases (§7.2). Per key, during any cycle, either the lease is
// inactive — no writes permitted, reads served locally and immediately —
// or active — writes permitted (ordered by consensus as usual), reads
// deferred to the end of the next consensus cycle. Lease requests ride
// proposal messages; a lease committed by cycle C activates at cycle C+1
// on every node simultaneously and lasts LeaseTTL cycles.

// leaseActive reports whether key carries a write lease for any cycle
// that is still ongoing or upcoming (i.e. not expired as of the next
// cycle to commit).
func (n *Node) leaseActive(key uint64) bool {
	until, ok := n.leases[key]
	return ok && until > n.committed
}

// submitLeased routes a request under the write-lease policy.
func (n *Node) submitLeased(req wire.Request) {
	if req.Op == wire.OpRead {
		if !n.leaseActive(req.Key) && !n.leaseRequested[req.Key] {
			// No write lease anywhere in flight: linearizable local read
			// against committed state, no delay (§7.2 "reads without
			// delay") — a stage read at the ordered watermark, which the
			// inline driver answers inside this turn and the goroutine
			// driver once the cycles ordered so far have applied. A stage
			// closed before that answers nobody: the client times out.
			n.stage.submit(stageCmd{kind: cmdRead, read: localRead{
				key: req.Key, minCycle: n.committed,
				fn: func(val []byte, _ uint64, ok bool) {
					if ok {
						n.reply(&req, val)
					}
				},
			}})
			return
		}
		// Lease active (or being acquired): defer to the end of the
		// next consensus cycle.
		after := n.started + 1
		n.deferredReads[after] = append(n.deferredReads[after], deferredRead{req: req, arrived: n.env.Now()})
		n.afterSubmit()
		return
	}

	// Write path: a write may only be ordered while its key's lease is
	// active. Acquire (or renew) the lease and hold the write until the
	// activation cycle commits into the lease table.
	if n.leaseActive(req.Key) {
		remaining := n.leases[req.Key] - n.committed
		if remaining <= 2 && !n.leaseRequested[req.Key] {
			n.requestLease(req.Key)
		}
		n.enqueue(req)
		n.afterSubmit()
		return
	}
	if !n.leaseRequested[req.Key] {
		n.requestLease(req.Key)
	}
	n.heldWrites[req.Key] = append(n.heldWrites[req.Key], heldWrite{req: req, arrived: n.env.Now()})
	n.afterSubmit()
}

func (n *Node) requestLease(key uint64) {
	n.leaseRequested[key] = true
	n.pendingLeases = append(n.pendingLeases, wire.LeaseRequest{Key: key, Node: n.cfg.Self})
	// A lease request must ride a proposal; make sure a cycle is coming.
	if n.started == n.committed {
		n.tryStartCycles(n.started+1, causeOther)
	}
}

// applyLeases activates the cycle's committed lease requests: every node
// applies the same set at the same boundary, so the lease table is
// replicated state.
func (n *Node) applyLeases(cyc uint64, reqs []wire.LeaseRequest) {
	if !n.cfg.WriteLeases {
		return
	}
	for _, l := range reqs {
		if l.Release {
			if until, ok := n.leases[l.Key]; ok && until > cyc {
				n.leases[l.Key] = cyc
			}
			delete(n.leaseHolder, l.Key)
			continue
		}
		if !n.view.Alive(l.Node) {
			// The requester died before its request committed (pipelined
			// cycles: the proposal's content was fixed before the Leave
			// landed). Granting would park the lease on a corpse for the
			// whole TTL with no Leave left to revoke it. The view is
			// replicated state, so every node skips the same grants.
			continue
		}
		until := cyc + uint64(n.cfg.LeaseTTL)
		if cur, ok := n.leases[l.Key]; !ok || until > cur {
			n.leases[l.Key] = until
			n.leaseHolder[l.Key] = l.Node
		}
		if l.Node == n.cfg.Self {
			delete(n.leaseRequested, l.Key)
			// Release writes held for this key into the next batch.
			if held := n.heldWrites[l.Key]; len(held) > 0 {
				delete(n.heldWrites, l.Key)
				for _, h := range held {
					n.accum.reqs = append(n.accum.reqs, h.req)
					n.accum.arrivals = append(n.accum.arrivals, h.arrived)
					n.accum.writes++
				}
				n.afterSubmit()
			}
		}
	}
	// Expire stale entries lazily to keep the table small.
	for key, until := range n.leases {
		if until <= n.committed {
			delete(n.leases, key)
			delete(n.leaseHolder, key)
		}
	}
	n.stats.leasesActive.Store(uint64(len(n.leases)))
}

// revokeLeases expires every lease whose holder left the membership in
// cycle cyc. A crashed holder can never use its lease again, but until
// the TTL ran out every other node would keep deferring reads on the
// key to cycle boundaries; revoking at the committed Leave restores the
// §7.2 local-read fast path. The lease is cut to cyc+2 rather than cyc:
// surviving nodes may hold writes enqueued while the lease was still
// active that commit a cycle or two later, and reads must stay deferred
// until those drain (the same two-cycle guard window the acquire path
// keeps by renewing at remaining <= 2). All nodes apply identical
// updates at identical boundaries, so the lease table stays replicated
// state.
func (n *Node) revokeLeases(cyc uint64, updates []wire.MemberUpdate) {
	if !n.cfg.WriteLeases || len(updates) == 0 {
		return
	}
	var revoke []uint64
	for _, u := range updates {
		if !u.Leave {
			continue
		}
		for key, holder := range n.leaseHolder {
			if holder == u.Node {
				revoke = append(revoke, key)
			}
		}
	}
	// Sorted application keeps per-run traces replayable bit-identically.
	sort.Slice(revoke, func(i, j int) bool { return revoke[i] < revoke[j] })
	for _, key := range revoke {
		if until, ok := n.leases[key]; ok && until > cyc+2 {
			n.leases[key] = cyc + 2
		}
		delete(n.leaseHolder, key)
	}
	n.stats.leasesActive.Store(uint64(len(n.leases)))
}

// Deferred reads parked behind a cycle's commit are collected into that
// cycle's applyPlan (see commit.go collectDeferredReads) and execute
// after every write the cycle ordered.
