package core

import (
	"bytes"

	"canopus/internal/wire"
)

// Multi-op transactions. A transaction travels the ordinary consensus
// path as one wire.Request with Op == wire.OpTxn whose Val carries the
// encoded body (guards + ops), so it rides batches, proposals, and the
// session dedup table like any other mutation — exactly-once via
// (session, seq). Guards evaluate at APPLY time against the store state
// every prior committed operation produced, which is identical on every
// replica because plans apply strictly in cycle order, each front to
// back on one goroutine. A transaction either applies all
// of its ops inside its committed position or none of them: an aborted
// transaction leaves the store byte-identical on every replica.

// applyTxnOp evaluates one transaction op of an applying plan: duplicate
// txns resolve their cached result, fresh ones evaluate
// guards, apply ops when committed, and record their result in the
// session table (compaction-surviving, so a failover retry learns the
// original outcome).
func (n *Node) applyTxnOp(p *applyPlan, op *planOp) {
	req := op.req
	if op.dup {
		// The original's apply already completed (earlier plan, strict
		// cycle order): return its recorded result. A nil here means the
		// result was displaced by a later txn on the same session — the
		// serving layer surfaces an explicit error rather than guessing.
		if op.comp >= 0 {
			p.Vals[op.comp] = n.sessions.CachedTxn(req.Client, req.Seq)
		}
		return
	}

	res := wire.TxnResult{Committed: false, Failed: 0}
	t, err := wire.ParseTxn(req.Val)
	out := txnOutcome{}
	if err == nil {
		res.Committed = true
		res.Failed = wire.TxnFailedNone
		for i := range t.Guards {
			if !n.txnGuardHolds(&t.Guards[i]) {
				res.Committed = false
				res.Failed = uint32(i)
				break
			}
		}
		if res.Committed {
			out.committed = true
			out.start = int32(len(p.txnEvents))
			out.count = int32(len(t.Ops))
			treq := wire.Request{Client: req.Client, Seq: req.Seq}
			for i := range t.Ops {
				top := &t.Ops[i]
				owner := uint64(0)
				if top.Ephemeral {
					owner = req.Client
				}
				treq.Op, treq.Key, treq.Val = top.Op, top.Key, top.Val
				// The event carries the store's copy, not the decode scratch.
				val := n.sm.ApplyWriteAt(&treq, p.Cycle, owner)
				p.txnEvents = append(p.txnEvents, wire.Event{Op: top.Op, Key: top.Key, Val: val})
			}
		}
	}
	p.outcomes = append(p.outcomes, out)
	if out.committed {
		n.stats.txnCommits.Add(1)
	} else {
		n.stats.txnAborts.Add(1)
	}

	resBytes := wire.AppendTxnResult(nil, res)
	if wire.IsSessionID(req.Client) {
		n.sessions.RecordTxn(req.Client, req.Seq, resBytes)
	}
	if op.comp >= 0 {
		p.Vals[op.comp] = resBytes
	}
}

// txnGuardHolds evaluates one guard against applied state. A nil
// ValueEq value asserts absence; an empty value asserts a present empty
// value — kvstore preserves the distinction.
func (n *Node) txnGuardHolds(g *wire.TxnGuard) bool {
	switch g.Kind {
	case wire.GuardValueEq:
		cur := n.sm.Read(g.Key)
		if g.Val == nil {
			return cur == nil
		}
		return cur != nil && bytes.Equal(cur, g.Val)
	case wire.GuardCycleLE:
		return n.sm.ModCycle(g.Key) <= g.Cycle
	}
	return false // unknown guard kinds never pass (and never decode)
}

// applyExpiry is the plan's apply tail: every session the cycle's
// boundary expired has its ephemeral keys deleted, in sorted key order
// per owner, on every replica identically. Runs after all plan ops.
func (n *Node) applyExpiry(p *applyPlan) {
	if len(p.expired) == 0 || n.sm == nil {
		return
	}
	for _, owner := range p.expired {
		p.expiredKeys = append(p.expiredKeys, n.sm.ExpireOwned(owner)...)
	}
}

// buildPlanEvents renders the cycle's key-change event list in
// committed total order: plan ops front to back (plain mutations
// directly, transactions from their recorded outcomes), then the
// expiry tail's deletions. Event values are the state machine's own
// stored copies (planOp.stored), which outlive the plan.
func (n *Node) buildPlanEvents(p *applyPlan) {
	oi := 0
	for i := range p.ops {
		op := &p.ops[i]
		switch op.req.Op {
		case wire.OpWrite:
			p.Events = append(p.Events, wire.Event{Op: wire.OpWrite, Key: op.req.Key, Val: op.stored})
		case wire.OpDelete:
			p.Events = append(p.Events, wire.Event{Op: wire.OpDelete, Key: op.req.Key})
		case wire.OpTxn:
			if op.dup {
				continue
			}
			out := p.outcomes[oi]
			oi++
			if out.committed {
				p.Events = append(p.Events, p.txnEvents[out.start:out.start+out.count]...)
			}
		}
	}
	for _, k := range p.expiredKeys {
		p.Events = append(p.Events, wire.Event{Op: wire.OpDelete, Key: k})
	}
}
