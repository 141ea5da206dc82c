package client

import (
	"context"
	"fmt"

	"canopus/internal/wire"
)

// Txn is a guarded atomic multi-op transaction, built fluently:
//
//	res, err := cl.Txn(ctx, client.NewTxn().
//		IfAbsent(lockKey).
//		PutEphemeral(lockKey, me))
//
// All guards are evaluated against the committed state of one consensus
// cycle; if every guard passes, all ops apply atomically in that cycle
// (Committed), otherwise nothing applies and FailedGuard reports the
// first guard that did not hold. Because every Canopus replica commits
// cycles in the same total order, the verdict is identical everywhere.
//
// A Txn must not be mutated after it has been submitted: a failover
// retry re-encodes it from the same builder.
type Txn struct {
	guards []wire.TxnGuard
	ops    []wire.TxnOp
}

// NewTxn returns an empty transaction builder.
func NewTxn() *Txn { return &Txn{} }

// IfValueEq guards on key's current value being byte-equal to val.
// A nil val means "key is absent" (use IfAbsent for clarity).
func (t *Txn) IfValueEq(key uint64, val []byte) *Txn {
	t.guards = append(t.guards, wire.TxnGuard{Kind: wire.GuardValueEq, Key: key, Val: val})
	return t
}

// IfAbsent guards on key not existing.
func (t *Txn) IfAbsent(key uint64) *Txn {
	t.guards = append(t.guards, wire.TxnGuard{Kind: wire.GuardValueEq, Key: key})
	return t
}

// IfCycleLE guards on key's last-modified commit cycle being at most
// cycle (an optimistic-concurrency version check: "nobody has touched
// this key since I read it at cycle").
func (t *Txn) IfCycleLE(key, cycle uint64) *Txn {
	t.guards = append(t.guards, wire.TxnGuard{Kind: wire.GuardCycleLE, Key: key, Cycle: cycle})
	return t
}

// Put writes key = val when the transaction commits.
func (t *Txn) Put(key uint64, val []byte) *Txn {
	t.ops = append(t.ops, wire.TxnOp{Op: wire.OpWrite, Key: key, Val: val})
	return t
}

// PutEphemeral writes key = val bound to this client's replicated
// session: when the session expires (idle bound, EndSession, or the
// client vanishing), the key is deleted automatically in the expiring
// cycle. This is the auto-release mechanism behind locks and leases.
func (t *Txn) PutEphemeral(key uint64, val []byte) *Txn {
	t.ops = append(t.ops, wire.TxnOp{Op: wire.OpWrite, Key: key, Val: val, Ephemeral: true})
	return t
}

// Delete removes key when the transaction commits (a no-op if absent).
func (t *Txn) Delete(key uint64) *Txn {
	t.ops = append(t.ops, wire.TxnOp{Op: wire.OpDelete, Key: key})
	return t
}

// TxnResult is the committed-order verdict of a transaction.
type TxnResult struct {
	// Committed reports that every guard held and all ops applied.
	Committed bool
	// FailedGuard is the index (in build order) of the first guard that
	// did not hold; -1 when Committed.
	FailedGuard int
	// Cycle is the consensus cycle that decided the transaction.
	Cycle uint64
}

// TxnFuture is the asynchronous handle of a submitted transaction.
type TxnFuture struct{ f *Future }

// Wait blocks for the transaction's verdict.
func (tf *TxnFuture) Wait(ctx context.Context) (TxnResult, error) {
	res, err := tf.f.Wait(ctx)
	if err != nil {
		return TxnResult{}, err
	}
	wres, err := wire.ParseTxnResult(res.Val)
	if err != nil {
		return TxnResult{}, fmt.Errorf("%w: malformed txn verdict: %v", ErrRejected, err)
	}
	out := TxnResult{Committed: wres.Committed, FailedGuard: -1, Cycle: res.Cycle}
	if !wres.Committed {
		out.FailedGuard = int(wres.Failed)
	}
	return out, nil
}

// Txn submits t and waits for its verdict. Transactions always bind to
// the client's replicated session (registering one on first use): the
// (session, seq) identity makes the commit/abort verdict exactly-once
// across failover, exactly like Put.
func (c *Client) Txn(ctx context.Context, t *Txn) (TxnResult, error) {
	return c.TxnAsync(t).Wait(ctx)
}

// TxnAsync submits t and returns its future.
func (c *Client) TxnAsync(t *Txn) *TxnFuture {
	f := newFuture(c.cfg.RequestTimeout)
	switch {
	case len(t.guards) > wire.MaxTxnGuards:
		f.complete(Result{}, fmt.Errorf("%w: txn has %d guards (max %d)",
			ErrRejected, len(t.guards), wire.MaxTxnGuards))
	case len(t.ops) > wire.MaxTxnOps:
		f.complete(Result{}, fmt.Errorf("%w: txn has %d ops (max %d)",
			ErrRejected, len(t.ops), wire.MaxTxnOps))
	default:
		c.issue(&pendingOp{txn: t, fn: f.complete})
	}
	return &TxnFuture{f: f}
}
