// Package recipes builds classic distributed-coordination primitives —
// mutual exclusion, leader election, counters and barriers — on the
// Canopus event plane: guarded multi-op transactions, ordered change
// watches, and replicated client sessions.
//
// Every recipe follows the same correctness pattern the globally
// committed cycle order makes cheap:
//
//   - acquire/update is one guarded transaction (compare-and-swap
//     against the committed state of a single cycle), so exactly one
//     contender wins no matter how many race;
//   - waiting is watch-before-retry: a watch on the contended key is
//     registered *before* the transaction, so a release committed in
//     any later cycle is guaranteed to wake the waiter — no polling, no
//     lost-wakeup window;
//   - ownership is written as an ephemeral value bound to the owner's
//     replicated session, so a crashed owner releases automatically
//     when its session idle-expires through consensus.
//
// Recipes run on a canopus/client.Client, the one client surface of a
// deployment. Transactions ride the client's replicated session
// (exactly-once across failover) and watches are the client's
// resume-by-cycle watches, so recipes inherit the client's failover
// transparency.
package recipes

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"canopus/client"
)

// ErrNotHeld reports a release (Unlock, Resign) by a caller that does
// not hold the lock or leadership — it was never acquired, was already
// released, or was lost to session expiry.
var ErrNotHeld = errors.New("recipes: not held")

// ErrUncertain reports a transaction whose fate is unknowable: the final
// submission was rejected, but an earlier one may have committed before
// the client's session expired (the dedup state that could tell is
// gone). Recipes whose transactions are self-identifying — a lock
// acquire writes the holder's token, so re-reading the key settles what
// happened — recover from this internally. Recipes that are not
// (Counter.Add: a retry after a silent commit would double-count)
// surface it and let the caller decide.
var ErrUncertain = errors.New("recipes: transaction outcome uncertain")

// acquireTxn claims a vacant key for val, bound to the client's session.
func acquireTxn(key uint64, val []byte) *client.Txn {
	return client.NewTxn().IfAbsent(key).PutEphemeral(key, val)
}

// releaseTxn deletes key if it still holds val.
func releaseTxn(key uint64, val []byte) *client.Txn {
	return client.NewTxn().IfValueEq(key, val).Delete(key)
}

// get returns key's committed value, nil when the key is absent.
func get(ctx context.Context, cl *client.Client, key uint64) ([]byte, error) {
	val, err := cl.Get(ctx, key)
	if errors.Is(err, client.ErrNotFound) {
		return nil, nil
	}
	return val, err
}

// commit runs t under the client's replicated session and reports
// whether every guard held.
func commit(ctx context.Context, cl *client.Client, t *client.Txn) (bool, error) {
	res, err := cl.Txn(ctx, t)
	if errors.Is(err, client.ErrSessionExpired) {
		// The final submission was not applied, but an earlier failover
		// retry may have committed under the now-expired session. Map to
		// the recipes' uncertainty sentinel; self-identifying recipes
		// re-read the key and settle it.
		return false, fmt.Errorf("%w: %v", ErrUncertain, err)
	}
	if err != nil {
		return false, err
	}
	return res.Committed, nil
}

// sessionToken returns a stable, deployment-unique byte identity derived
// from the client's replicated session, registering the session first
// if needed. Recipes write it into lock keys as the fencing value.
func sessionToken(ctx context.Context, cl *client.Client) ([]byte, error) {
	sess, err := cl.EnsureSession(ctx)
	if err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint64(nil, sess), nil
}

// wait blocks until w's key changes in a cycle committed after the watch
// was armed, the watch dies, or ctx ends. A nil return means "re-examine
// the key"; it deliberately does not say what changed. Overflow just
// means "you fell behind": the caller re-reads committed state before
// deciding anything, so it counts as a wake-up.
func wait(ctx context.Context, w *client.Watch) error {
	select {
	case _, ok := <-w.Events():
		if ok {
			return nil
		}
		if err := w.Err(); err != nil && !errors.Is(err, client.ErrWatchOverflow) {
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
