package recipes

import (
	"bytes"
	"context"
	"errors"

	"canopus/client"
)

// Election is leader election over one key: the leader's name sits in
// the key as an ephemeral value bound to its session. At most one
// candidate leads at any committed cycle (the key holds one value);
// a crashed leader is deposed automatically by session expiry, and
// every waiting candidate races for the vacancy through the same
// watch-then-CAS pattern as Mutex.
type Election struct {
	cl   *client.Client
	key  uint64
	name []byte
}

// NewElection returns a candidate handle for the election at key,
// campaigning under cl's replicated session. name identifies this
// candidate to observers (Leader returns it) and MUST be unique among
// candidates — reusing a name would let one candidate resign another's
// leadership.
func NewElection(cl *client.Client, key uint64, name []byte) *Election {
	return &Election{cl: cl, key: key, name: append([]byte(nil), name...)}
}

// Campaign blocks until this candidate is elected or ctx ends.
func (e *Election) Campaign(ctx context.Context) error {
	for {
		w, err := e.cl.Watch(ctx, e.key)
		if err != nil {
			return err
		}
		won, err := commit(ctx, e.cl, acquireTxn(e.key, e.name))
		if err != nil && !errors.Is(err, ErrUncertain) {
			w.Close()
			return err
		}
		if err == nil && won {
			w.Close()
			return nil
		}
		// Lost — or (on ErrUncertain) possibly elected by an earlier
		// retry of our own transaction; the name in the key settles it.
		val, gerr := get(ctx, e.cl, e.key)
		if gerr != nil {
			w.Close()
			return gerr
		}
		if bytes.Equal(val, e.name) {
			w.Close()
			return nil // already leading
		}
		if val != nil {
			err = wait(ctx, w)
		} else {
			err = ctx.Err() // vacant: retry the CAS immediately
		}
		w.Close()
		if err != nil {
			return err
		}
	}
}

// Leader returns the current leader's name, or nil when the post is
// vacant.
func (e *Election) Leader(ctx context.Context) ([]byte, error) {
	return get(ctx, e.cl, e.key)
}

// IsLeader reports whether this candidate currently leads.
func (e *Election) IsLeader(ctx context.Context) (bool, error) {
	val, err := get(ctx, e.cl, e.key)
	if err != nil {
		return false, err
	}
	return bytes.Equal(val, e.name), nil
}

// Resign vacates leadership. ErrNotHeld means this candidate was not
// the leader (never elected, already resigned, or deposed by expiry).
func (e *Election) Resign(ctx context.Context) error {
	for {
		resigned, err := commit(ctx, e.cl, releaseTxn(e.key, e.name))
		if errors.Is(err, ErrUncertain) {
			// An earlier retry of this delete may have committed; if the
			// key no longer names us, the resignation happened.
			val, gerr := get(ctx, e.cl, e.key)
			if gerr != nil {
				return gerr
			}
			if bytes.Equal(val, e.name) {
				continue
			}
			return nil
		}
		if err != nil {
			return err
		}
		if !resigned {
			return ErrNotHeld
		}
		return nil
	}
}
