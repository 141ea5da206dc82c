package recipes

import (
	"bytes"
	"context"
	"errors"
	"sync"

	"canopus/client"
)

// Mutex is a distributed mutual-exclusion lock over one key. Acquiring
// writes the holder's session token as an ephemeral value: exactly one
// contender's compare-and-swap commits per vacancy, and a holder that
// crashes (or loses its session) releases automatically when the
// session idle-expires through consensus — the waiters' watches fire on
// the expiry cycle's delete and the lock is re-acquired without any
// operator action.
//
// A Mutex value is not tied to a goroutine; the usual discipline
// applies (the locker unlocks). Lock is idempotent while held by the
// same session.
type Mutex struct {
	cl  *client.Client
	key uint64

	mu  sync.Mutex
	tok []byte // token written by the last successful acquisition
}

// NewMutex returns a mutex over key, held by cl's replicated session.
// Distinct keys are independent locks; all contenders must agree on the
// key.
func NewMutex(cl *client.Client, key uint64) *Mutex {
	return &Mutex{cl: cl, key: key}
}

// setToken records the value this handle wrote into the key, so Unlock
// guards on what was actually written even if the client's session
// (and thus its token) was transparently replaced mid-acquisition.
func (m *Mutex) setToken(tok []byte) {
	m.mu.Lock()
	m.tok = append(m.tok[:0], tok...)
	m.mu.Unlock()
}

func (m *Mutex) token(ctx context.Context) ([]byte, error) {
	m.mu.Lock()
	tok := append([]byte(nil), m.tok...)
	m.mu.Unlock()
	if tok != nil {
		return tok, nil
	}
	return sessionToken(ctx, m.cl)
}

// Lock blocks until the client's session holds the lock or ctx ends.
func (m *Mutex) Lock(ctx context.Context) error {
	for {
		// Re-read the token every attempt: if the client's session
		// idle-expired while we waited, the replacement session is the
		// identity that must own the acquisition.
		token, err := sessionToken(ctx, m.cl)
		if err != nil {
			return err
		}
		// Arm the watch before trying: a release committed in any cycle
		// after this point is guaranteed to wake us.
		w, err := m.cl.Watch(ctx, m.key)
		if err != nil {
			return err
		}
		won, err := commit(ctx, m.cl, acquireTxn(m.key, token))
		if err != nil && !errors.Is(err, ErrUncertain) {
			w.Close()
			return err
		}
		if err == nil && won {
			w.Close()
			m.setToken(token)
			return nil
		}
		// Held — or (on ErrUncertain) possibly acquired by an earlier
		// retry of our own transaction. The key's value settles it.
		val, gerr := get(ctx, m.cl, m.key)
		if gerr != nil {
			w.Close()
			return gerr
		}
		if bytes.Equal(val, token) {
			w.Close()
			m.setToken(token)
			return nil
		}
		if val != nil {
			// Someone else holds it; sleep until the key changes.
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

// TryLock attempts one acquisition without waiting. It returns true
// when the client's session now holds (or already held) the lock.
func (m *Mutex) TryLock(ctx context.Context) (bool, error) {
	token, err := sessionToken(ctx, m.cl)
	if err != nil {
		return false, err
	}
	won, err := commit(ctx, m.cl, acquireTxn(m.key, token))
	if err != nil && !errors.Is(err, ErrUncertain) {
		return false, err
	}
	if err == nil && won {
		m.setToken(token)
		return true, nil
	}
	val, gerr := get(ctx, m.cl, m.key)
	if gerr != nil {
		return false, gerr
	}
	if bytes.Equal(val, token) {
		m.setToken(token)
		return true, nil
	}
	return false, nil
}

// Unlock releases the lock. It fails with ErrNotHeld when this handle
// does not hold it — never touching another contender's acquisition.
func (m *Mutex) Unlock(ctx context.Context) error {
	token, err := m.token(ctx)
	if err != nil {
		return err
	}
	for {
		released, err := commit(ctx, m.cl, releaseTxn(m.key, token))
		if errors.Is(err, ErrUncertain) {
			// An earlier retry of this delete may have committed. If the
			// key no longer carries our token, the release happened (or
			// expiry beat us to it) — either way the lock is not ours.
			val, gerr := get(ctx, m.cl, m.key)
			if gerr != nil {
				return gerr
			}
			if bytes.Equal(val, token) {
				continue // still held by us: the delete did not commit
			}
			return nil
		}
		if err != nil {
			return err
		}
		if !released {
			return ErrNotHeld
		}
		return nil
	}
}
