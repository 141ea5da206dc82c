package recipes

import (
	"context"

	"canopus/client"
)

// Barrier is a single-use rendezvous over one key: Arrive increments
// the key's counter and blocks until n parties have arrived. The count
// survives individual crashes (it is a plain, non-ephemeral value);
// each party must call Arrive exactly once.
type Barrier struct {
	c *Counter
	n int64
}

// NewBarrier returns a barrier at key awaiting n parties, arriving
// through cl. All parties must agree on key and n.
func NewBarrier(cl *client.Client, key uint64, n int) *Barrier {
	return &Barrier{c: NewCounter(cl, key), n: int64(n)}
}

// Arrive registers this party and blocks until all n have arrived or
// ctx ends.
func (bar *Barrier) Arrive(ctx context.Context) error {
	if got, err := bar.c.Add(ctx, 1); err != nil {
		return err
	} else if got >= bar.n {
		return nil
	}
	for {
		// Watch-before-read: an arrival committed after the watch is
		// armed wakes us, so the final count is never missed.
		w, err := bar.c.cl.Watch(ctx, bar.c.key)
		if err != nil {
			return err
		}
		got, err := bar.c.Value(ctx)
		if err == nil && got >= bar.n {
			w.Close()
			return nil
		}
		if err == nil {
			err = wait(ctx, w)
		}
		w.Close()
		if err != nil {
			return err
		}
	}
}
