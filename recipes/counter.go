package recipes

import (
	"context"
	"encoding/binary"
	"fmt"

	"canopus/client"
)

// Counter is a replicated signed counter over one key, updated by
// optimistic compare-and-swap: each Add re-reads the committed value
// and retries until its guarded transaction commits, so concurrent
// increments from any number of clients never lose updates. The value
// is stored as 8 big-endian bytes; an absent key counts as zero.
type Counter struct {
	cl  *client.Client
	key uint64
}

// NewCounter returns a counter over key, updated through cl.
func NewCounter(cl *client.Client, key uint64) *Counter {
	return &Counter{cl: cl, key: key}
}

func decodeCount(val []byte) (int64, error) {
	if val == nil {
		return 0, nil
	}
	if len(val) != 8 {
		return 0, fmt.Errorf("recipes: counter value is %d bytes, want 8", len(val))
	}
	return int64(binary.BigEndian.Uint64(val)), nil
}

func encodeCount(v int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(v))
}

// Add atomically adds delta and returns the resulting value. Add
// surfaces ErrUncertain as-is: an increment is not self-identifying, so
// a blind retry after an ambiguous failure could double-count — the
// caller decides whether the operation is re-issuable.
func (c *Counter) Add(ctx context.Context, delta int64) (int64, error) {
	for {
		cur, err := get(ctx, c.cl, c.key)
		if err != nil {
			return 0, err
		}
		n, err := decodeCount(cur)
		if err != nil {
			return 0, err
		}
		next := n + delta
		won, err := commit(ctx, c.cl, client.NewTxn().IfValueEq(c.key, cur).Put(c.key, encodeCount(next)))
		if err != nil {
			return 0, err
		}
		if won {
			return next, nil
		}
		// Lost the race: somebody committed between our read and our
		// guard's cycle. Re-read and retry.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
}

// Value returns the counter's committed value.
func (c *Counter) Value(ctx context.Context) (int64, error) {
	val, err := get(ctx, c.cl, c.key)
	if err != nil {
		return 0, err
	}
	return decodeCount(val)
}
