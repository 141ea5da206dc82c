// Package chunk is a bump allocator: it hands out the elements of arrays
// it allocates and never reuses, so an array lives as long as the
// longest-lived thing carved from it, and with it everything its other
// elements point to. Each caller decides what may share one.
package chunk

// Of carves Ts out of its current array. The zero value is ready to use;
// a nil *Of gives every call an allocation of its own.
type Of[T any] struct{ free []T }

// Take returns an empty slice with room for n elements: from the current
// array when it has the room, from a new one of size elements when n is at
// most a quarter of size, and from an allocation of its own otherwise.
func (c *Of[T]) Take(n, size int) []T {
	if c == nil || n > size/4 {
		return make([]T, 0, n)
	}
	if len(c.free) < n {
		c.free = make([]T, size)
	}
	s := c.free[:0:n]
	c.free = c.free[n:]
	return s
}

// Next returns a zero T, an element of an array of size (at least 4)
// elements.
func (c *Of[T]) Next(size int) *T { return &c.Take(1, size)[:1][0] }
