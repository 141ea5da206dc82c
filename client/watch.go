package client

import (
	"context"

	"canopus/internal/wire"
)

// Event is one committed change observed by a watch: a put (OpPut, Val
// set) or a delete (OpDelete, Val nil).
type Event struct {
	Kind Kind
	Key  uint64
	Val  []byte
}

// WatchEvent is one committed cycle's matched changes, delivered in
// commit-cycle order with no gaps and no duplicates.
type WatchEvent struct {
	Cycle  uint64
	Events []Event
}

// Watch is a live change feed over a key or key prefix. Events arrive
// on the Events channel strictly in commit-cycle order; the client
// re-registers the watch transparently across connection failures and
// failovers, resuming from the last delivered cycle, so the feed stays
// exactly-once and gap-free. When that guarantee cannot be kept — the
// resume point aged out of the server's history, or the consumer fell
// behind its buffer — the channel closes and Err reports
// ErrWatchOverflow: re-read current state and start a fresh watch.
type Watch struct {
	cl   *Client
	id   uint64 // client-assigned; stable across reconnects
	key  uint64
	bits uint8

	ch chan WatchEvent

	// Guarded by the client's lock.
	cn       *link  // registration connection; events from others are stale
	inflight bool   // a (re)registration frame is in flight
	last     uint64 // highest delivered (or server-acked) cycle
	err      error
	closed   bool
}

// watchCfg collects WatchOption settings.
type watchCfg struct {
	bits   uint8
	since  uint64
	buffer int
}

// WatchOption tweaks one Watch registration.
type WatchOption func(*watchCfg)

// WithPrefix widens the watch to every key sharing the top bits of the
// watched key: 64 (the default) matches exactly the key, 0 matches the
// whole keyspace.
func WithPrefix(bits uint8) WatchOption { return func(c *watchCfg) { c.bits = bits } }

// WithSince resumes the feed from a commit cycle (inclusive): retained
// history from that cycle on is replayed before live events. The
// registration fails with ErrWatchOverflow when the cycle has aged out
// of the server's history. Zero (the default) starts live-only.
func WithSince(cycle uint64) WatchOption { return func(c *watchCfg) { c.since = cycle } }

// WithBuffer sets the Events channel capacity, in cycles (default 64).
// A consumer that falls a full buffer behind overflows the watch.
func WithBuffer(n int) WatchOption {
	return func(c *watchCfg) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// Watch registers a change feed over key and waits for the server's
// acknowledgement (which pins the resume watermark: every change
// committed after the returned registration is delivered or the watch
// overflows — never silently missed).
func (c *Client) Watch(ctx context.Context, key uint64, opts ...WatchOption) (*Watch, error) {
	cfg := watchCfg{bits: 64, buffer: 64}
	for _, o := range opts {
		o(&cfg)
	}
	w := &Watch{cl: c, key: key, bits: cfg.bits, ch: make(chan WatchEvent, cfg.buffer)}
	if cfg.since > 0 {
		w.last = cfg.since - 1
	}
	f := newFuture(c.cfg.RequestTimeout)
	c.mu.Lock()
	c.watchCtr++
	w.id = c.watchCtr
	if c.watches == nil {
		c.watches = make(map[uint64]*Watch)
	}
	c.watches[w.id] = w
	w.inflight = true
	c.start(&pendingOp{wreg: w, wsince: cfg.since, fn: f.complete})
	c.unlock()
	if _, err := f.Wait(ctx); err != nil {
		c.mu.Lock()
		c.failWatch(w, err)
		c.unlock()
		return nil, err
	}
	return w, nil
}

// Events is the watch's delivery channel. It closes when the watch dies
// (Close, client Close, or overflow) — check Err after it closes.
func (w *Watch) Events() <-chan WatchEvent { return w.ch }

// Err reports why the watch died (nil while live, or after Close).
func (w *Watch) Err() error { w.cl.mu.Lock(); defer w.cl.mu.Unlock(); return w.err }

// LastCycle reports the highest commit cycle the watch has delivered
// (or confirmed empty at registration) — the resume point a successor
// watch would continue from, exclusive.
func (w *Watch) LastCycle() uint64 { w.cl.mu.Lock(); defer w.cl.mu.Unlock(); return w.last }

// Close cancels the watch: the Events channel closes, Err stays nil,
// and the server-side registration is released best-effort (a lost
// cancel only costs the server a dead registration until the
// connection closes).
func (w *Watch) Close() error {
	m := &w.cl.machine
	m.mu.Lock()
	if !w.closed {
		m.failWatch(w, nil)
		m.unwatch(w.id)
	}
	m.unlock()
	return nil
}

// ackWatch completes one (re)registration round-trip: raise the resume
// watermark to the server's acknowledged cycle (replayed frames precede
// the ack on the wire, so everything at or below it has been delivered)
// and let future connection failures re-register again.
func (m *machine) ackWatch(w *Watch, res Result, err error) {
	if err != nil {
		m.failWatch(w, err)
		return
	}
	w.inflight = false
	w.last = max(w.last, res.Cycle)
}

// dispatchEvent routes one server-push EVENT frame to its watch. Only
// frames from the watch's current registration connection count: a
// retired predecessor still draining replies must not interleave its
// stale pushes with the new registration's replay. Within the live
// connection, cycles at or below the watermark are duplicates from a
// resume overlap and are dropped.
func (m *machine) dispatchEvent(l *link, resp *wire.ClientResponseV2) {
	w := m.watches[resp.ID]
	if w == nil || w.closed || w.cn != l || resp.Cycle <= w.last && !resp.Overflow {
		return
	}
	if resp.Overflow {
		m.failWatch(w, ErrWatchOverflow)
		return
	}
	evs := make([]Event, len(resp.Events))
	for i := range resp.Events {
		// Event values were copied out of the read buffer by the parser.
		evs[i] = Event{Kind: resp.Events[i].Op, Key: resp.Events[i].Key, Val: resp.Events[i].Val}
	}
	select {
	case w.ch <- WatchEvent{Cycle: resp.Cycle, Events: evs}:
		w.last = resp.Cycle
	default:
		// Consumer a full buffer behind: client-side overflow. Kill the
		// watch and release the server registration best-effort.
		m.failWatch(w, ErrWatchOverflow)
		m.unwatch(w.id)
	}
}

// rewatch re-registers every watch whose registration connection died
// (or drained after retirement), resuming each from its watermark.
// Watches with a registration frame still in flight are skipped — the
// frame's own failover retry re-registers them.
func (m *machine) rewatch(l *link) {
	for _, w := range m.watches {
		if w.closed || w.inflight || w.cn != l {
			continue
		}
		w.cn, w.inflight = nil, true
		m.start(&pendingOp{wreg: w, wsince: w.last + 1})
	}
}

// failWatch kills a watch: remove it from the registry, record why and
// close the channel. Idempotent.
func (m *machine) failWatch(w *Watch, err error) {
	delete(m.watches, w.id)
	if w.closed {
		return
	}
	w.closed, w.err = true, err
	close(w.ch)
}

// unwatch releases a server-side watch registration best-effort.
func (m *machine) unwatch(id uint64) {
	m.start(&pendingOp{unwatch: true, unwatchID: id})
}
