// Package events is the node-local watch engine behind the event plane:
// it turns a node's committed stream — the hub is one of the node's
// core.Consumers — into per-watcher change feeds that are in commit-cycle
// order, exactly-once and gap-free.
//
// One Hub serves one node. Publish consumes each committed cycle's
// change events; Watch registers a consumer for a key, a key prefix or
// the whole keyspace. The hub keeps a bounded history of recent cycles
// so a watcher can resume from a cycle number after a reconnect or
// failover: registration replays the retained events from the resume
// point and atomically joins the live set, so the feed has no seam. A
// resume point that has already been evicted — or that the hub's first
// cycles skipped, because the node recovered or installed them without
// publishing — fails with ErrWatchOverflow: the consumer must re-read
// current state instead of trusting the feed.
//
// Delivery is synchronous and order-preserving: sinks run under the
// hub mutex, on whatever goroutine called Publish (the node's apply
// stage). A sink must therefore never block — it
// hands the events to a buffer or bounded queue and reports whether it
// still has room. A sink that reports no room is overflowed: the hub
// drops the watch and tells the sink, once, terminally. Slow consumers
// lose their watch, never their ordering.
package events

import (
	"errors"
	"sync"
	"sync/atomic"

	"canopus/internal/core"
	"canopus/internal/metrics"
	"canopus/internal/wire"
)

// ErrWatchOverflow reports a watch that cannot be (or stay) gap-free:
// the requested resume cycle was already evicted from the hub's
// history, or the consumer fell too far behind and was dropped. The
// consumer's only correct recovery is to re-read current state and
// start a fresh watch.
var ErrWatchOverflow = errors.New("events: watch overflowed")

// Default history bounds: how much committed change history a hub
// retains for resume, whichever limit is hit first.
const (
	DefaultHistoryCycles = 1024
	DefaultHistoryBytes  = 4 << 20
)

// Notification is one delivery to a watch sink: the matched events of
// one committed cycle, or the terminal overflow notice (no events).
type Notification struct {
	Cycle    uint64
	Events   []wire.Event // hub-owned for replay, caller-owned for live; copy to retain
	Overflow bool         // terminal: the watch is dead, no further calls
}

// Sink consumes one watch's notifications. It runs under the hub mutex
// and must not block; the return value reports whether the consumer
// still has room. Returning false overflows the watch: the hub removes
// it and makes one final call with Overflow set (whose return value is
// ignored). After an overflow call the sink is never invoked again.
type Sink func(n Notification) bool

// Spec selects the keys a watch observes.
type Spec struct {
	Key uint64
	// PrefixBits widens the selection: 64 matches exactly Key, 0
	// matches every key, n in between matches keys sharing Key's top n
	// bits.
	PrefixBits uint8
	// SinceCycle, when non-zero, replays retained history from that
	// cycle (inclusive) before going live. Zero starts live-only.
	SinceCycle uint64
}

func (s *Spec) matches(key uint64) bool {
	switch {
	case s.PrefixBits == 0:
		return true
	case s.PrefixBits >= 64:
		return key == s.Key
	default:
		shift := 64 - uint(s.PrefixBits)
		return key>>shift == s.Key>>shift
	}
}

type watcher struct {
	id   uint64
	spec Spec
	sink Sink
}

// cycleRecord is one retained non-empty cycle.
type cycleRecord struct {
	cycle uint64
	evs   []wire.Event
	bytes int
}

// Hub fans one node's committed change stream out to watchers. All
// methods are safe for concurrent use.
type Hub struct {
	mu       sync.Mutex
	nextID   uint64
	watchers map[uint64]*watcher

	// hist holds recent non-empty cycles, oldest first, bounded by
	// maxCycles/maxBytes. Empty cycles advance lastCycle but store
	// nothing: an absent cycle above evictedThrough is known empty.
	hist      []cycleRecord
	histBytes int
	maxCycles int
	maxBytes  int

	// evictedThrough is the highest cycle whose events may be lost:
	// resume is gap-free iff SinceCycle > evictedThrough.
	evictedThrough uint64
	lastCycle      uint64

	active    atomic.Int64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	overflows atomic.Uint64
}

// Options bounds a hub's history.
type Options struct {
	HistoryCycles int // retained non-empty cycles (default DefaultHistoryCycles)
	HistoryBytes  int // retained event bytes (default DefaultHistoryBytes)
}

// NewHub builds a hub with the given bounds.
func NewHub(o Options) *Hub {
	if o.HistoryCycles <= 0 {
		o.HistoryCycles = DefaultHistoryCycles
	}
	if o.HistoryBytes <= 0 {
		o.HistoryBytes = DefaultHistoryBytes
	}
	return &Hub{
		watchers:  make(map[uint64]*watcher),
		maxCycles: o.HistoryCycles,
		maxBytes:  o.HistoryBytes,
	}
}

// Committed publishes one Commit of the node's committed stream: the hub
// is a core.Consumer. A fast-path read reply (cycle 0) carries no events
// and is ignored like any cycle already seen.
func (h *Hub) Committed(c *core.Commit) { h.Publish(c.Cycle, c.Events) }

// Publish consumes one committed cycle's events, in commit order. Empty
// cycles must be published too: they advance the resume watermark.
// The evs slice need only be valid for the call, but the value bytes
// must never change afterwards: the history shares them instead of
// copying (core hands over the store's own copy of each written value,
// which is immutable). Live sinks run inside this call.
func (h *Hub) Publish(cycle uint64, evs []wire.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cycle <= h.lastCycle {
		return // replayed duplicate (e.g. recovery overlap); already seen
	}
	if cycle > h.lastCycle+1 {
		// Cycles committed outside this hub's view (snapshot install on a
		// joiner, crash-recovery replay): their events are unobtainable,
		// so a resume below here must fail instead of silently skipping —
		// and so must every live watch that resumed from below cycle (one
		// resuming at cycle or later needs none of the skipped cycles).
		h.evictedThrough = cycle - 1
		for _, w := range h.watchers {
			if w.spec.SinceCycle != 0 && w.spec.SinceCycle < cycle {
				h.killLocked(w)
			}
		}
	}
	h.lastCycle = cycle
	if len(evs) == 0 {
		return
	}
	h.retain(cycle, evs)

	// Deliver to every live watcher whose spec matches anything in the
	// cycle. Overflowed watchers are collected first: removing while
	// ranging the map is fine, but the terminal notice goes out after
	// the loop for clarity.
	var dead []*watcher
	var matched []wire.Event
	for _, w := range h.watchers {
		matched = matched[:0]
		for i := range evs {
			if w.spec.matches(evs[i].Key) {
				matched = append(matched, evs[i])
			}
		}
		if len(matched) == 0 {
			continue
		}
		if w.sink(Notification{Cycle: cycle, Events: matched}) {
			h.delivered.Add(uint64(len(matched)))
			continue
		}
		h.dropped.Add(uint64(len(matched)))
		dead = append(dead, w)
	}
	for _, w := range dead {
		h.killLocked(w)
	}
}

// retain adds one cycle's events to the history ring — the event list is
// copied, the immutable values are shared — and evicts from the front
// until the bounds hold.
func (h *Hub) retain(cycle uint64, evs []wire.Event) {
	rec := cycleRecord{cycle: cycle, evs: append([]wire.Event(nil), evs...)}
	for i := range evs {
		rec.bytes += 17 + len(evs[i].Val)
	}
	h.hist = append(h.hist, rec)
	h.histBytes += rec.bytes
	for len(h.hist) > h.maxCycles || (h.histBytes > h.maxBytes && len(h.hist) > 1) {
		front := h.hist[0]
		h.hist = h.hist[1:]
		h.histBytes -= front.bytes
		h.evictedThrough = front.cycle
	}
}

// Watch registers a consumer and returns its hub-assigned watch ID.
// With a non-zero SinceCycle the retained events from that cycle on
// are replayed through the sink before the watch joins the live set —
// both under the hub mutex, so the replay-to-live seam cannot drop or
// duplicate a cycle. Watch fails with ErrWatchOverflow when the resume
// point has been evicted (the feed could not be gap-free), and the
// sink is never called.
func (h *Hub) Watch(spec Spec, sink Sink) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if spec.SinceCycle != 0 {
		if spec.SinceCycle <= h.evictedThrough {
			return 0, ErrWatchOverflow
		}
		var matched []wire.Event
		for i := range h.hist {
			rec := &h.hist[i]
			if rec.cycle < spec.SinceCycle {
				continue
			}
			matched = matched[:0]
			for j := range rec.evs {
				if spec.matches(rec.evs[j].Key) {
					matched = append(matched, rec.evs[j])
				}
			}
			if len(matched) == 0 {
				continue
			}
			if !sink(Notification{Cycle: rec.cycle, Events: matched}) {
				// Could not even absorb the replay: dead on arrival. The
				// terminal notice still goes out so one code path handles
				// every overflow.
				h.dropped.Add(uint64(len(matched)))
				h.overflows.Add(1)
				sink(Notification{Overflow: true})
				return 0, ErrWatchOverflow
			}
			h.delivered.Add(uint64(len(matched)))
		}
	}
	h.nextID++
	w := &watcher{id: h.nextID, spec: spec, sink: sink}
	h.watchers[w.id] = w
	h.active.Add(1)
	return w.id, nil
}

// Cancel removes a watch. Idempotent; the sink is not notified (the
// consumer asked). Reports whether the watch was live.
func (h *Hub) Cancel(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.watchers[id]; !ok {
		return false
	}
	delete(h.watchers, id)
	h.active.Add(-1)
	return true
}

// killLocked overflows one watcher: remove, count, terminal notice.
func (h *Hub) killLocked(w *watcher) {
	if _, ok := h.watchers[w.id]; !ok {
		return
	}
	delete(h.watchers, w.id)
	h.active.Add(-1)
	h.overflows.Add(1)
	w.sink(Notification{Overflow: true})
}

// Active reports the number of live watchers.
func (h *Hub) Active() int { return int(h.active.Load()) }

// LastCycle reports the highest published cycle (the resume watermark
// a fresh watcher would continue from).
func (h *Hub) LastCycle() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastCycle
}

// RegisterMetrics exports the hub's instruments into reg under the
// canopus_events_* names with the given constant labels. Safe on a nil
// registry.
func (h *Hub) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.GaugeFunc("canopus_events_watchers_active",
		"Live watches registered on this node's event hub.",
		func() float64 { return float64(h.active.Load()) }, labels...)
	reg.CounterFunc("canopus_events_delivered_total",
		"Change events delivered to watch sinks (replay included).",
		h.delivered.Load, labels...)
	reg.CounterFunc("canopus_events_dropped_total",
		"Change events dropped because their watch overflowed.",
		h.dropped.Load, labels...)
	reg.CounterFunc("canopus_events_watch_overflows_total",
		"Watches killed for falling behind or resuming past history.",
		h.overflows.Load, labels...)
	reg.GaugeFunc("canopus_events_history_bytes",
		"Event bytes retained for watch resume.",
		func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(h.histBytes)
		}, labels...)
}
