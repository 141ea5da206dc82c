package livecluster

import (
	"canopus/internal/events"
	"canopus/internal/wire"
)

// watchOutBudget bounds the unflushed response bytes a connection may
// accumulate before its watches count as overflowed: a client that
// stops reading loses its watches, not the server its memory.
const watchOutBudget = 1 << 20

// handleWatch registers one watch on the node's event hub. It runs on
// the connection's read goroutine, never inside a machine turn: the hub
// has its own lock, so registration — including the history replay for
// a resuming watch — costs consensus nothing. Replayed EVENT frames are
// buffered before the OK ack is, so on the wire the client sees replay,
// then ack, then live pushes, with no seam.
//
// A WATCH reusing a live client watch ID replaces that registration —
// the reconnect-and-resume path — and the ack's Cycle is the hub's
// watermark at registration (never below the cycle the node recovered
// to, which the hub does not publish): the feed is complete from that
// cycle (exclusive) on, which is exactly the resume point a client should
// carry into a failover.
func (p *ClientPort) handleWatch(cc *clientConn, q *wire.ClientRequestV2) {
	if p.hub() == nil {
		p.reject(cc, q, wire.CodeBadRequest, "watches not enabled")
		return
	}
	if p.draining.Load() {
		p.reject(cc, q, wire.CodeDraining, "draining")
		return
	}
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		return // torn down concurrently
	}
	if cc.watches == nil {
		cc.watches = make(map[uint64]uint64)
	}
	old, replaced := cc.watches[q.WatchID]
	delete(cc.watches, q.WatchID)
	p.mu.Unlock()
	if replaced {
		p.hub().Cancel(old)
	}
	spec := events.Spec{Key: q.WatchKey, PrefixBits: q.PrefixBits, SinceCycle: q.SinceCycle}
	hubID, err := p.hub().Watch(spec, p.watchSink(cc, q.WatchID))
	if err != nil {
		// Resume point already evicted (or the replay itself overflowed):
		// the feed cannot be gap-free. The client must re-read state.
		p.reject(cc, q, wire.CodeWatchOverflow, "watch resume point evicted")
		return
	}
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		p.hub().Cancel(hubID)
		return
	}
	cc.watches[q.WatchID] = hubID
	p.mu.Unlock()
	cc.reply(&wire.ClientResponseV2{ID: q.ID, Status: wire.ClientStatusOK,
		Cycle: max(p.hub().LastCycle(), p.bound.Load())})
}

// handleUnwatch cancels one watch. Idempotent — cancelling an unknown
// or already-overflowed watch still acks, so client and server never
// deadlock over who forgot whom. Runs on the read goroutine.
func (p *ClientPort) handleUnwatch(cc *clientConn, q *wire.ClientRequestV2) {
	p.mu.Lock()
	hubID, ok := cc.watches[q.WatchID]
	delete(cc.watches, q.WatchID)
	p.mu.Unlock()
	if ok && p.hub() != nil {
		p.hub().Cancel(hubID)
	}
	cc.reply(&wire.ClientResponseV2{ID: q.ID, Status: wire.ClientStatusOK})
}

// watchSink builds the hub sink feeding one connection's watch: each
// notification encodes as a server-push EVENT frame (ID = the client's
// watch ID) into the connection's output buffer. It runs under the hub
// mutex on the node's apply stage, so it must not block and must NOT take
// the port mutex (the submit paths hold it while calling into the hub).
// The buffer budget turns a non-reading client into a watch overflow;
// the terminal overflow notice itself bypasses the budget.
func (p *ClientPort) watchSink(cc *clientConn, watchID uint64) events.Sink {
	return func(n events.Notification) bool {
		return cc.pushBudget(&wire.ClientResponseV2{ID: watchID, Event: true, Cycle: n.Cycle,
			Overflow: n.Overflow, Events: n.Events}, watchOutBudget, n.Overflow)
	}
}

// dropWatches cancels every hub registration of one connection:
// collect under the port mutex, cancel outside it (port mutex → hub
// mutex is the allowed order, but shorter critical sections win).
func (p *ClientPort) dropWatches(cc *clientConn) {
	if p.hub() == nil {
		return
	}
	p.mu.Lock()
	ids := make([]uint64, 0, len(cc.watches))
	for _, hubID := range cc.watches {
		ids = append(ids, hubID)
	}
	cc.watches = nil
	p.mu.Unlock()
	for _, id := range ids {
		p.hub().Cancel(id)
	}
}
