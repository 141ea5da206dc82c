package livecluster

import (
	"encoding/binary"
	"sync"

	"canopus/internal/core"
	"canopus/internal/wire"
)

// sessKey identifies one in-flight session-scoped operation.
type sessKey struct{ session, seq uint64 }

// sessEntry is the completion target of one session-scoped operation.
type sessEntry struct {
	cc *clientConn
	e  pendingEntry
}

// pendingEntry maps one submitted request back to its completion target:
// a connection frame (optionally one slot of a batch) or a local done
// callback.
type pendingEntry struct {
	id   uint64                    // correlation ID
	done func(val []byte, ok bool) // SubmitLocal completion; nil for sockets
	agg  *batchAgg                 // batch aggregation; nil for single ops
	idx  int                       // slot in agg.results
}

// batchAgg accumulates one batch frame's per-op results; the response
// is pushed when the last sub-op completes. Guarded by the port mutex,
// like the pending maps feeding it. Aggregates and their result slices
// are pooled — recycled the moment the response frame is encoded.
type batchAgg struct {
	id        uint64
	remaining int
	cycle     uint64
	results   []wire.ClientResult
}

// aggPool recycles batch aggregates across frames.
var aggPool = sync.Pool{New: func() any { return new(batchAgg) }}

func newBatchAgg(id uint64, n int) *batchAgg {
	agg := aggPool.Get().(*batchAgg)
	agg.id, agg.remaining, agg.cycle = id, n, 0
	if cap(agg.results) < n {
		agg.results = make([]wire.ClientResult, n)
	} else {
		agg.results = agg.results[:n]
		clear(agg.results)
	}
	return agg
}

func freeBatchAgg(agg *batchAgg) {
	clear(agg.results)
	aggPool.Put(agg)
}

// completeEntry delivers one completed consensus operation to its
// destination: local callback, batch slot, or an encoded single-op
// response. Runs with the port mutex held, on the node's apply stage. The
// value is
// encoded (or handed to the done callback) before returning: it may
// alias store state that the next cycle's apply overwrites.
func (p *ClientPort) completeEntry(cc *clientConn, entry pendingEntry, op wire.Op, val []byte) {
	cycle := p.node().Committed()
	switch {
	case entry.done != nil:
		entry.done(val, true)
	case entry.agg != nil:
		status := wire.ClientStatusOK
		if op == wire.OpRead && val == nil {
			status = wire.ClientStatusNil
		}
		p.completeBatchOp(cc, entry.agg, entry.idx, status, wire.CodeNone, val, cycle)
		return // completeBatchOp owns the outstanding decrement
	default:
		resp := wire.ClientResponseV2{ID: entry.id, Status: wire.ClientStatusOK, Cycle: cycle, Val: val}
		if op == wire.OpRead && val == nil {
			resp.Status = wire.ClientStatusNil
		}
		if op == wire.OpTxn && val == nil {
			// Duplicate txn whose recorded result was displaced by a later
			// txn on the same session: the outcome is unknowable here, so
			// say that instead of guessing — the client must re-read state.
			resp.Status, resp.Val = wire.ClientStatusErr, []byte("txn result displaced")
		}
		cc.reply(&resp)
	}
	p.outstanding.Add(-1)
}

// completeBatchOp fills one slot of a batch and pushes the aggregate
// response when the batch is complete. Runs with the port mutex held.
func (p *ClientPort) completeBatchOp(cc *clientConn, agg *batchAgg, idx int, status, code uint8, val []byte, cycle uint64) {
	if status == wire.ClientStatusOK && val != nil {
		// A batch slot may outlive this completion callback (the frame
		// encodes when its LAST slot fills, possibly cycles later), and
		// reply values are only valid during the callback — copy.
		v := make([]byte, len(val))
		copy(v, val)
		val = v
	}
	agg.results[idx] = wire.ClientResult{Status: status, Code: code, Val: val}
	if cycle > agg.cycle {
		agg.cycle = cycle
	}
	agg.remaining--
	p.outstanding.Add(-1)
	if agg.remaining == 0 {
		// Encode now, inside this call: result values may alias store
		// state (or stack-scoped error strings) that are only stable for
		// the duration of the completion callback.
		cc.reply(&wire.ClientResponseV2{ID: agg.id, Batch: true, Cycle: agg.cycle, Results: agg.results})
		freeBatchAgg(agg)
	}
}

// Committed is the port's share of the node's committed stream: it fans
// one Commit's session rejections and completion records out to the
// owning connections' buffers (no socket writes on this path). It runs on
// the node's apply stage — the machine lock is NOT held, which is the
// point: reply materialization does not steal consensus time.
func (p *ClientPort) Committed(c *core.Commit) {
	if len(c.Replies) == 0 && len(c.Rejected) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range c.Rejected {
		p.sessionExpiredLocked(&c.Rejected[i])
	}
	for i := range c.Replies {
		req := &c.Replies[i]
		if wire.IsSessionID(req.Client) {
			// Session-scoped op: route by the replicated (session, seq)
			// identity. A duplicate commit of a (session, seq) the client
			// already got answered simply finds no entry here.
			k := sessKey{req.Client, req.Seq}
			se, ok := p.sessPending[k]
			if !ok {
				continue
			}
			delete(p.sessPending, k)
			p.completeEntry(se.cc, se.e, req.Op, c.Vals[i])
			continue
		}
		cc, ok := p.conns[req.Client]
		if !ok {
			p.stats.dropped.Add(1)
			continue // connection gone; reply dropped
		}
		entry, ok := cc.pending[req.Seq]
		if !ok {
			continue
		}
		// Buffer the reply BEFORE retiring the pending entry: Stop and
		// teardown poll Outstanding()/pending to decide when it is safe
		// to set closing, so the response must already be in the output
		// buffer (the writer flushes it before closing) by the time this
		// request stops counting as outstanding.
		p.completeEntry(cc, entry, req.Op, c.Vals[i])
		delete(cc.pending, req.Seq)
	}
}

// sessionExpiredLocked answers one rejected session-scoped op: it was
// deterministically NOT applied; surface CodeSessionExpired instead of a
// completion. Runs with the port mutex held.
func (p *ClientPort) sessionExpiredLocked(req *wire.Request) {
	k := sessKey{req.Client, req.Seq}
	se, ok := p.sessPending[k]
	if !ok {
		return
	}
	delete(p.sessPending, k)
	switch {
	case se.e.done != nil:
		se.e.done(nil, false)
		p.outstanding.Add(-1)
	case se.e.agg != nil:
		p.completeBatchOp(se.cc, se.e.agg, se.e.idx, wire.ClientStatusErr, wire.CodeSessionExpired,
			[]byte("session expired"), p.node().Committed())
	default:
		se.cc.reply(&wire.ClientResponseV2{ID: se.e.id, Status: wire.ClientStatusErr,
			Code: wire.CodeSessionExpired, Cycle: p.node().Committed(), Val: []byte("session expired")})
		p.outstanding.Add(-1)
	}
}

// putSessPendingLocked registers one session-scoped submission, retiring
// any stale entry for the same (session, seq) — a retry looping back to
// this node before its first submission's bookkeeping was torn down.
// Runs with the port mutex held; owns the outstanding increment.
func (p *ClientPort) putSessPendingLocked(k sessKey, se sessEntry) {
	if old, ok := p.sessPending[k]; ok {
		p.outstanding.Add(-1)
		if old.e.done != nil {
			old.e.done(nil, false)
		}
	}
	p.sessPending[k] = se
	p.admitRequest()
}

// dropSessPendingLocked retires every session-scoped entry bound to one
// (dead) connection. Runs with the port mutex held.
func (p *ClientPort) dropSessPendingLocked(cc *clientConn) {
	for k, se := range p.sessPending {
		if se.cc == cc {
			delete(p.sessPending, k)
			p.outstanding.Add(-1)
			if se.e.done != nil {
				se.e.done(nil, false)
			}
		}
	}
}

// reject answers a request without consulting the node.
func (p *ClientPort) reject(cc *clientConn, id uint64, code uint8, reason string) {
	cc.reply(&wire.ClientResponseV2{ID: id, Status: wire.ClientStatusErr, Code: code, Val: []byte(reason)})
}

// rejectBatch answers an entire batch frame with a frame-level code.
func (p *ClientPort) rejectBatch(cc *clientConn, id uint64, code uint8) {
	cc.reply(&wire.ClientResponseV2{ID: id, Batch: true, Code: code})
}

// track registers one submission in the connection's pending map and
// returns its per-connection sequence number. It reports ok=false when
// the connection has been torn down concurrently.
func (p *ClientPort) track(cc *clientConn, entry pendingEntry) (uint64, bool) {
	p.mu.Lock()
	if cc.pending == nil {
		p.mu.Unlock()
		return 0, false
	}
	cc.seq++
	seq := cc.seq
	cc.pending[seq] = entry
	p.mu.Unlock()
	p.admitRequest()
	return seq, true
}

// submit dispatches one parsed group in frame order. WATCH and UNWATCH
// are handled right here on the read goroutine (the hub has its own lock;
// no machine turn involved), and each contiguous run between them goes to
// the node in one machine turn.
func (p *ClientPort) submit(cc *clientConn, group []wire.ClientRequestV2) {
	for len(group) > 0 {
		if q := &group[0]; q.Watch || q.Unwatch {
			if q.Watch {
				p.handleWatch(cc, q)
			} else {
				p.handleUnwatch(cc, q)
			}
			group = group[1:]
			continue
		}
		n := 1
		for n < len(group) && !group[n].Watch && !group[n].Unwatch {
			n++
		}
		run := group[:n]
		group = group[n:]
		if p.draining.Load() {
			for i := range run {
				if run[i].Batch {
					p.rejectBatch(cc, run[i].ID, wire.CodeDraining)
				} else {
					p.reject(cc, run[i].ID, wire.CodeDraining, "draining")
				}
			}
			continue
		}
		p.runner.Invoke(func() {
			for i := range run {
				if !p.submitFrame(cc, &run[i]) {
					return // torn down concurrently
				}
			}
		})
	}
}

// submitFrame hands one frame to the node. Linearizable operations (and
// all mutations) enter consensus; Sequential/Stale reads take the
// committed-state local path and never start a cycle. It reports false
// when the connection was torn down concurrently. Runs inside the machine
// turn.
func (p *ClientPort) submitFrame(cc *clientConn, q *wire.ClientRequestV2) bool {
	switch {
	case q.Register:
		p.registerSession(cc, q.ID)
		return true
	case q.Expire:
		p.expireSession(cc, q.ID, q.Session)
		return true
	case q.Txn:
		p.submitTxn(cc, q)
		return true
	case q.Batch:
		if len(q.Ops) > wire.MaxBatchOps {
			// One batch is one machine turn; an oversized one
			// would monopolize the node exactly as maxGroup
			// exists to prevent for pipelined singles.
			p.rejectBatch(cc, q.ID, wire.CodeBadRequest)
			return true
		}
		p.submitBatch(cc, q)
		return true
	}
	op := &q.Ops[0]
	if op.Op == wire.OpRead && q.Consistency != wire.Linearizable {
		if !p.minCycleSane(q.MinCycle) {
			p.reject(cc, q.ID, wire.CodeBadRequest, "minCycle too far ahead")
			return true
		}
		p.localRead(cc, q.ID, op.Key, q.MinCycle)
		return true
	}
	if p.node().Stalled() {
		p.reject(cc, q.ID, wire.CodeStalled, "node stalled")
		return true
	}
	if q.Session != 0 && op.Op.Mutates() {
		// Session-scoped mutation: the replicated (session, seq)
		// identity travels into consensus, so the apply-path
		// dedup table recognizes a retried committed op.
		p.mu.Lock()
		p.putSessPendingLocked(sessKey{q.Session, q.Seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID}})
		p.mu.Unlock()
		p.node().Submit(wire.Request{
			Client: q.Session, Seq: q.Seq, Op: op.Op, Key: op.Key, Val: op.Val,
		})
		return true
	}
	seq, ok := p.track(cc, pendingEntry{id: q.ID})
	if !ok {
		return false
	}
	p.node().Submit(wire.Request{
		Client: cc.id, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
	})
	return true
}

// registerSession proposes a fresh replicated session and answers with
// its 8-byte ID once the registration commits. Runs inside the machine
// turn.
func (p *ClientPort) registerSession(cc *clientConn, id uint64) {
	p.admitRequest()
	p.node().RegisterSession(func(session uint64, ok bool) {
		if !ok {
			// Could not commit here (stall / shutdown): retryable
			// elsewhere, exactly like a draining rejection.
			p.reject(cc, id, wire.CodeDraining, "cannot register session")
			p.outstanding.Add(-1)
			return
		}
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, session)
		cc.reply(&wire.ClientResponseV2{ID: id, Status: wire.ClientStatusOK,
			Cycle: p.node().Committed(), Val: val})
		p.outstanding.Add(-1)
	})
}

// expireSession proposes reclaiming a session and acknowledges once the
// expiry commits. Runs inside the machine turn.
func (p *ClientPort) expireSession(cc *clientConn, id, session uint64) {
	p.admitRequest()
	p.node().ExpireSession(session, func(ok bool) {
		if !ok {
			p.reject(cc, id, wire.CodeDraining, "cannot expire session")
			p.outstanding.Add(-1)
			return
		}
		cc.reply(&wire.ClientResponseV2{ID: id, Status: wire.ClientStatusOK, Cycle: p.node().Committed()})
		p.outstanding.Add(-1)
	})
}

// maxMinCycleAhead bounds how far beyond the replica's committed cycle
// a Sequential read may wait. Legitimate read timestamps come from
// observed commits, so they can only lead a healthy replica by the
// pipelining depth plus transient lag; anything further is a bug or an
// attempt to park unbounded state server-side.
const maxMinCycleAhead = 1 << 16

// minCycleSane validates a deferred read's target cycle against the
// bound.
func (p *ClientPort) minCycleSane(minCycle uint64) bool {
	return minCycle <= p.node().Committed()+maxMinCycleAhead
}

// trackedReadLocal runs one committed-state read with the outstanding /
// deferred-read accounting shared by the single-op and batch paths.
// complete runs with the port mutex NOT held, on the node's apply stage,
// with the op's status, value and serving cycle (status Err means the read was
// abandoned: node shutting down, crashed, or stalled below the awaited
// cycle) and is responsible for the matching outstanding decrement.
func (p *ClientPort) trackedReadLocal(key, minCycle uint64, complete func(status uint8, val []byte, cycle uint64)) {
	p.admitRequest()
	// Whether this read will park is the apply stage's decision; the
	// committed watermark is the best (conservative) estimate,
	// and the completion settles the account using the same flag.
	deferred := minCycle > p.node().Committed()
	if deferred {
		p.deferredLocal.Add(1)
	}
	p.node().ReadLocal(key, minCycle, func(val []byte, cycle uint64, ok bool) {
		status := wire.ClientStatusOK
		switch {
		case !ok:
			status, val = wire.ClientStatusErr, []byte("unavailable")
		case val == nil:
			status = wire.ClientStatusNil
		}
		complete(status, val, cycle)
		if deferred {
			p.deferredLocal.Add(-1)
		}
	})
}

// localRead serves one non-linearizable single-op read from committed
// state.
func (p *ClientPort) localRead(cc *clientConn, id uint64, key, minCycle uint64) {
	p.trackedReadLocal(key, minCycle, func(status uint8, val []byte, cycle uint64) {
		resp := wire.ClientResponseV2{ID: id, Status: status, Cycle: cycle, Val: val}
		if status == wire.ClientStatusErr {
			// Abandoned: tell the client to go elsewhere (retryable).
			resp.Code = wire.CodeDraining
		}
		cc.reply(&resp)
		p.outstanding.Add(-1)
	})
}

// submitBatch registers one multi-op frame: consensus sub-ops and
// local reads complete independently into the shared aggregate, and the
// response goes out when the last slot fills. In a session batch the
// frame's mutating ops carry session seqs q.Seq, q.Seq+1, ... in frame
// order (reads consume none), mirroring the client's assignment. Runs
// inside the machine turn.
func (p *ClientPort) submitBatch(cc *clientConn, q *wire.ClientRequestV2) {
	agg := newBatchAgg(q.ID, len(q.Ops))
	stalled := p.node().Stalled()
	sessSeq := q.Seq
	for i := range q.Ops {
		op := &q.Ops[i]
		if op.Op == wire.OpRead && q.Consistency != wire.Linearizable {
			if !p.minCycleSane(q.MinCycle) {
				p.admitRequest() // completeBatchOp undoes it
				p.mu.Lock()
				p.completeBatchOp(cc, agg, i, wire.ClientStatusErr, wire.CodeBadRequest, []byte("minCycle too far ahead"), 0)
				p.mu.Unlock()
				continue
			}
			idx := i
			p.trackedReadLocal(op.Key, q.MinCycle, func(status uint8, val []byte, cycle uint64) {
				code := wire.CodeNone
				if status == wire.ClientStatusErr {
					code = wire.CodeDraining
				}
				p.mu.Lock()
				p.completeBatchOp(cc, agg, idx, status, code, val, cycle)
				p.mu.Unlock()
			})
			continue
		}
		if stalled {
			p.admitRequest() // completeBatchOp undoes it; keeps one accounting path
			p.mu.Lock()
			p.completeBatchOp(cc, agg, i, wire.ClientStatusErr, wire.CodeStalled, []byte("node stalled"), 0)
			p.mu.Unlock()
			continue
		}
		if q.Session != 0 && op.Op.Mutates() {
			seq := sessSeq
			sessSeq++
			p.mu.Lock()
			p.putSessPendingLocked(sessKey{q.Session, seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID, agg: agg, idx: i}})
			p.mu.Unlock()
			p.node().Submit(wire.Request{
				Client: q.Session, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
			})
			continue
		}
		seq, ok := p.track(cc, pendingEntry{id: q.ID, agg: agg, idx: i})
		if !ok {
			return // torn down concurrently; teardown retired the accounting
		}
		p.node().Submit(wire.Request{
			Client: cc.id, Seq: seq, Op: op.Op, Key: op.Key, Val: op.Val,
		})
	}
}

// submitTxn hands one parsed transaction frame to the node: the body
// re-encodes into a fresh buffer (the parsed guards/ops alias the read
// loop's arena, which dies with the group) and rides consensus as a
// single wire.OpTxn request. With a session the replicated (session,
// seq) identity makes the txn exactly-once across failover, like any
// session mutation; without one it submits at-most-once under the
// connection identity. Runs inside the machine turn.
func (p *ClientPort) submitTxn(cc *clientConn, q *wire.ClientRequestV2) {
	if p.node().Stalled() {
		p.reject(cc, q.ID, wire.CodeStalled, "node stalled")
		return
	}
	body := wire.AppendTxn(nil, &wire.Txn{Guards: q.TxnGuards, Ops: q.TxnOps})
	if q.Session != 0 {
		p.mu.Lock()
		p.putSessPendingLocked(sessKey{q.Session, q.Seq}, sessEntry{cc: cc, e: pendingEntry{id: q.ID}})
		p.mu.Unlock()
		p.node().Submit(wire.Request{Client: q.Session, Seq: q.Seq, Op: wire.OpTxn, Val: body})
		return
	}
	seq, ok := p.track(cc, pendingEntry{id: q.ID})
	if !ok {
		return // torn down concurrently
	}
	p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: wire.OpTxn, Val: body})
}

// SubmitLocal injects one operation directly into the node — no socket,
// no frame encoding — while sharing the port's reply fan-out, drain
// rejection and outstanding accounting with socket clients. done is
// invoked on the node's apply stage (it must not block) with the read
// value and whether the operation was served; ok=false
// means the port is draining or the node has stalled. This is the
// backend path of the public canopus.Cluster interface.
func (p *ClientPort) SubmitLocal(op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if p.draining.Load() {
		done(nil, false)
		return
	}
	cc := p.loc
	p.runner.Invoke(func() {
		if p.node().Stalled() {
			done(nil, false)
			return
		}
		seq, ok := p.track(cc, pendingEntry{done: done})
		if !ok {
			done(nil, false)
			return
		}
		p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: op, Key: key, Val: val})
	})
}

// RegisterLocal proposes a fresh replicated session without a socket —
// the Cluster-interface twin of the register frame. done runs from
// the node's machine turn (it must not block) with the committed session
// ID; ok=false means the port is draining or the node cannot commit.
func (p *ClientPort) RegisterLocal(done func(id uint64, ok bool)) {
	if p.draining.Load() {
		done(0, false)
		return
	}
	p.runner.Invoke(func() {
		p.admitRequest()
		p.node().RegisterSession(func(id uint64, ok bool) {
			done(id, ok)
			p.outstanding.Add(-1)
		})
	})
}

// SubmitSessionLocal injects one session-scoped operation directly into
// the node, sharing the session reply routing with socket clients: a
// mutation whose (session, seq) already committed completes with the
// cached reply instead of applying twice. done runs from the node's
// execution context (see SubmitLocal); ok=false means draining, stalled,
// crashed — or the session expired.
func (p *ClientPort) SubmitSessionLocal(session, seq uint64, op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if p.draining.Load() {
		done(nil, false)
		return
	}
	cc := p.loc
	p.runner.Invoke(func() {
		if p.node().Stalled() {
			done(nil, false)
			return
		}
		if !op.Mutates() {
			// Reads are idempotent: no dedup identity needed.
			seq, ok := p.track(cc, pendingEntry{done: done})
			if !ok {
				done(nil, false)
				return
			}
			p.node().Submit(wire.Request{Client: cc.id, Seq: seq, Op: op, Key: key, Val: val})
			return
		}
		p.mu.Lock()
		if cc.pending == nil {
			p.mu.Unlock()
			done(nil, false)
			return
		}
		p.putSessPendingLocked(sessKey{session, seq}, sessEntry{cc: cc, e: pendingEntry{done: done}})
		p.mu.Unlock()
		p.node().Submit(wire.Request{Client: session, Seq: seq, Op: op, Key: key, Val: val})
	})
}
