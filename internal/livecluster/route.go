package livecluster

import (
	"encoding/binary"
	"sync"

	"canopus/internal/core"
	"canopus/internal/wire"
)

// sessKey identifies one in-flight session-scoped operation.
type sessKey struct{ session, seq uint64 }

// pendingEntry is where one admitted op's answer goes: a SubmitLocal
// done callback, one slot of a batch frame, or a single-op frame's
// response on cc.
type pendingEntry struct {
	cc   *Conn
	id   uint64                    // the frame's correlation ID
	done func(val []byte, ok bool) // SubmitLocal completion; nil for sockets
	agg  *batchAgg                 // the batch frame's aggregate; nil otherwise
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

// finishLocked answers one admitted op and retires it from the in-flight
// count: the one place an outcome becomes an answer, whether the op came
// as a single-op frame, a batch slot, a transaction or a SubmitLocal
// call. code is wire.CodeNone when the op was served — val is its result,
// nil for a miss — and the rejection's code otherwise, with val its
// reason; cycle is the commit cycle behind the answer, 0 when the node was
// not asked. Runs with the port mutex held. The value is encoded, copied
// or handed to done before this returns: it may alias store state that
// the next cycle's apply overwrites.
func (p *ClientPort) finishLocked(e pendingEntry, op wire.Op, code uint8, val []byte, cycle uint64) {
	// Retired only once answered: Stop and the socket reader poll the
	// count to decide when it is safe to close, so the answer must
	// already be in the output buffer.
	defer p.outstanding.Add(-1)
	if e.done != nil {
		if code != wire.CodeNone {
			val = nil
		}
		e.done(val, code == wire.CodeNone)
		return
	}
	status := wire.ClientStatusOK
	switch {
	case code != wire.CodeNone:
		status = wire.ClientStatusErr
	case val != nil:
	case op == wire.OpRead:
		status = wire.ClientStatusNil
	case op == wire.OpTxn:
		// A duplicate txn whose recorded result was displaced by a later
		// txn on the same session: the outcome is unknowable here, so say
		// that instead of guessing — the client must re-read state.
		status, val = wire.ClientStatusErr, []byte("txn result displaced")
	}
	agg := e.agg
	if agg == nil {
		e.cc.reply(&wire.ClientResponseV2{ID: e.id, Status: status, Code: code, Cycle: cycle, Val: val})
		return
	}
	if status == wire.ClientStatusOK && val != nil {
		// The slot may outlive this call (the frame encodes when its LAST
		// slot fills, possibly cycles later) — copy.
		val = append([]byte(nil), val...)
	}
	agg.results[e.idx] = wire.ClientResult{Status: status, Code: code, Val: val}
	agg.cycle = max(agg.cycle, cycle)
	agg.remaining--
	if agg.remaining == 0 {
		e.cc.reply(&wire.ClientResponseV2{ID: agg.id, Batch: true, Cycle: agg.cycle, Results: agg.results})
		freeBatchAgg(agg)
	}
}

// Committed is the port's share of the node's committed stream: it
// answers one Commit's session rejections and completion records into the
// owning connections' buffers (no socket writes on this path). It runs on
// the node's apply stage — the machine lock is NOT held, which is the
// point: reply materialization does not steal consensus time.
func (p *ClientPort) Committed(c *core.Commit) {
	if len(c.Replies) == 0 && len(c.Rejected) == 0 {
		return
	}
	cycle := p.node().Committed()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range c.Rejected {
		// Deterministically NOT applied: the replicated table does not
		// know the session.
		if e, ok := p.takeLocked(&c.Rejected[i]); ok {
			p.finishLocked(e, c.Rejected[i].Op, wire.CodeSessionExpired, []byte("session expired"), cycle)
		}
	}
	for i := range c.Replies {
		if e, ok := p.takeLocked(&c.Replies[i]); ok {
			p.finishLocked(e, c.Replies[i].Op, wire.CodeNone, c.Vals[i], cycle)
		}
	}
}

// takeLocked removes and returns the entry awaiting req's answer: by the
// replicated (session, seq) identity for a session op, by connection and
// seq otherwise. It reports false when nothing awaits it — a duplicate
// commit of an op already answered, or a departed connection (counted as
// a dropped reply). Runs with the port mutex held.
func (p *ClientPort) takeLocked(req *wire.Request) (pendingEntry, bool) {
	if wire.IsSessionID(req.Client) {
		k := sessKey{req.Client, req.Seq}
		e, ok := p.sessPending[k]
		delete(p.sessPending, k)
		return e, ok
	}
	cc, ok := p.conns[req.Client]
	if !ok {
		p.stats.dropped.Add(1)
		return pendingEntry{}, false
	}
	e, ok := cc.pending[req.Seq]
	delete(cc.pending, req.Seq)
	return e, ok
}

// dropSessPendingLocked retires every session-scoped entry bound to one
// (dead) connection. Runs with the port mutex held.
func (p *ClientPort) dropSessPendingLocked(cc *Conn) {
	for k, e := range p.sessPending {
		if e.cc == cc {
			delete(p.sessPending, k)
			p.outstanding.Add(-1)
		}
	}
}

// reject answers a whole frame without admitting it: a draining port, an
// oversized batch, a watch the port cannot serve. A batch frame's answer
// carries the code alone and no results.
func (p *ClientPort) reject(cc *Conn, q *wire.ClientRequestV2, code uint8, reason string) {
	cc.reply(&wire.ClientResponseV2{ID: q.ID, Batch: q.Batch, Status: wire.ClientStatusErr, Code: code, Val: []byte(reason)})
}

// submit dispatches one parsed group in frame order. WATCH and UNWATCH
// are handled right here on the read goroutine (the hub has its own lock;
// no machine turn involved), and each contiguous run between them goes to
// the node in one machine turn.
func (p *ClientPort) submit(cc *Conn, group []wire.ClientRequestV2) {
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
				p.reject(cc, &run[i], wire.CodeDraining, "draining")
			}
			continue
		}
		p.invoke(func() {
			for i := range run {
				p.submitFrame(cc, &run[i])
			}
		})
	}
}

// submitFrame hands one frame's ops to submitOp, inside the machine turn.
// A single-op frame is a list of one op, and so is a transaction: its
// body re-encodes into a fresh buffer (the parsed guards and ops alias the
// read loop's arena, which dies with the group) and rides consensus as one
// wire.OpTxn request. In a session frame the mutating ops carry session
// seqs q.Seq, q.Seq+1, ... in frame order (reads consume none), mirroring
// the client's assignment.
func (p *ClientPort) submitFrame(cc *Conn, q *wire.ClientRequestV2) {
	switch {
	case q.Register || q.Expire:
		p.sessionFrame(cc, q)
		return
	case q.Batch && len(q.Ops) > wire.MaxBatchOps:
		// One batch is one machine turn; an oversized one would
		// monopolize the node exactly as maxGroup exists to prevent for
		// pipelined singles.
		p.reject(cc, q, wire.CodeBadRequest, "batch too large")
		return
	}
	ops := q.Ops
	var txn [1]wire.ClientOp
	if q.Txn {
		txn[0] = wire.ClientOp{Op: wire.OpTxn, Val: wire.AppendTxn(nil, &wire.Txn{Guards: q.TxnGuards, Ops: q.TxnOps})}
		ops = txn[:]
	}
	var agg *batchAgg
	if q.Batch {
		agg = newBatchAgg(q.ID, len(ops))
	}
	seq := q.Seq
	for i := range ops {
		req := wire.Request{Op: ops[i].Op, Key: ops[i].Key, Val: ops[i].Val}
		if q.Session != 0 && req.Op.Mutates() {
			req.Client, req.Seq = q.Session, seq
			seq++
		}
		p.submitOp(pendingEntry{cc: cc, id: q.ID, agg: agg, idx: i}, req, q.Consistency, q.MinCycle)
	}
}

// maxMinCycleAhead bounds how far beyond the replica's committed cycle
// a Sequential read may wait. Legitimate read timestamps come from
// observed commits, so they can only lead a healthy replica by the
// pipelining depth plus transient lag; anything further is a bug or an
// attempt to park unbounded state server-side.
const maxMinCycleAhead = 1 << 16

// submitOp is the one way an op enters the node, whatever shape it came
// in: it admits the op into the in-flight count, and from then on
// finishLocked answers it, exactly once. A non-linearizable read is
// served from committed state and never starts a cycle. Everything else
// enters consensus: under the replicated (session, seq) identity req
// carries — a session mutation, whose retry the apply-path dedup table
// recognizes — or else under the connection's. Runs inside the machine
// turn.
func (p *ClientPort) submitOp(e pendingEntry, req wire.Request, c wire.Consistency, minCycle uint64) {
	p.admitRequest()
	if req.Op == wire.OpRead && c != wire.Linearizable {
		committed := p.node().Committed()
		if minCycle > committed+maxMinCycleAhead {
			p.mu.Lock()
			p.finishLocked(e, req.Op, wire.CodeBadRequest, []byte("minCycle too far ahead"), 0)
			p.mu.Unlock()
			return
		}
		// Whether this read will park is the apply stage's decision; the
		// committed watermark is the best (conservative) estimate, and the
		// answer settles the account using the same flag.
		deferred := minCycle > committed
		if deferred {
			p.deferredLocal.Add(1)
		}
		p.node().ReadLocal(req.Key, minCycle, func(val []byte, cycle uint64, ok bool) {
			code := wire.CodeNone
			if !ok {
				// Abandoned — node shutting down, crashed, or stalled
				// below the awaited cycle: the client goes elsewhere.
				code, val = wire.CodeDraining, []byte("unavailable")
			}
			p.mu.Lock()
			p.finishLocked(e, wire.OpRead, code, val, cycle)
			p.mu.Unlock()
			if deferred {
				p.deferredLocal.Add(-1)
			}
		})
		return
	}
	p.mu.Lock()
	code, reason := wire.CodeNone, ""
	switch {
	case p.node().Stalled():
		code, reason = wire.CodeStalled, "node stalled"
	case p.node().Joining():
		// Submit would drop it, and the client would wait out its timeout.
		code, reason = wire.CodeStalled, "node joining"
	case e.cc.pending == nil:
		// Torn down concurrently (Abort; Stop, for SubmitLocal).
		code, reason = wire.CodeDraining, "draining"
	case req.Client != 0:
		k := sessKey{req.Client, req.Seq}
		if old, ok := p.sessPending[k]; ok {
			// A retry looping back to this node before the first
			// submission's connection was torn down: its client has
			// given up on that connection.
			p.finishLocked(old, req.Op, wire.CodeDraining, []byte("superseded by a retry"), 0)
		}
		p.sessPending[k] = e
	default:
		e.cc.seq++
		req.Client, req.Seq = e.cc.id, e.cc.seq
		e.cc.pending[req.Seq] = e
	}
	if code != wire.CodeNone {
		p.finishLocked(e, req.Op, code, []byte(reason), 0)
	}
	p.mu.Unlock()
	if code == wire.CodeNone {
		p.node().Submit(req)
	}
}

// sessionFrame proposes a fresh replicated session, or the expiry of
// q.Session, and answers once it commits: a registration with the 8-byte
// session ID, an expiry with a plain OK, both as a mutation is answered.
// One that cannot commit here (stall, shutdown) is retryable elsewhere,
// exactly like a draining rejection. Runs inside the machine turn.
func (p *ClientPort) sessionFrame(cc *Conn, q *wire.ClientRequestV2) {
	e := pendingEntry{cc: cc, id: q.ID}
	p.admitRequest()
	answer := func(val []byte, ok bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if !ok {
			p.finishLocked(e, wire.OpWrite, wire.CodeDraining, []byte("session change not committed"), 0)
			return
		}
		p.finishLocked(e, wire.OpWrite, wire.CodeNone, val, p.node().Committed())
	}
	if q.Expire {
		p.node().ExpireSession(q.Session, func(ok bool) { answer(nil, ok) })
		return
	}
	p.node().RegisterSession(func(s uint64, ok bool) { answer(binary.LittleEndian.AppendUint64(nil, s), ok) })
}

// SubmitLocal injects one operation directly into the node — no socket,
// no frame encoding — while sharing the port's reply fan-out, drain
// rejection and outstanding accounting with socket clients. done is
// invoked on the node's apply stage (it must not block) with the read
// value and whether the operation was served; ok=false means the port
// is draining or the node has stalled. Cluster.Submit, which benchmark/
// drives, is its one caller.
func (p *ClientPort) SubmitLocal(op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if p.draining.Load() {
		done(nil, false)
		return
	}
	p.invoke(func() {
		p.submitOp(pendingEntry{cc: p.loc, done: done}, wire.Request{Op: op, Key: key, Val: val}, wire.Linearizable, 0)
	})
}
