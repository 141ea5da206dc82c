package client

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"canopus/internal/wire"
)

// pendingOp is one in-flight operation: the request (for re-encoding on
// failover), its completion callback, the exactly-once retry latch, and
// — for mutations — the replicated session identity assigned at first
// send and kept across retries (the server-side dedup key).
type pendingOp struct {
	op        Op
	batch     []Op   // non-nil: encode as a multi-op frame
	txn       *Txn   // non-nil: encode as a v3 transaction frame
	wreg      *Watch // non-nil: v3 watch-registration frame
	wsince    uint64 // wreg: SinceCycle for this (re)registration
	unwatch   bool   // v3 watch-cancel frame (unwatchID carries the watch)
	unwatchID uint64
	register  bool // session-register frame
	expire    bool // session-expire frame
	ensure    bool // EnsureSession sentinel: parks for registration, never hits the wire
	session   uint64
	seq       uint64 // first mutating op's session seq
	fn        func(Result, error)
	okFn      func(ok bool) // success-only completion (AsyncOk); fn is nil
	retried   bool
}

// okOpPool recycles the pendingOps of AsyncOk: one is taken per operation
// and handed back by complete.
var okOpPool = sync.Pool{New: func() any { return new(pendingOp) }}

// complete delivers the operation's outcome to whichever completion
// shape it carries. It ends p's life: an AsyncOk operation goes back to
// okOpPool before its callback runs (the callback may issue the next
// operation and be handed this very struct), so a caller must not touch p
// after complete, and whoever holds p — a connection's pending map, the
// session-registration queue, a retry in flight — holds it alone.
func (p *pendingOp) complete(res Result, err error) {
	if okFn := p.okFn; okFn != nil {
		*p = pendingOp{}
		okOpPool.Put(p)
		okFn(err == nil)
		return
	}
	p.fn(res, err)
}

// needsSession reports whether p must be bound to a replicated session
// before it can go on the wire (it carries at least one mutation).
func (p *pendingOp) needsSession() bool {
	if p.register || p.expire || p.ensure || p.wreg != nil || p.unwatch {
		return false
	}
	if p.txn != nil {
		// Transactions always bind: the (session, seq) identity is what
		// makes the commit/abort verdict exactly-once across failover.
		return true
	}
	if p.batch != nil {
		for i := range p.batch {
			if p.batch[i].Kind.Mutates() {
				return true
			}
		}
		return false
	}
	return p.op.Kind.Mutates()
}

// conn is one pipelined protocol-v3 connection. Writes from concurrent
// goroutines are coalesced into single syscalls by a flusher goroutine;
// responses are correlated by ID on the reader goroutine, mirroring the
// server side. Server-push EVENT frames correlate by watch ID instead
// and dispatch to the client's watch registry.
type conn struct {
	cl *Client
	nc net.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingOp
	err     error
	retired bool // no longer current; close once pending drains

	outMu sync.Mutex
	out   []byte
	wake  chan struct{}

	done chan struct{}
}

// dialConn connects to one endpoint and starts the v3 preamble and the
// reader/writer goroutines.
func dialConn(cl *Client, addr string, timeout time.Duration) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("canopus/client: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if _, err := nc.Write(wire.ClientMagicV3[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("canopus/client: preamble %s: %w", addr, err)
	}
	cn := &conn{
		cl:      cl,
		nc:      nc,
		pending: make(map[uint64]*pendingOp),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go cn.readLoop()
	go cn.writeLoop()
	return cn, nil
}

// enqueue registers p and appends its encoded frame to the output
// buffer. It reports false when the connection has already failed (the
// failure handler owns any previously registered operations; p was not
// registered).
//
// Everything the frame needs is read from p before p is registered: once
// it is in the pending map a failure of the connection can complete it on
// another goroutine, and a completed pendingOp may already be another
// operation (see complete).
func (cn *conn) enqueue(p *pendingOp) bool {
	var q wire.ClientRequestV2
	var one [1]wire.ClientOp // single-op fast path: no slice allocation
	wreg, valLen := p.wreg, len(p.op.Val)
	switch {
	case p.register:
		q.Register = true
	case p.expire:
		q.Expire, q.Session = true, p.session
	case p.txn != nil:
		q.Txn = true
		q.Session, q.Seq = p.session, p.seq
		q.TxnGuards, q.TxnOps = p.txn.guards, p.txn.ops
	case p.wreg != nil:
		q.Watch = true
		q.WatchID = p.wreg.id
		q.WatchKey, q.PrefixBits = p.wreg.key, p.wreg.bits
		q.SinceCycle = p.wsince
	case p.unwatch:
		q.Unwatch = true
		q.WatchID = p.unwatchID
	case p.batch != nil:
		q.Batch = true
		q.Consistency, q.MinCycle = cn.cl.readLevel(batchReadLevel(p.batch))
		q.Session, q.Seq = p.session, p.seq
		q.Ops = make([]wire.ClientOp, len(p.batch))
		for i := range p.batch {
			q.Ops[i] = wire.ClientOp{Op: p.batch[i].Kind, Key: p.batch[i].Key, Val: p.batch[i].Val}
		}
	default:
		q.Consistency, q.MinCycle = cn.cl.readLevel(p.op)
		q.Session, q.Seq = p.session, p.seq
		one[0] = wire.ClientOp{Op: p.op.Kind, Key: p.op.Key, Val: p.op.Val}
		q.Ops = one[:]
	}

	cn.mu.Lock()
	if cn.err != nil {
		cn.mu.Unlock()
		return false
	}
	cn.nextID++
	q.ID = cn.nextID
	cn.pending[q.ID] = p
	cn.mu.Unlock()
	if wreg != nil {
		// From here on, only events arriving on THIS connection belong to
		// the watch: a retired predecessor still draining replies must not
		// interleave its stale pushes with the new registration's replay.
		wreg.setConn(cn)
	}

	cn.outMu.Lock()
	if cn.out == nil {
		cn.out = wire.EncodePool.Get(64 + valLen)
	}
	cn.out = wire.AppendClientRequestV3(cn.out, &q)
	cn.outMu.Unlock()
	select {
	case cn.wake <- struct{}{}:
	default:
	}
	return true
}

// readLevel resolves an operation's effective consistency level and
// minimum cycle: Sequential reads ride the session clock.
func (cl *Client) readLevel(op Op) (Consistency, uint64) {
	min := op.MinCycle
	if op.Consistency == Sequential {
		if last := cl.lastCycle.Load(); last > min {
			min = last
		}
	}
	return op.Consistency, min
}

// batchReadLevel resolves the consistency parameters of a batch frame:
// the shared read level (BatchAsync validates reads do not mix levels)
// and the strongest — maximum — MinCycle any read asked for.
func batchReadLevel(ops []Op) Op {
	var out Op
	seen := false
	for i := range ops {
		if ops[i].Kind != OpGet {
			continue
		}
		if !seen {
			out, seen = ops[i], true
			continue
		}
		if ops[i].MinCycle > out.MinCycle {
			out.MinCycle = ops[i].MinCycle
		}
	}
	return out
}

func (cn *conn) writeLoop() {
	for {
		select {
		case <-cn.done:
			return
		case <-cn.wake:
		}
		for {
			cn.outMu.Lock()
			buf := cn.out
			cn.out = nil
			cn.outMu.Unlock()
			if len(buf) == 0 {
				break
			}
			cn.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := cn.nc.Write(buf)
			wire.EncodePool.Put(buf)
			if err != nil {
				cn.fail(err)
				return
			}
		}
	}
}

func (cn *conn) readLoop() {
	cn.fail(wire.ReadClientFrames(cn.nc, cn.onFrame, nil))
}

// onFrame handles one response or event frame.
func (cn *conn) onFrame(payload []byte) error {
	resp, err := wire.ParseClientResponseV3(payload)
	if err != nil {
		return err
	}
	if resp.Event {
		// Server push: correlated by watch ID, never in the pending
		// map. Event values were copied out of the read buffer by the
		// parser, so they survive the buffer's reuse.
		cn.cl.dispatchEvent(cn, &resp)
		return nil
	}
	cn.mu.Lock()
	p, ok := cn.pending[resp.ID]
	if ok {
		delete(cn.pending, resp.ID)
	}
	cn.mu.Unlock()
	if ok {
		cn.deliver(p, &resp)
	}
	cn.maybeRelease()
	return nil
}

// retire marks the connection as no longer current: it stays alive to
// deliver the replies the server already accepted and is closed the
// moment its pending set drains.
func (cn *conn) retire() {
	cn.mu.Lock()
	cn.retired = true
	cn.mu.Unlock()
	cn.maybeRelease()
}

// maybeRelease closes a retired connection once nothing is in flight,
// without routing through the failover path (there is nothing left to
// retry).
func (cn *conn) maybeRelease() {
	cn.mu.Lock()
	if !cn.retired || cn.err != nil || len(cn.pending) != 0 {
		cn.mu.Unlock()
		return
	}
	cn.err = errRetired
	cn.pending = nil
	cn.mu.Unlock()
	close(cn.done)
	cn.nc.Close()
	cn.cl.dropOld(cn)
	cn.cl.rewatch(cn)
}

// deliver maps one v2 response onto its pending operation.
func (cn *conn) deliver(p *pendingOp, resp *wire.ClientResponseV2) {
	cn.cl.observeCycle(resp.Cycle)
	if p.batch != nil {
		cn.deliverBatch(p, resp)
		return
	}
	switch resp.Status {
	case wire.ClientStatusOK:
		// resp.Val is already a private copy (the v2 parser copies out of
		// the reusable read buffer).
		p.complete(Result{Val: resp.Val, Found: true, Cycle: resp.Cycle}, nil)
	case wire.ClientStatusNil:
		p.complete(Result{Cycle: resp.Cycle}, nil)
	default:
		if resp.Code == wire.CodeSessionExpired {
			cn.cl.sessionExpired(p.session)
			// The apply-path rejection is deterministic: THIS submission
			// was not applied anywhere. If the op was never retried there
			// is no earlier submission that could have committed, so it
			// is safe to re-bind it to a fresh session and re-issue —
			// exactly once, reusing the failover latch. A retried op's
			// first submission may have committed under the old session
			// (whose dedup state is gone), so it must surface the expiry.
			if !p.retried {
				p.retried = true
				p.session, p.seq = 0, 0
				cn.cl.retries.Add(1)
				go cn.cl.start(p)
				return
			}
			p.complete(Result{Cycle: resp.Cycle}, ErrSessionExpired)
			return
		}
		if retryableCode(resp.Code) {
			cn.cl.retryElsewhere(cn, p, rejectionError(resp.Code, resp.Val))
			return
		}
		p.complete(Result{}, rejectionError(resp.Code, resp.Val))
	}
}

func (cn *conn) deliverBatch(p *pendingOp, resp *wire.ClientResponseV2) {
	// A frame-level code with no per-op results is a wholesale rejection
	// (e.g. draining before any sub-op was accepted): retryable as one
	// unit, since nothing was submitted.
	if resp.Code != wire.CodeNone && len(resp.Results) == 0 {
		if retryableCode(resp.Code) {
			cn.cl.retryElsewhere(cn, p, rejectionError(resp.Code, nil))
			return
		}
		p.complete(Result{}, rejectionError(resp.Code, nil))
		return
	}
	if len(resp.Results) != len(p.batch) {
		p.complete(Result{}, fmt.Errorf("%w: batch answered %d of %d ops",
			ErrRejected, len(resp.Results), len(p.batch)))
		return
	}
	// Expired-session slots: a batch's consensus mutations are submitted
	// in one machine turn and ride one cycle, so a single submission's
	// mutating slots share the expiry verdict. Mirroring the single-op
	// path, a never-retried batch was deterministically not applied and
	// is safe to re-issue whole under a fresh session (its reads are
	// idempotent); a retried one must surface the expiry per slot.
	if p.session != 0 && !p.retried {
		for i := range resp.Results {
			if resp.Results[i].Code == wire.CodeSessionExpired {
				cn.cl.sessionExpired(p.session)
				p.retried = true
				p.session, p.seq = 0, 0
				cn.cl.retries.Add(1)
				go cn.cl.start(p)
				return
			}
		}
	}
	out := make([]Result, len(resp.Results))
	for i := range resp.Results {
		r := &resp.Results[i]
		switch r.Status {
		case wire.ClientStatusOK:
			out[i] = Result{Val: r.Val, Found: true, Cycle: resp.Cycle}
		case wire.ClientStatusNil:
			out[i] = Result{Cycle: resp.Cycle}
		default:
			if r.Code == wire.CodeSessionExpired {
				cn.cl.sessionExpired(p.session)
				out[i] = Result{Cycle: resp.Cycle, Err: ErrSessionExpired}
				continue
			}
			out[i] = Result{Cycle: resp.Cycle, Err: rejectionError(r.Code, r.Val)}
		}
	}
	p.complete(Result{Cycle: resp.Cycle, batch: out}, nil)
}

// fail poisons the connection and hands every pending operation to the
// client's failover path, in submission order (correlation IDs are
// assigned sequentially) so a session's own same-key mutations are not
// reordered by the retry.
func (cn *conn) fail(cause error) {
	cn.mu.Lock()
	if cn.err != nil {
		cn.mu.Unlock()
		return
	}
	cn.err = cause
	pending := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	close(cn.done)
	cn.nc.Close()
	ids := make([]uint64, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pend := make([]*pendingOp, 0, len(ids))
	for _, id := range ids {
		pend = append(pend, pending[id])
	}
	cn.cl.onConnFailure(cn, pend, cause)
	cn.cl.rewatch(cn)
}

func retryableCode(code uint8) bool {
	return code == wire.CodeDraining || code == wire.CodeStalled
}

func rejectionError(code uint8, reason []byte) error {
	switch {
	case code == wire.CodeSessionExpired:
		return ErrSessionExpired
	case code == wire.CodeWatchOverflow:
		return ErrWatchOverflow
	case code == wire.CodeDraining:
		return fmt.Errorf("%w: server draining", ErrRejected)
	case code == wire.CodeStalled:
		return fmt.Errorf("%w: node stalled", ErrRejected)
	case len(reason) > 0:
		return fmt.Errorf("%w: %s", ErrRejected, reason)
	default:
		return ErrRejected
	}
}

// errRetired poisons a retired connection after its pending set drains;
// it never reaches a caller.
var errRetired = errors.New("canopus/client: connection retired")
