package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"canopus/internal/clientio"
	"canopus/internal/wire"
)

// machine is the client's per-operation logic with no I/O of its own:
// its inputs are operations, response frames, connections opening and
// ending, and timers firing; its outputs are encoded request frames
// (clientio.Wire), dial requests and timers (clientio.Env), and
// completions. One lock guards all of it. A completion is queued, not
// called: unlock runs the queue once the lock is released, so a callback
// may issue the next operation.
type machine struct {
	cfg Config
	env clientio.Env

	mu        sync.Mutex
	cur       *link        // current connection: new traffic goes here
	dialing   *link        // the connection being opened, if any
	open      []*link      // open connections: cur and retired ones draining
	queue     []*pendingOp // operations waiting for a connection
	next      int          // endpoint cursor
	tried     int          // endpoints refused in the current scan
	dialFails int          // consecutive full scans that found no endpoint
	closed    bool

	lastCycle uint64 // highest commit cycle observed (session clock)
	failovers uint64
	retries   uint64

	// session is the committed replicated session ID (0 = none yet), seq
	// its mutation sequence counter. Mutations park in regWait while a
	// registration round-trips.
	session, seq uint64
	regWait      []*pendingOp

	// watches maps the client-assigned watch ID to the live watch: EVENT
	// frames dispatch through it, and a connection's end re-registers
	// every watch pinned to it from its resume point.
	watches  map[uint64]*Watch
	watchCtr uint64

	done, doneTail *pendingOp // completions queued for unlock
	buf            []byte     // frame encode scratch
}

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

	res  Result // the outcome, once queued for its callback
	err  error
	next *pendingOp // the machine's completion queue
}

// okOpPool recycles the pendingOps of AsyncOk: one is taken per operation
// and handed back by finish.
var okOpPool = sync.Pool{New: func() any { return new(pendingOp) }}

// finish runs the operation's callback. It ends p's life: an AsyncOk
// operation goes back to okOpPool before its callback runs (the callback
// may issue the next operation and be handed this very struct).
func (p *pendingOp) finish() {
	if okFn := p.okFn; okFn != nil {
		ok := p.err == nil
		*p = pendingOp{}
		okOpPool.Put(p)
		okFn(ok)
		return
	}
	p.fn(p.res, p.err)
}

// needsSession reports whether p must be bound to a replicated session
// before it can go on the wire (it carries at least one mutation).
func (p *pendingOp) needsSession() bool {
	switch {
	case p.register || p.expire || p.ensure || p.wreg != nil || p.unwatch:
		return false
	case p.txn != nil:
		// Transactions always bind: the (session, seq) identity is what
		// makes the commit/abort verdict exactly-once across failover.
		return true
	case p.batch != nil:
		return slices.ContainsFunc(p.batch, func(o Op) bool { return o.Kind.Mutates() })
	}
	return p.op.Kind.Mutates()
}

// link is one connection as the machine sees it. Its driver reports to it
// (clientio.Conn) and each report takes the machine's lock.
type link struct {
	m       *machine
	ep      int           // endpoint index
	w       clientio.Wire // nil until the driver reports it open
	nextID  uint64
	pending map[uint64]*pendingOp
	dead    bool // ended, closed or refused: later reports are stale
	retired bool // no longer current; closed once pending drains
}

func (l *link) Up(w clientio.Wire) { l.m.mu.Lock(); l.m.up(l, w); l.m.unlock() }
func (l *link) Down(err error)     { l.m.mu.Lock(); l.m.down(l, err); l.m.unlock() }

func (l *link) Frame(payload []byte) (err error) {
	l.m.mu.Lock()
	err = l.m.frame(l, payload)
	l.m.unlock()
	return err
}

// dial asks the driver for l once its backoff has passed.
func (l *link) dial() {
	l.m.mu.Lock()
	if l.m.dialing == l {
		l.m.env.Dial(l.ep, l)
	}
	l.m.unlock()
}

// unlock releases the lock and runs the completions queued under it.
func (m *machine) unlock() {
	p := m.done
	m.done, m.doneTail = nil, nil
	m.mu.Unlock()
	for p != nil {
		next := p.next
		p.finish()
		p = next
	}
}

// complete settles p: the machine's own frames (session registration,
// watch registration) take effect at once, and a caller's callback is
// queued for unlock.
func (m *machine) complete(p *pendingOp, res Result, err error) {
	switch {
	case p.register:
		m.registered(res, err)
		return
	case p.wreg != nil:
		m.ackWatch(p.wreg, res, err)
	}
	if p.fn == nil && p.okFn == nil {
		return
	}
	p.res, p.err = res, err
	if m.doneTail == nil {
		m.done = p
	} else {
		m.doneTail.next = p
	}
	m.doneTail = p
}

// start places p on the current connection, or queues it behind the one
// being opened. It is also the retry path: a pendingOp whose connection
// failed re-enters here once.
//
// Mutations are bound to the replicated session here, exactly once per
// operation (retries keep their original (session, seq) — that identity
// is what the server-side dedup recognizes). The first mutation parks
// while a session registration round-trips through consensus.
func (m *machine) start(p *pendingOp) {
	switch {
	case m.closed:
		m.complete(p, Result{}, ErrClosed)
		return
	case p.ensure:
		// EnsureSession sentinel: it only ever parks behind the session
		// registration; restarted, the session exists.
		m.complete(p, Result{}, nil)
		return
	case p.session == 0 && p.needsSession():
		if m.session == 0 {
			m.park(p)
			return
		}
		m.bind(p)
	}
	if m.cur != nil {
		m.send(m.cur, p)
		return
	}
	m.queue = append(m.queue, p)
	m.connect()
}

// park queues p behind the session registration, starting one if none
// is running.
func (m *machine) park(p *pendingOp) {
	if m.regWait = append(m.regWait, p); len(m.regWait) == 1 {
		m.start(&pendingOp{register: true})
	}
}

// bind stamps p with its session identity: the session ID and a fresh
// per-session sequence number per mutating op (a batch consumes a
// contiguous block, in frame order, mirroring the server). The binding
// is permanent — failover retries re-send the same identity.
func (m *machine) bind(p *pendingOp) {
	p.session = m.session
	muts := uint64(1)
	if p.batch != nil {
		muts = 0
		for i := range p.batch {
			if p.batch[i].Kind.Mutates() {
				muts++
			}
		}
	}
	p.seq = m.seq + 1
	m.seq += muts
}

// registered completes the session registration round-trip: adopt the
// committed session ID (with a fresh seq counter) and release the parked
// operations, or fail them.
func (m *machine) registered(res Result, err error) {
	if err == nil && len(res.Val) != 8 {
		err = fmt.Errorf("%w: malformed session registration reply", ErrRejected)
	}
	if err == nil {
		m.session, m.seq = binary.LittleEndian.Uint64(res.Val), 0
	}
	waiting := m.regWait
	m.regWait = nil
	for _, p := range waiting {
		if err != nil {
			m.complete(p, Result{}, err)
		} else {
			m.start(p)
		}
	}
}

// connect opens a connection unless one is current or being opened,
// trying endpoints from the cursor on. A scan that follows one in which
// EVERY endpoint refused waits a capped, jittered exponential backoff
// first (see Config.RetryBackoff) — a failover that still finds a live
// endpoint pays nothing.
func (m *machine) connect() {
	if m.cur != nil || m.dialing != nil {
		return
	}
	l := &link{m: m, ep: m.next, pending: make(map[uint64]*pendingOp)}
	m.dialing = l
	if m.tried == 0 && m.dialFails > 0 {
		m.env.After(m.retryDelay(m.dialFails), l.dial)
		return
	}
	m.env.Dial(l.ep, l)
}

// retryDelay maps a consecutive-failure count to the pre-scan wait:
// base·2^(fails-1) capped at RetryBackoffMax, jittered uniformly into
// [delay/2, delay).
func (m *machine) retryDelay(fails int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 1; i < fails && d < m.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	d = min(d, m.cfg.RetryBackoffMax)
	half := d / 2
	return half + time.Duration(m.env.Rand().Int63n(int64(half)+1))
}

// up makes an opened connection current and sends what queued for it.
func (m *machine) up(l *link, w clientio.Wire) {
	if m.dialing != l {
		w.Close() // the client closed meanwhile
		return
	}
	l.w, m.dialing, m.cur = w, nil, l
	m.open = append(m.open, l)
	m.next, m.tried, m.dialFails = l.ep, 0, 0
	for _, p := range m.queue {
		m.send(l, p)
	}
	m.queue = nil
}

// down handles a connection's end: a refused dial moves the scan to the
// next endpoint, or fails everything queued once every endpoint refused;
// an open connection's operations fail over.
func (m *machine) down(l *link, cause error) {
	if l.dead {
		return
	}
	l.dead = true
	if l.w != nil {
		m.fail(l, cause)
		return
	}
	if m.dialing != l {
		return
	}
	m.dialing = nil
	if m.tried++; m.tried < len(m.cfg.Endpoints) {
		m.next = (l.ep + 1) % len(m.cfg.Endpoints)
		m.connect()
		return
	}
	m.tried = 0
	m.dialFails++
	err := fmt.Errorf("%w: %v", ErrClusterDown, cause)
	queue := m.queue
	m.queue = nil
	for _, p := range queue {
		m.complete(p, Result{}, err)
	}
}

// fail retires a dead connection and re-issues its pending operations —
// each exactly once, in submission order (correlation IDs are assigned
// sequentially) so a session's own same-key mutations are not reordered
// by the retry. Operations that already failed over once, and everything
// when the client is closed, complete with the connection error.
func (m *machine) fail(l *link, cause error) {
	m.retire(l)
	m.drop(l)
	pending := l.pending
	l.pending = nil
	for _, id := range slices.Sorted(maps.Keys(pending)) {
		m.retry(pending[id], connError(cause))
	}
	m.rewatch(l)
}

// retry re-issues p, once: an operation that already failed over, and
// any on a closed client, completes with err instead.
func (m *machine) retry(p *pendingOp, err error) {
	if m.closed || p.retried {
		m.complete(p, Result{}, err)
		return
	}
	p.retried = true
	m.retries++
	m.start(p)
}

// retire is the one place a connection stops being current: new traffic
// moves to the next endpoint and the switch is counted, once. It reports
// whether l was current.
func (m *machine) retire(l *link) bool {
	if m.cur != l {
		return false
	}
	m.cur = nil
	m.next = (m.next + 1) % len(m.cfg.Endpoints)
	m.failovers++
	return true
}

// drop marks l dead and forgets it.
func (m *machine) drop(l *link) {
	l.dead = true
	m.open = slices.DeleteFunc(m.open, func(o *link) bool { return o == l })
}

// release closes a retired connection once nothing is in flight on it,
// without routing through the failover path (there is nothing left to
// retry).
func (m *machine) release(l *link) {
	if !l.retired || l.dead || len(l.pending) != 0 {
		return
	}
	m.drop(l)
	l.w.Close()
	m.rewatch(l)
}

// retryElsewhere handles a retryable server rejection (draining or
// stalled): point the client at the next endpoint for new traffic and
// re-issue just this operation there, once. In-flight neighbours on the
// old connection are NOT disturbed — it is retired, keeps delivering
// the replies the server already accepted, and is closed once the last
// one drains.
func (m *machine) retryElsewhere(l *link, p *pendingOp, cause error) {
	m.retire(l)
	l.retired = true
	m.retry(p, cause)
}

// close fails everything: queued and in-flight operations with ErrClosed,
// and every watch.
func (m *machine) close() {
	if m.closed {
		return
	}
	m.closed = true
	m.dialing = nil
	for _, l := range slices.Clone(m.open) {
		m.fail(l, ErrClosed)
		l.w.Close()
	}
	for _, p := range m.queue {
		m.complete(p, Result{}, ErrClosed)
	}
	m.queue = nil
	for _, w := range m.watches {
		m.failWatch(w, ErrClosed)
	}
}

// send registers p on l and writes its encoded frame.
func (m *machine) send(l *link, p *pendingOp) {
	var q wire.ClientRequestV2
	var one [1]wire.ClientOp // single-op fast path: no slice allocation
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
		// From here on, only events arriving on THIS connection belong to
		// the watch: a retired predecessor still draining replies must not
		// interleave its stale pushes with the new registration's replay.
		p.wreg.cn = l
	case p.unwatch:
		q.Unwatch = true
		q.WatchID = p.unwatchID
	case p.batch != nil:
		// The frame carries one read level (BatchAsync made the reads
		// share it) and the strongest MinCycle any read asked for.
		q.Batch = true
		q.Session, q.Seq = p.session, p.seq
		q.Ops = make([]wire.ClientOp, len(p.batch))
		var read Op
		for i, o := range p.batch {
			q.Ops[i] = wire.ClientOp{Op: o.Kind, Key: o.Key, Val: o.Val}
			if o.Kind == OpGet {
				read.Consistency, read.MinCycle = o.Consistency, max(read.MinCycle, o.MinCycle)
			}
		}
		q.Consistency, q.MinCycle = m.readLevel(read)
	default:
		q.Consistency, q.MinCycle = m.readLevel(p.op)
		q.Session, q.Seq = p.session, p.seq
		one[0] = wire.ClientOp{Op: p.op.Kind, Key: p.op.Key, Val: p.op.Val}
		q.Ops = one[:]
	}
	l.nextID++
	q.ID = l.nextID
	l.pending[q.ID] = p
	m.buf = wire.AppendClientRequestV3(m.buf[:0], &q)
	l.w.Write(m.buf)
}

// readLevel resolves an operation's effective consistency level and
// minimum cycle: Sequential reads ride the session clock.
func (m *machine) readLevel(op Op) (Consistency, uint64) {
	min := op.MinCycle
	if op.Consistency == Sequential && m.lastCycle > min {
		min = m.lastCycle
	}
	return op.Consistency, min
}

// frame handles one response or event frame from l.
func (m *machine) frame(l *link, payload []byte) error {
	resp, err := wire.ParseClientResponseV3(payload)
	if err != nil || l.dead {
		return err
	}
	if resp.Event {
		// Server push: correlated by watch ID, never in the pending map.
		m.dispatchEvent(l, &resp)
		return nil
	}
	if p, ok := l.pending[resp.ID]; ok {
		delete(l.pending, resp.ID)
		m.deliver(l, p, &resp)
	}
	m.release(l)
	return nil
}

// reissue re-binds a never-retried operation the apply path refused for
// an expired session to a fresh session, once: that rejection is
// deterministic — the submission was applied nowhere — so no earlier
// submission can have committed. A retried operation's first submission
// may have committed under the old session (whose dedup state is gone),
// so it must surface the expiry instead; reissue reports false for it.
func (m *machine) reissue(p *pendingOp) bool {
	if m.session == p.session {
		m.session = 0 // reclaimed: the next mutation registers a fresh one
	}
	if p.retried {
		return false
	}
	p.session, p.seq = 0, 0
	m.retry(p, ErrClosed) // refused only on a closed client
	return true
}

// deliver maps one response onto its pending operation. A batch frame
// refused whole (a frame-level code and no per-op results, e.g. draining
// before any sub-op was accepted) is answered like a single op: nothing
// was submitted, so it is retryable as one unit.
func (m *machine) deliver(l *link, p *pendingOp, resp *wire.ClientResponseV2) {
	m.lastCycle = max(m.lastCycle, resp.Cycle)
	switch {
	case p.batch != nil && (resp.Code == wire.CodeNone || len(resp.Results) > 0):
		m.deliverBatch(p, resp)
	case resp.Status == wire.ClientStatusOK:
		// resp.Val is already a private copy (the parser copies out of
		// the reusable read buffer).
		m.complete(p, Result{Val: resp.Val, Found: true, Cycle: resp.Cycle}, nil)
	case resp.Status == wire.ClientStatusNil:
		m.complete(p, Result{Cycle: resp.Cycle}, nil)
	case resp.Code == wire.CodeSessionExpired:
		if !m.reissue(p) {
			m.complete(p, Result{Cycle: resp.Cycle}, ErrSessionExpired)
		}
	case resp.Code == wire.CodeDraining || resp.Code == wire.CodeStalled:
		m.retryElsewhere(l, p, rejectionError(resp.Code, resp.Val))
	default:
		m.complete(p, Result{}, rejectionError(resp.Code, resp.Val))
	}
}

func (m *machine) deliverBatch(p *pendingOp, resp *wire.ClientResponseV2) {
	if len(resp.Results) != len(p.batch) {
		m.complete(p, Result{}, fmt.Errorf("%w: batch answered %d of %d ops",
			ErrRejected, len(resp.Results), len(p.batch)))
		return
	}
	// A batch's consensus mutations are submitted in one machine turn and
	// ride one cycle, so its mutating slots share the expiry verdict: a
	// never-retried batch is re-issued whole (its reads are idempotent), a
	// retried one surfaces the expiry per slot.
	out := make([]Result, len(resp.Results))
	for i := range resp.Results {
		r := &resp.Results[i]
		switch {
		case r.Status == wire.ClientStatusOK:
			out[i] = Result{Val: r.Val, Found: true, Cycle: resp.Cycle}
		case r.Status == wire.ClientStatusNil:
			out[i] = Result{Cycle: resp.Cycle}
		case r.Code == wire.CodeSessionExpired:
			if p.session != 0 && m.reissue(p) {
				return
			}
			out[i] = Result{Cycle: resp.Cycle, Err: ErrSessionExpired}
		default:
			out[i] = Result{Cycle: resp.Cycle, Err: rejectionError(r.Code, r.Val)}
		}
	}
	m.complete(p, Result{Cycle: resp.Cycle, batch: out}, nil)
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

func connError(cause error) error {
	if errors.Is(cause, ErrClosed) || errors.Is(cause, ErrClusterDown) {
		return cause
	}
	return fmt.Errorf("%w: connection failed: %v", ErrClusterDown, cause)
}
