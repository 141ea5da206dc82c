// Package client is the public Canopus client: a typed, context-aware
// key-value API over the binary client protocol v3, with per-request
// read-consistency levels, multi-op transactions (Txn), ordered change
// watches (Watch), and automatic failover across cluster endpoints.
//
// A Client connects to one endpoint at a time (every Canopus replica
// holds the full state, so any node serves any request) and pipelines
// all traffic over that connection. When the connection breaks — or the
// serving node reports that it is draining or stalled — the client
// transparently redials the next endpoint and retries each affected
// in-flight operation exactly once; an operation that fails twice
// surfaces the error.
//
// Mutations are exactly-once end to end. The client registers a
// replicated session on first mutation (one consensus round-trip,
// amortized over the client's lifetime) and stamps every Put/Delete with
// a per-session sequence number; each replica's state machine keeps a
// per-session dedup table, so a retry of an operation that had already
// committed — the reply lost in a crash window — returns the cached
// committed result instead of applying twice, on any endpoint. Reads
// are idempotent and carry no session state. A session with no
// committed mutation for the cluster's configured idle bound is
// reclaimed through consensus; a failover-retried mutation that
// straddles the expiry fails with ErrSessionExpired (never a silent
// re-apply), after which the client transparently registers a fresh
// session for subsequent mutations. Call EndSession to release the
// replicated state eagerly.
//
// Synchronous calls take a context:
//
//	cl, err := client.New(client.Config{Endpoints: addrs})
//	err = cl.Put(ctx, 7, []byte("hello"))
//	val, err := cl.Get(ctx, 7)                                // linearizable
//	val, err = cl.Get(ctx, 7, client.WithConsistency(client.Stale)) // local replica state
//
// Asynchronous calls return a Future:
//
//	f := cl.PutAsync(7, []byte("hello"))
//	// ... other work ...
//	res, err := f.Wait(ctx)
//
// Consistency levels (see wire.Consistency): Linearizable reads order
// through a consensus cycle and observe every write committed anywhere
// before they were issued. Sequential reads are served from the
// contacted replica's committed state once it has caught up to the
// client's last observed commit cycle — monotonic within the client
// session, including across failovers — without starting a consensus
// cycle. Stale reads are served immediately from whatever the replica
// has committed. Writes and deletes always order through consensus.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"canopus/internal/wire"
)

// Consistency is a per-request read-consistency level.
type Consistency = wire.Consistency

// Re-exported consistency levels.
const (
	// Linearizable routes the read through a consensus cycle.
	Linearizable = wire.Linearizable
	// Sequential reads the local replica's committed state, monotone
	// within this client's session.
	Sequential = wire.Sequential
	// Stale reads the local replica's committed state immediately.
	Stale = wire.Stale
)

// Kind is an operation kind.
type Kind = wire.Op

// Operation kinds.
const (
	OpGet    = wire.OpRead
	OpPut    = wire.OpWrite
	OpDelete = wire.OpDelete
)

// Typed errors. Errors returned by the Client wrap one of these (use
// errors.Is).
var (
	// ErrNotFound reports a read of an absent key.
	ErrNotFound = errors.New("canopus/client: key not found")
	// ErrTimeout reports a context deadline or the configured
	// RequestTimeout expiring before the reply arrived. The operation
	// may still commit server-side.
	ErrTimeout = errors.New("canopus/client: request timed out")
	// ErrClusterDown reports that no configured endpoint accepted a
	// connection.
	ErrClusterDown = errors.New("canopus/client: cluster unreachable")
	// ErrRejected reports a request the server refused (malformed, or
	// rejected twice during failover).
	ErrRejected = errors.New("canopus/client: request rejected")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("canopus/client: client closed")
	// ErrSessionExpired reports a mutation that straddled the expiry of
	// its replicated session (idle bound, or EndSession) after already
	// being retried once across a failover. The final submission was NOT
	// applied, but whether the earlier one committed before the expiry
	// is unknowable — the dedup state that could tell is gone — so the
	// client refuses to re-issue it; callers decide (re-issue if
	// idempotent at the application level). A mutation that was never
	// failover-retried is re-issued under a fresh session automatically
	// and does not see this error. Later mutations transparently run
	// under a fresh session either way.
	ErrSessionExpired = errors.New("canopus/client: session expired")
	// ErrWatchOverflow reports a watch that could not stay gap-free: its
	// resume point aged out of the server's event history, or the
	// consumer fell too far behind (server push budget or the local
	// channel) and was dropped. The watch is dead; the only correct
	// recovery is to re-read current state and start a fresh watch.
	ErrWatchOverflow = errors.New("canopus/client: watch overflowed")
)

// Op is one keyed operation.
type Op struct {
	Kind Kind
	Key  uint64
	Val  []byte // payload for OpPut; ignored otherwise

	// Consistency selects the read path (reads only; mutations always
	// order through consensus). Zero value is Linearizable.
	Consistency Consistency
	// MinCycle, when non-zero, is an explicit lower bound on the commit
	// cycle whose state may serve a non-linearizable read; Sequential
	// reads additionally bound it by the session's last observed cycle.
	MinCycle uint64
}

// Result is one completed operation.
type Result struct {
	// Val is the read value (nil for mutations and misses).
	Val []byte
	// Found reports a read hit; true for completed mutations.
	Found bool
	// Cycle is the consensus commit cycle that served the operation —
	// the read timestamp for non-linearizable reads.
	Cycle uint64
	// Err is the per-operation error inside a Batch result slice (nil
	// on success). Single-operation calls return errors directly.
	Err error

	// batch carries a batch frame's positional results (see Batch).
	batch []Result
}

// Config parameterizes a Client.
type Config struct {
	// Endpoints are the cluster's client-port addresses. The client
	// connects to one at a time and fails over along the list.
	Endpoints []string
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds synchronous calls and Future.Wait when the
	// caller's context carries no deadline (default 30s; 0 keeps the
	// default, negative disables).
	RequestTimeout time.Duration
	// RetryBackoff is the base delay before re-dialing after a FULL
	// endpoint scan failed (default 10ms). Consecutive failed scans
	// double the delay up to RetryBackoffMax, with uniform jitter in
	// [delay/2, delay) so a fleet of clients does not re-dial a
	// recovering cluster in lockstep. A successful dial resets the
	// streak; a failover that finds a live endpoint never waits.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential re-dial delay (default 1s).
	RetryBackoffMax time.Duration
}

func (c *Config) fill() error {
	if len(c.Endpoints) == 0 {
		return errors.New("canopus/client: Config.Endpoints required")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = time.Second
	}
	if c.RetryBackoffMax < c.RetryBackoff {
		c.RetryBackoffMax = c.RetryBackoff
	}
	return nil
}

// Stats counts client-side recovery events.
type Stats struct {
	// Failovers is the number of connection switches after a failure.
	Failovers uint64
	// Retries is the number of individual operations re-sent to another
	// endpoint (each operation is retried at most once).
	Retries uint64
}

// Client is a Canopus cluster client. It is safe for concurrent use;
// all operations share one pipelined connection.
type Client struct {
	cfg Config

	mu        sync.Mutex
	conn      *conn
	next      int // endpoint cursor
	closed    bool
	dialing   bool          // a dial is in flight (single-flight)
	dialDone  chan struct{} // closed when the in-flight dial finishes
	dialFails int           // consecutive full-scan dial failures (backoff exponent)
	old       []*conn       // retired connections still draining replies

	lastCycle atomic.Uint64 // highest commit cycle observed (session clock)
	failovers atomic.Uint64
	retries   atomic.Uint64

	// Replicated-session state: session is the committed session ID (0 =
	// none yet), seqCtr the per-session mutation sequence counter. regMu
	// guards the registration single-flight and its parked mutations.
	session atomic.Uint64
	seqCtr  atomic.Uint64
	regMu   sync.Mutex
	regWait []*pendingOp
	regBusy bool

	// Watch registry: client-assigned watch ID -> live watch. EVENT
	// frames dispatch through it; connection failures re-register every
	// affected watch from its resume point.
	watchMu  sync.Mutex
	watches  map[uint64]*Watch
	watchCtr uint64
}

// New validates cfg and returns a Client. Connections are established
// lazily on first use; a cluster that is down surfaces as ErrClusterDown
// from the operations, not from New.
func New(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Client{cfg: cfg}, nil
}

// Close tears the client down; in-flight operations fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cn := c.conn
	c.conn = nil
	old := c.old
	c.old = nil
	c.mu.Unlock()
	if cn != nil {
		cn.fail(ErrClosed)
	}
	for _, o := range old {
		o.fail(ErrClosed)
	}
	c.watchMu.Lock()
	ws := make([]*Watch, 0, len(c.watches))
	for _, w := range c.watches {
		ws = append(ws, w)
	}
	c.watchMu.Unlock()
	for _, w := range ws {
		c.failWatch(w, ErrClosed)
	}
	return nil
}

// Stats returns the client's recovery counters.
func (c *Client) Stats() Stats {
	return Stats{Failovers: c.failovers.Load(), Retries: c.retries.Load()}
}

// LastCycle returns the highest consensus commit cycle this client has
// observed — the session's read timestamp. A Sequential read handed this
// value (or issued through the same client) observes at least that
// state on any replica.
func (c *Client) LastCycle() uint64 { return c.lastCycle.Load() }

// SessionID returns the client's replicated session ID, or 0 when no
// session is registered yet (no mutation has been issued, or the last
// session expired and no mutation has re-registered one).
func (c *Client) SessionID() uint64 { return c.session.Load() }

// EndSession expires the client's replicated session through a
// consensus cycle, releasing its dedup state on every replica, and
// waits for the expiry to commit. In-flight mutations of the old
// session may fail with ErrSessionExpired; later mutations register a
// fresh session automatically. A client with no session returns nil
// immediately.
func (c *Client) EndSession(ctx context.Context) error {
	sess := c.session.Swap(0)
	if sess == 0 {
		return nil
	}
	f := newFuture(c.cfg.RequestTimeout)
	c.start(&pendingOp{expire: true, session: sess, fn: f.complete})
	_, err := f.Wait(ctx)
	return err
}

// EnsureSession returns the client's replicated session ID, registering
// one through consensus first if none exists. Coordination recipes use
// it to learn the identity that owns their ephemeral keys before the
// first mutation would have registered it implicitly.
func (c *Client) EnsureSession(ctx context.Context) (uint64, error) {
	for {
		if sess := c.session.Load(); sess != 0 {
			return sess, nil
		}
		f := newFuture(c.cfg.RequestTimeout)
		if !c.parkForSession(&pendingOp{ensure: true, fn: f.complete}) {
			continue // a session appeared concurrently; re-read it
		}
		if _, err := f.Wait(ctx); err != nil {
			return 0, err
		}
	}
}

// Option tweaks one operation built by the sync/async helpers.
type Option func(*Op)

// WithConsistency selects the read-consistency level.
func WithConsistency(l Consistency) Option { return func(o *Op) { o.Consistency = l } }

// WithMinCycle sets an explicit minimum commit cycle for a
// non-linearizable read.
func WithMinCycle(cycle uint64) Option { return func(o *Op) { o.MinCycle = cycle } }

// Get reads key. ErrNotFound reports an absent key. Reads are
// linearizable unless WithConsistency picks a weaker level.
func (c *Client) Get(ctx context.Context, key uint64, opts ...Option) ([]byte, error) {
	res, err := c.Do(ctx, buildOp(OpGet, key, nil, opts))
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, fmt.Errorf("%w: key %d", ErrNotFound, key)
	}
	return res.Val, nil
}

// Put writes key = val and waits for the committed acknowledgement.
func (c *Client) Put(ctx context.Context, key uint64, val []byte) error {
	_, err := c.Do(ctx, Op{Kind: OpPut, Key: key, Val: val})
	return err
}

// Delete removes key (a no-op if absent) and waits for the committed
// acknowledgement.
func (c *Client) Delete(ctx context.Context, key uint64) error {
	_, err := c.Do(ctx, Op{Kind: OpDelete, Key: key})
	return err
}

// Do executes one operation and waits for its result.
func (c *Client) Do(ctx context.Context, op Op) (Result, error) {
	return c.DoAsync(op).Wait(ctx)
}

// GetAsync issues a read and returns its Future.
func (c *Client) GetAsync(key uint64, opts ...Option) *Future {
	return c.DoAsync(buildOp(OpGet, key, nil, opts))
}

// PutAsync issues a write and returns its Future.
func (c *Client) PutAsync(key uint64, val []byte) *Future {
	return c.DoAsync(Op{Kind: OpPut, Key: key, Val: val})
}

// DeleteAsync issues a delete and returns its Future.
func (c *Client) DeleteAsync(key uint64) *Future {
	return c.DoAsync(Op{Kind: OpDelete, Key: key})
}

// DoAsync issues one operation and returns its Future.
func (c *Client) DoAsync(op Op) *Future {
	f := newFuture(c.cfg.RequestTimeout)
	c.Async(op, f.complete)
	return f
}

// Batch executes ops as one multi-op frame — submitted to the serving
// node in a single machine turn — and waits for all results. The
// returned slice is positional; per-operation failures are reported in
// Result.Err, a frame-level failure in the returned error. Reads inside
// a batch follow the batch's first read consistency level; they do not
// observe the batch's own mutations unless Linearizable.
func (c *Client) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	f := c.BatchAsync(ops)
	res, err := f.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.batch, nil
}

// BatchAsync issues ops as one multi-op frame and returns its Future;
// Wait's Result carries no value — collect the per-op results with
// (*Future).Batch. A batch is bounded (wire.MaxBatchOps) and its reads
// must share one consistency level — the level travels per frame, so a
// mix would silently downgrade the stricter reads.
func (c *Client) BatchAsync(ops []Op) *Future {
	f := newFuture(c.cfg.RequestTimeout)
	if len(ops) == 0 {
		f.complete(Result{}, nil)
		return f
	}
	if len(ops) > wire.MaxBatchOps {
		f.complete(Result{}, fmt.Errorf("%w: batch of %d ops exceeds the %d-op frame limit",
			ErrRejected, len(ops), wire.MaxBatchOps))
		return f
	}
	var level Consistency
	seenRead := false
	for i := range ops {
		if ops[i].Kind != OpGet {
			continue
		}
		if !seenRead {
			level, seenRead = ops[i].Consistency, true
			continue
		}
		if ops[i].Consistency != level {
			f.complete(Result{}, fmt.Errorf("%w: batch mixes read consistency levels (%v and %v)",
				ErrRejected, level, ops[i].Consistency))
			return f
		}
	}
	c.asyncBatch(ops, f)
	return f
}

func buildOp(kind Kind, key uint64, val []byte, opts []Option) Op {
	op := Op{Kind: kind, Key: key, Val: val}
	for _, fn := range opts {
		fn(&op)
	}
	return op
}

// Async is the low-level asynchronous primitive: it issues op and
// invokes fn exactly once when the result (or a terminal error) is
// known. fn runs on the client's reader goroutine — or synchronously,
// when the operation cannot be issued — and must not block.
func (c *Client) Async(op Op, fn func(Result, error)) {
	c.start(&pendingOp{op: op, fn: fn})
}

// AsyncOk issues op and invokes done exactly once with whether it
// succeeded — the allocation-lean shape load generators want: passing a
// long-lived done callback costs no allocation per operation (the
// pendingOp is recycled when it completes) and zero adapter closures.
// done follows the Async callback contract (reader goroutine or
// synchronous; must not block).
func (c *Client) AsyncOk(op Op, done func(ok bool)) {
	p := okOpPool.Get().(*pendingOp)
	p.op, p.okFn = op, done
	c.start(p)
}

func (c *Client) asyncBatch(ops []Op, f *Future) {
	c.start(&pendingOp{op: ops[0], batch: ops, fn: f.complete})
}

// start places p on the current connection, dialing one as needed. It
// is also the retry path: a pendingOp whose connection failed re-enters
// here once. Dials are single-flighted and run with no lock held, so a
// slow endpoint never blocks traffic already flowing on a live
// connection. It returns the terminal error delivered to p (already
// passed to p.fn), or nil once p is enqueued — callers re-issuing many
// operations use it to short-circuit a dead cluster instead of paying a
// full dial scan per operation.
//
// Mutations are bound to the replicated session here, exactly once per
// operation (retries keep their original (session, seq) — that identity
// is what the server-side dedup recognizes). The first mutation parks
// while a session registration round-trips through consensus.
func (c *Client) start(p *pendingOp) error {
	if p.ensure {
		// EnsureSession sentinel: it only ever parks behind the session
		// registration; once restarted (the session exists) it completes
		// without touching the wire.
		p.complete(Result{}, nil)
		return nil
	}
	if p.session == 0 && p.needsSession() {
		// Loop until bound or parked: parkForSession refusing (a session
		// exists under its lock) and the session expiring again can
		// interleave, and an unbound mutation must never reach the wire
		// — it would carry no dedup identity.
		for {
			if sess := c.session.Load(); sess != 0 {
				c.bindSession(p, sess)
				break
			}
			if c.parkForSession(p) {
				return nil // resumes via onRegistered
			}
		}
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			p.complete(Result{}, ErrClosed)
			return ErrClosed
		}
		if cn := c.conn; cn != nil {
			c.mu.Unlock()
			if cn.enqueue(p) {
				return nil
			}
			// The connection failed between selection and enqueue; its
			// failure handler owns its pending set. Retire it if the
			// handler has not yet, and try again on a fresh one.
			c.mu.Lock()
			c.retireCurrentLocked(cn)
			c.mu.Unlock()
			continue
		}
		if c.dialing {
			wait := c.dialDone
			c.mu.Unlock()
			<-wait
			continue
		}
		c.dialing = true
		c.dialDone = make(chan struct{})
		c.mu.Unlock()

		cn, err := c.dial()

		c.mu.Lock()
		c.dialing = false
		close(c.dialDone)
		if err != nil {
			c.mu.Unlock()
			p.complete(Result{}, err)
			return err
		}
		if c.closed {
			c.mu.Unlock()
			cn.fail(ErrClosed)
			p.complete(Result{}, ErrClosed)
			return ErrClosed
		}
		c.conn = cn
		c.mu.Unlock()
	}
}

// parkForSession queues a mutation behind the session registration,
// starting the (single-flight) registration if none is running. It
// reports false when a session appeared concurrently — the caller binds
// and proceeds.
func (c *Client) parkForSession(p *pendingOp) bool {
	c.regMu.Lock()
	if c.session.Load() != 0 {
		c.regMu.Unlock()
		return false
	}
	c.regWait = append(c.regWait, p)
	launch := !c.regBusy
	c.regBusy = true
	c.regMu.Unlock()
	if launch {
		go c.start(&pendingOp{register: true, fn: c.onRegistered})
	}
	return true
}

// bindSession stamps p with its session identity: the session ID and a
// fresh per-session sequence number per mutating op (a batch consumes a
// contiguous block, in frame order, mirroring the server). The binding
// is permanent — failover retries re-send the same identity.
func (c *Client) bindSession(p *pendingOp, sess uint64) {
	p.session = sess
	if p.batch != nil {
		muts := uint64(0)
		for i := range p.batch {
			if p.batch[i].Kind.Mutates() {
				muts++
			}
		}
		p.seq = c.seqCtr.Add(muts) - muts + 1
		return
	}
	p.seq = c.seqCtr.Add(1)
}

// onRegistered completes the session registration round-trip: parse the
// committed session ID, publish it, and release the parked mutations.
// Runs on a connection's reader goroutine (or synchronously on a
// terminal error), so the parked operations restart on their own
// goroutine — start may need to dial.
func (c *Client) onRegistered(res Result, err error) {
	if err == nil {
		if len(res.Val) == 8 {
			// Reset the seq counter BEFORE publishing the session: every
			// binding against the new session must draw from the fresh
			// counter, or a seq could repeat within one session.
			c.seqCtr.Store(0)
			c.session.Store(binary.LittleEndian.Uint64(res.Val))
		} else {
			err = fmt.Errorf("%w: malformed session registration reply", ErrRejected)
		}
	}
	c.regMu.Lock()
	waiting := c.regWait
	c.regWait = nil
	c.regBusy = false
	c.regMu.Unlock()
	if err != nil {
		for _, p := range waiting {
			p.complete(Result{}, err)
		}
		return
	}
	if len(waiting) > 0 {
		go func() {
			for _, p := range waiting {
				c.start(p)
			}
		}()
	}
}

// sessionExpired retires a session the server reported reclaimed; the
// next mutation registers a fresh one.
func (c *Client) sessionExpired(sess uint64) {
	if sess != 0 {
		c.session.CompareAndSwap(sess, 0)
	}
}

// dial tries every endpoint once, starting at the cursor, and returns a
// running connection. Runs with no lock held. After a scan in which
// EVERY endpoint refused, the next dial waits a capped, jittered
// exponential backoff first (see Config.RetryBackoff) — a failover that
// still finds a live endpoint pays nothing.
func (c *Client) dial() (*conn, error) {
	c.mu.Lock()
	start := c.next
	fails := c.dialFails
	c.mu.Unlock()
	if d := c.retryDelay(fails); d > 0 {
		time.Sleep(d)
	}
	var lastErr error
	for i := 0; i < len(c.cfg.Endpoints); i++ {
		idx := (start + i) % len(c.cfg.Endpoints)
		cn, err := dialConn(c, c.cfg.Endpoints[idx], c.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		c.next = idx
		c.dialFails = 0
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Lock()
	c.dialFails++
	c.mu.Unlock()
	return nil, fmt.Errorf("%w: %v", ErrClusterDown, lastErr)
}

// retryDelay maps a consecutive-failure count to the pre-scan wait:
// base·2^(fails-1) capped at RetryBackoffMax, jittered uniformly into
// [delay/2, delay).
func (c *Client) retryDelay(fails int) time.Duration {
	if fails <= 0 {
		return 0
	}
	d := c.cfg.RetryBackoff
	for i := 1; i < fails && d < c.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryBackoffMax {
		d = c.cfg.RetryBackoffMax
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// observeCycle folds a response's commit cycle into the session clock.
func (c *Client) observeCycle(cycle uint64) {
	for {
		old := c.lastCycle.Load()
		if cycle <= old || c.lastCycle.CompareAndSwap(old, cycle) {
			return
		}
	}
}

// onConnFailure retires a dead connection and re-issues its pending
// operations on the next endpoint — each exactly once. Operations that
// already failed over once, and everything when the client is closed,
// complete with the connection error.
func (c *Client) onConnFailure(cn *conn, pend []*pendingOp, cause error) {
	c.mu.Lock()
	c.retireCurrentLocked(cn)
	c.dropOldLocked(cn)
	closed := c.closed
	c.mu.Unlock()
	// down, once set, short-circuits the remaining retries: the first
	// failed re-issue already scanned every endpoint, so repeating the
	// scan (and its dial timeouts) once per pending op would only delay
	// the inevitable for the whole pipeline.
	var down error
	for _, p := range pend {
		if closed || errors.Is(cause, ErrClosed) || p.retried {
			p.complete(Result{}, connError(cause))
			continue
		}
		if down != nil {
			p.complete(Result{}, down)
			continue
		}
		p.retried = true
		c.retries.Add(1)
		if err := c.start(p); errors.Is(err, ErrClusterDown) {
			down = err
		}
	}
}

// retireCurrentLocked is the one place a connection stops being current,
// whichever of its observers notices first — its failure handler, a start
// that finds it already failed, a retryable rejection: new traffic moves
// to the next endpoint and the switch is counted, once. It reports whether
// cn was current (Close clears c.conn, so a closed client never counts).
// Called with c.mu held.
func (c *Client) retireCurrentLocked(cn *conn) bool {
	if c.conn != cn {
		return false
	}
	c.conn = nil
	c.next = (c.next + 1) % len(c.cfg.Endpoints)
	c.failovers.Add(1)
	return true
}

// dropOld forgets a connection that no longer needs tracking (it fully
// drained or died).
func (c *Client) dropOld(cn *conn) {
	c.mu.Lock()
	c.dropOldLocked(cn)
	c.mu.Unlock()
}

// dropOldLocked forgets a connection that no longer needs tracking.
// Called with c.mu held.
func (c *Client) dropOldLocked(cn *conn) {
	for i, o := range c.old {
		if o == cn {
			c.old = append(c.old[:i], c.old[i+1:]...)
			return
		}
	}
}

// retryElsewhere handles a retryable server rejection (draining or
// stalled): point the client at the next endpoint for new traffic and
// re-issue just this operation there, once. In-flight neighbours on the
// old connection are NOT disturbed — it is retired, keeps delivering
// the replies the server already accepted, and is closed once the last
// one drains. The retry itself runs on its own goroutine so the
// retired connection's reader is never blocked behind a dial.
func (c *Client) retryElsewhere(cn *conn, p *pendingOp, cause error) {
	c.mu.Lock()
	if c.retireCurrentLocked(cn) {
		c.old = append(c.old, cn)
	}
	closed := c.closed
	c.mu.Unlock()
	cn.retire()
	if closed || p.retried {
		p.complete(Result{}, cause)
		return
	}
	p.retried = true
	c.retries.Add(1)
	go c.start(p)
}

func connError(cause error) error {
	if errors.Is(cause, ErrClosed) || errors.Is(cause, ErrClusterDown) {
		return cause
	}
	return fmt.Errorf("%w: connection failed: %v", ErrClusterDown, cause)
}
