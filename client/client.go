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
	"errors"
	"fmt"
	"math/rand"
	"time"

	"canopus/internal/clientio"
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
// all operations share one pipelined connection. It is the socket driver
// of the client machine (machine.go): the machine decides, the Client
// dials, reads and writes.
type Client struct {
	machine
}

// New validates cfg and returns a Client. Connections are established
// lazily on first use; a cluster that is down surfaces as ErrClusterDown
// from the operations, not from New.
func New(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Client{}
	c.cfg, c.env = cfg, &sockets{cfg: cfg, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
	return c, nil
}

func init() {
	clientio.NewClient = func(endpoints []string, env clientio.Env) any {
		c := &Client{}
		c.cfg, c.env = Config{Endpoints: endpoints}, env
		_ = c.cfg.fill() // fails only on no endpoints; a simulator lists its nodes
		return c
	}
}

// Close tears the client down; in-flight operations fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.close()
	c.unlock()
	return nil
}

// Stats returns the client's recovery counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Failovers: c.failovers, Retries: c.retries}
}

// LastCycle returns the highest consensus commit cycle this client has
// observed — the session's read timestamp. A Sequential read handed this
// value (or issued through the same client) observes at least that
// state on any replica.
func (c *Client) LastCycle() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.lastCycle }

// SessionID returns the client's replicated session ID, or 0 when no
// session is registered yet (no mutation has been issued, or the last
// session expired and no mutation has re-registered one).
func (c *Client) SessionID() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.session }

// EndSession expires the client's replicated session through a
// consensus cycle, releasing its dedup state on every replica, and
// waits for the expiry to commit. In-flight mutations of the old
// session may fail with ErrSessionExpired; later mutations register a
// fresh session automatically. A client with no session returns nil
// immediately.
func (c *Client) EndSession(ctx context.Context) error {
	c.mu.Lock()
	sess := c.session
	c.session = 0
	if sess == 0 {
		c.mu.Unlock()
		return nil
	}
	f := newFuture(c.cfg.RequestTimeout)
	c.start(&pendingOp{expire: true, session: sess, fn: f.complete})
	c.unlock()
	_, err := f.Wait(ctx)
	return err
}

// EnsureSession returns the client's replicated session ID, registering
// one through consensus first if none exists. Coordination recipes use
// it to learn the identity that owns their ephemeral keys before the
// first mutation would have registered it implicitly.
func (c *Client) EnsureSession(ctx context.Context) (uint64, error) {
	for {
		c.mu.Lock()
		if sess := c.session; sess != 0 {
			c.mu.Unlock()
			return sess, nil
		}
		f := newFuture(c.cfg.RequestTimeout)
		c.park(&pendingOp{ensure: true, fn: f.complete})
		c.unlock()
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
	c.issue(&pendingOp{op: ops[0], batch: ops, fn: f.complete})
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
// known. fn runs on the client's reader goroutine — or on the caller's,
// when the operation cannot be issued — never with the client's lock
// held, and must not block.
func (c *Client) Async(op Op, fn func(Result, error)) {
	c.issue(&pendingOp{op: op, fn: fn})
}

// AsyncOk issues op and invokes done exactly once with whether it
// succeeded — the allocation-lean shape load generators want: passing a
// long-lived done callback costs no allocation per operation (the
// pendingOp is recycled when it completes) and zero adapter closures.
// done follows the Async callback contract.
func (c *Client) AsyncOk(op Op, done func(ok bool)) {
	p := okOpPool.Get().(*pendingOp)
	p.op, p.okFn = op, done
	c.issue(p)
}

// issue hands p to the machine under the client's lock.
func (c *Client) issue(p *pendingOp) {
	c.mu.Lock()
	c.start(p)
	c.unlock()
}
