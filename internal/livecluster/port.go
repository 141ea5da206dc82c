package livecluster

import (
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/metrics"
	"canopus/internal/transport"
	"canopus/internal/wire"
)

// maxGroup bounds how many pipelined requests one connection submits per
// machine turn; deeper pipelines are split across turns so one greedy
// client cannot monopolize the node's serialization lock.
const maxGroup = 512

// ClientPort serves canopus-server's client protocol for one node: the
// length-prefixed, pipelined binary protocol of internal/wire/client.go.
// A connection opens with the 4-byte preamble wire.ClientMagicV3; the
// port answers anything else with one line of text and closes it.
//
// Requests carry a consistency level: Linearizable operations (and all
// mutations) enter consensus, while Sequential and Stale reads are
// answered from the node's committed state (core.Node.ReadLocal) without
// starting or riding a consensus cycle. TXN frames ride consensus as one
// wire.OpTxn request. WATCH/UNWATCH registration never enters a machine
// turn — the node's event hub (internal/events) has its own lock — and
// the server-push EVENT frames it feeds are rendered on the hub's Publish
// caller (the node's apply stage), writing only to per-connection output
// buffers.
//
// Replies are fanned out batch-aware and off the consensus turn: the
// port is one of the node's core.Consumers — called on the node's apply
// stage, not inside the machine turn — and one committed cycle costs one
// pass over its completion records, encoded into per-connection output
// buffers (pooled) that each Conn's driver drains: a writer goroutine
// (acceptLoop, handle and writeLoop are the socket driver), or
// internal/harness's simulated link. Neither the reply encode nor the
// socket write ever holds the node's machine lock.
type ClientPort struct {
	id     wire.NodeID
	runner *transport.Runner // nil: turns run inline (the simulator)
	// nodeP is the serving protocol node. It is an atomic pointer, not a
	// plain field, because SetNode swaps in a replacement joiner when a
	// node restarts in place (chaos eviction/readmission) while reader
	// goroutines and the apply stage are still looking at it.
	nodeP atomic.Pointer[core.Node]
	ln    net.Listener

	// hubP is the node's event hub; nil disables the watch surface
	// (WATCH frames are rejected, TXN frames still work). Swapped together
	// with the node by SetNode.
	hubP atomic.Pointer[events.Hub]
	// bound is the node's committed watermark at SetNode — the cycle it
	// recovered to, which the hub never publishes: a WATCH ack's floor.
	bound atomic.Uint64

	draining    atomic.Bool
	outstanding atomic.Int64 // accepted-but-unanswered requests
	// deferredLocal counts the subset of outstanding that are Sequential
	// reads parked on a future commit cycle: they cannot complete on an
	// idle node, so a graceful Stop rejects rather than awaits them.
	deferredLocal atomic.Int64

	// dropReplies, when set, makes writers discard every encoded
	// response instead of flushing it — the deterministic reply-loss
	// fault tests use to force the commit-race retry window.
	dropReplies atomic.Bool

	// mu guards conns, every conn's pending map and seq counter,
	// sessPending, and batch aggregates. It is the port's own lock —
	// deliberately NOT the runner's machine lock — so the reply fan-out
	// (running on the node's apply stage) and the
	// submit paths (running inside machine turns) synchronize without
	// serializing against consensus.
	mu     sync.Mutex
	nextID uint64
	conns  map[uint64]*Conn
	loc    *Conn // pseudo-connection carrying SubmitLocal traffic

	// sessPending routes session-scoped submissions back to their
	// serving connection: replies arrive keyed by the replicated
	// (session, seq) identity, not the connection. Guarded by mu.
	sessPending map[sessKey]pendingEntry

	// stats are the port's operational counters (see RegisterMetrics);
	// the in-flight gauge is the outstanding counter above.
	stats portStats

	accept  sync.Once
	writers sync.WaitGroup
}

// portStats counts client-facing work: accepted sockets, sockets closed
// for their preamble, admitted requests, and replies lost to fault
// injection or departed connections.
type portStats struct {
	conns       atomic.Uint64 // sockets accepted
	badPreamble atomic.Uint64 // sockets closed before a valid preamble
	requests    atomic.Uint64 // requests admitted (tracked as outstanding)
	dropped     atomic.Uint64 // reply buffers discarded instead of delivered
}

// Conn is one client connection as the port's rules see it: its
// requests in flight, its watches, and the answers awaiting its driver.
type Conn struct {
	id uint64
	p  *ClientPort

	// pending maps request Seq -> entry; seq is the per-connection
	// submission counter. Both are guarded by the port mutex.
	pending map[uint64]pendingEntry
	seq     uint64

	// watches maps the client-chosen watch ID to the hub's registration
	// ID (nil until the first WATCH). Guarded by the port mutex. Entries
	// can go stale when the hub overflows a watch — its sink may not
	// take the port mutex — which is harmless: hub.Cancel is idempotent.
	watches map[uint64]uint64

	// group holds the requests parsed from one read, submitted as one
	// machine turn when the read ends or the group is full (see frame);
	// arena holds their values, copied once, and travels into consensus
	// with them. Only the connection's reader touches either.
	group []wire.ClientRequestV2
	arena []byte

	outMu   sync.Mutex
	out     []byte // encoded responses awaiting flush
	closing bool
	wake    func() // tells the driver that out has grown or closing is set
	hangup  func() // the driver's close at once (nil: none); see shut
}

// newClientPort binds the client protocol for the node runner serves on
// addr (e.g. "127.0.0.1:0"). The port is built before its node — it is
// one of the node's Consumers — and bound to it by SetNode. It does NOT
// accept connections yet: Replica.Start calls AcceptClients once crash
// recovery has replayed the WAL. Binding early and accepting late means a
// restarting server owns its advertised address immediately without ever
// exposing mid-recovery state to a client.
func newClientPort(runner *transport.Runner, addr string) (*ClientPort, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client listen %s: %w", addr, err)
	}
	p := NewPort(runner.ID(), runner)
	p.ln = ln
	return p, nil
}

// NewPort builds a port with no listener for node id, whose machine
// turns runner serializes — or, with a nil runner, that runs on the
// caller's goroutine, as every node of the simulator does. Its
// connections come from Connect; bind it with SetNode.
func NewPort(id wire.NodeID, runner *transport.Runner) *ClientPort {
	p := &ClientPort{
		id:          id,
		runner:      runner,
		conns:       make(map[uint64]*Conn),
		sessPending: make(map[sessKey]pendingEntry),
	}
	// The SubmitLocal pseudo-connection has no driver: every pending entry
	// completes through its done callback. It sits in conns like any
	// other, so Stop and Abort retire it with the rest.
	p.loc = p.Connect(func() {}, nil)
	return p
}

// connID is the request Client identity of the port's n-th connection:
// unique across the deployment, because it carries the node's ID.
func (p *ClientPort) connID(n uint64) uint64 {
	return (uint64(int64(p.id)+1) << 32) | n
}

// invoke runs fn as one turn of the node's machine.
func (p *ClientPort) invoke(fn func()) {
	if p.runner == nil {
		fn()
		return
	}
	p.runner.Invoke(fn)
}

// AcceptClients starts accepting client connections. Idempotent; see
// newClientPort for why accepting is separate from binding.
func (p *ClientPort) AcceptClients() {
	p.accept.Do(func() { go p.acceptLoop() })
}

// node returns the currently-serving protocol node.
func (p *ClientPort) node() *core.Node { return p.nodeP.Load() }

// hub returns the currently-installed event hub (nil disables watches).
func (p *ClientPort) hub() *events.Hub { return p.hubP.Load() }

// SetNode binds the port to its protocol node and event hub (nil disables
// the watch surface); the node must have the port among its Consumers.
// Call it after crash recovery and before the node is attached: the
// port records the recovered watermark for its WATCH acks. It is the one
// way a port is bound: at boot, and on the in-place restart path
// (Replica.restart), where an evicted node comes back as a
// protocol-level joiner on the same runner, ports and addresses.
// Operations in flight against the old node complete through its draining
// apply stage or are failed by the caller. Existing watches die with the
// old hub (their cycles predate the joiner's state); clients re-register
// and resume.
func (p *ClientPort) SetNode(node *core.Node, hub *events.Hub) {
	p.nodeP.Store(node)
	p.bound.Store(node.Committed())
	p.hubP.Store(hub)
}

// Addr returns the bound client address.
func (p *ClientPort) Addr() string { return p.ln.Addr().String() }

// SetDropReplies switches reply-loss fault injection on or off at
// runtime. While on, the port silently discards every response instead
// of writing it to the socket: ops still enter consensus, commit and
// apply, but their clients never hear back — the committed-but-
// unacknowledged window that forces a client retry of a committed op,
// made deterministic for crash-failover tests.
func (p *ClientPort) SetDropReplies(on bool) { p.dropReplies.Store(on) }

// Outstanding returns the number of accepted, not-yet-answered requests.
func (p *ClientPort) Outstanding() int64 { return p.outstanding.Load() }

// admitRequest counts one accepted request into the outstanding gauge
// and the running total. submitOp and the session frames admit through
// here; finishLocked undoes only the gauge, and failPending, retiring a
// dead connection, undoes it for all of its entries.
func (p *ClientPort) admitRequest() {
	p.outstanding.Add(1)
	p.stats.requests.Add(1)
}

// RegisterMetrics exports the client port's instruments into reg under
// the canopus_client_* names with the given constant labels. Safe on a
// nil registry.
func (p *ClientPort) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.GaugeFunc("canopus_client_connections",
		"Open client connections.",
		func() float64 {
			p.mu.Lock()
			n := len(p.conns) - 1 // exclude the SubmitLocal pseudo-connection
			p.mu.Unlock()
			return float64(n)
		}, labels...)
	reg.CounterFunc("canopus_client_connections_total",
		"Client connections accepted.",
		p.stats.conns.Load, labels...)
	reg.CounterFunc("canopus_client_bad_preamble_total",
		"Client connections closed for a wrong, incomplete or late preamble.",
		p.stats.badPreamble.Load, labels...)
	reg.GaugeFunc("canopus_client_inflight_requests",
		"Accepted, not-yet-answered client requests.",
		func() float64 { return float64(p.outstanding.Load()) }, labels...)
	reg.CounterFunc("canopus_client_requests_total",
		"Client requests admitted.",
		p.stats.requests.Load, labels...)
	reg.CounterFunc("canopus_client_replies_dropped_total",
		"Reply buffers discarded (fault injection or departed connection).",
		p.stats.dropped.Load, labels...)
}

// Connect opens a connection whose driver wake calls (without blocking)
// whenever answers are buffered for Take or the port closes it, and
// hangup, when not nil, when the port drops it without a flush.
func (p *ClientPort) Connect(wake, hangup func()) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	cc := &Conn{id: p.connID(p.nextID), p: p, pending: make(map[uint64]pendingEntry), wake: wake, hangup: hangup}
	p.conns[cc.id] = cc
	return cc
}

// Take hands the driver the answers buffered so far (a wire.EncodePool
// buffer, nil when there are none) and whether the port is closing the
// connection.
func (cc *Conn) Take() ([]byte, bool) {
	cc.outMu.Lock()
	defer cc.outMu.Unlock()
	buf := cc.out
	cc.out = nil
	return buf, cc.closing
}

// Serve submits the whole request frames in b, grouped as one socket
// read of them is.
func (cc *Conn) Serve(b []byte) error {
	err := wire.EachClientFrame(b, cc.frame)
	cc.flush()
	return err
}

// frame parses one request into the group and submits a full group.
func (cc *Conn) frame(payload []byte) error {
	cc.group = slices.Grow(cc.group, 1)[:len(cc.group)+1] // slots keep their Ops backing arrays
	if err := wire.ParseClientRequestV3Into(payload, &cc.group[len(cc.group)-1], &cc.arena); err != nil {
		cc.group = cc.group[:len(cc.group)-1]
		return err
	}
	if len(cc.group) == maxGroup {
		cc.flush()
	}
	return nil
}

// flush submits the group; its arena does not outlive it.
func (cc *Conn) flush() {
	if len(cc.group) > 0 {
		cc.p.submit(cc, cc.group)
		cc.group, cc.arena = cc.group[:0], nil
	}
}

func (p *ClientPort) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.stats.conns.Add(1)
		wake := make(chan struct{}, 1)
		cc := p.Connect(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		}, func() { conn.Close() })
		p.writers.Add(1)
		go p.writeLoop(cc, conn, wake)
		go p.handle(cc, conn)
	}
}

// preambleTimeout bounds how long an accepted socket may take to send its
// 4-byte preamble: a connect that never speaks (a health check, a port
// scan) must not hold a connection slot and two goroutines for ever. A
// variable only so a test can shorten it.
var preambleTimeout = 10 * time.Second

// badPreambleReply is what a connection that opened with anything but
// wire.ClientMagicV3 is told before it is closed — readable by whoever
// typed into telnet or nc, and by a program built for a protocol version
// this port no longer serves.
const badPreambleReply = "ERR canopus: binary protocol v3 only (use canopus-client)\n"

// handle drives one connection's read side until EOF or protocol error:
// the preamble, then every complete frame a socket read returned, parsed
// into one group (see Conn.frame) and submitted when the burst ends.
func (p *ClientPort) handle(cc *Conn, conn net.Conn) {
	defer func() {
		// The read side is done (EOF or protocol error), but submitted
		// requests may still be in consensus: wait briefly so their
		// replies are flushed before the writer closes the socket (a
		// client that half-closes after its last request still gets every
		// answer).
		p.dropWatches(cc)
		await(time.Now().Add(5*time.Second), 200*time.Microsecond, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return len(cc.pending) == 0
		})
		p.Disconnect(cc)
	}()
	var magic [4]byte
	conn.SetReadDeadline(time.Now().Add(preambleTimeout))
	_, err := io.ReadFull(conn, magic[:])
	if err != nil || magic != wire.ClientMagicV3 {
		p.stats.badPreamble.Add(1)
		if err == nil {
			// Nothing was submitted, so the writer has nothing to write:
			// this goroutine may. Best effort: the connection is closed
			// whether or not the peer still takes the line.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			_, _ = io.WriteString(conn, badPreambleReply)
		}
		return
	}
	conn.SetReadDeadline(time.Time{})

	cc.group = make([]wire.ClientRequestV2, 0, maxGroup)
	// Whatever ends the read side — EOF, a reset, a malformed frame — is
	// answered the same way, by the deferred Disconnect.
	_ = wire.ReadClientFrames(conn, cc.frame, cc.flush)
}

// Disconnect retires a connection whose client is gone: its watches stop
// and its requests in flight are no longer awaited (their answers, if
// they commit, are dropped).
func (p *ClientPort) Disconnect(cc *Conn) {
	p.dropWatches(cc)
	p.failPending(cc)
	p.mu.Lock()
	delete(p.conns, cc.id)
	p.mu.Unlock()
	cc.shut(false)
}

// shut marks the connection closing and tells its driver. With drop set
// it also discards the answers not yet taken and hangs up at once, even
// under a writer blocked on a client that does not read.
func (cc *Conn) shut(drop bool) {
	cc.outMu.Lock()
	cc.closing = true
	if drop && cc.out != nil {
		wire.EncodePool.Put(cc.out)
		cc.out = nil
	}
	cc.outMu.Unlock()
	cc.wake()
	if drop && cc.hangup != nil {
		cc.hangup()
	}
}

// writeLoop flushes one connection's response buffer: each wakeup writes
// everything accumulated since the last flush with a single syscall.
func (p *ClientPort) writeLoop(cc *Conn, conn net.Conn, wake chan struct{}) {
	defer p.writers.Done()
	defer conn.Close()
	for range wake {
		for {
			buf, closing := cc.Take()
			if len(buf) == 0 {
				if closing {
					return
				}
				break
			}
			if p.dropReplies.Load() {
				// Fault injection: the response was produced (the op
				// committed and left the pending set) but never reaches
				// the client — the reply-loss crash window, made
				// deterministic for tests.
				p.stats.dropped.Add(1)
				wire.EncodePool.Put(buf)
				continue
			}
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := conn.Write(buf)
			wire.EncodePool.Put(buf)
			if err != nil {
				return
			}
		}
	}
}

// reply appends one encoded response to the connection's output buffer
// and rings its writer.
func (cc *Conn) reply(resp *wire.ClientResponseV2) {
	cc.pushBudget(resp, 0, true)
}

// pushBudget appends like reply but refuses — without appending — when
// the unflushed buffer already exceeds budget, reporting false. Terminal
// frames are exempt: an overflow notice must reach the client even
// though the buffer is exactly what overflowed. A closing connection
// also reports false.
func (cc *Conn) pushBudget(resp *wire.ClientResponseV2, budget int, terminal bool) bool {
	cc.outMu.Lock()
	if cc.closing {
		cc.outMu.Unlock()
		return false
	}
	if !terminal && len(cc.out) > budget {
		cc.outMu.Unlock()
		return false
	}
	if cc.out == nil {
		cc.out = wire.EncodePool.Get(256)
	}
	cc.out = wire.AppendClientResponseV3(cc.out, resp)
	cc.outMu.Unlock()
	cc.wake()
	return true
}

// await polls done every interval until it reports true, which await
// then returns, or deadline passes.
func await(deadline time.Time, every time.Duration, done func() bool) bool {
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(every)
	}
	return true
}

// Stop shuts the port down gracefully: stop accepting, reject new
// requests, wait up to drain for in-flight requests to be answered, then
// flush and close every connection. It reports whether the drain
// completed (false means the timeout cut it short).
func (p *ClientPort) Stop(drain time.Duration) bool {
	p.draining.Store(true)
	p.ln.Close()
	deadline := time.Now().Add(drain)
	// Deferred Sequential reads (parked on a future commit cycle) do not
	// gate the drain: on an idle or stalling node they would never
	// complete, so only genuinely in-flight work is awaited and the
	// stragglers are then rejected with a draining code.
	drained := await(deadline, time.Millisecond, func() bool { return p.outstanding.Load() <= p.deferredLocal.Load() })
	if p.outstanding.Load() > 0 {
		p.failWaiters()
		// Parked reads fail on the apply stage; give the failure a moment to propagate through the accounting.
		drained = await(deadline, time.Millisecond, func() bool { return p.outstanding.Load() == 0 }) && drained
	}
	// Local (Cluster.Submit) operations still unanswered after the drain
	// will never complete once the transport closes; honor the done
	// contract (ok=false) now.
	p.failPending(p.loc)
	p.shutAll(false)
	done := make(chan struct{})
	go func() { p.writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		p.shutAll(true) // a writer blocked on a client that does not read
		drained = false
	}
	return drained
}

// Abort tears the port down immediately — close the listener and sever
// every connection without draining. Tests use it to simulate a node
// crash as seen by clients (in-flight requests are simply lost).
func (p *ClientPort) Abort() {
	p.draining.Store(true)
	p.ln.Close()
	// The node is dead: its in-flight requests will never be answered,
	// so retire their accounting. Socket clients recover via failover;
	// local (Cluster.Submit) callers are owed their done callback, with
	// ok=false — and deferred local reads their abandonment.
	conns := p.shutAll(true)
	p.failWaiters()
	for _, cc := range conns {
		p.failPending(cc)
	}
}

// failWaiters fails the node's parked local reads and session waiters.
func (p *ClientPort) failWaiters() {
	p.invoke(func() {
		p.node().FailLocalReads()
		p.node().FailSessionWaiters()
	})
}

// shutAll stops every connection's watches and closes it (see shut),
// returning the connections.
func (p *ClientPort) shutAll(drop bool) []*Conn {
	p.mu.Lock()
	conns := slices.Collect(maps.Values(p.conns))
	p.mu.Unlock()
	for _, cc := range conns {
		p.dropWatches(cc)
		cc.shut(drop)
	}
	return conns
}

// failPending retires every pending entry of one connection, completing
// local done callbacks with ok=false (the Cluster.Submit contract: done
// always fires).
func (p *ClientPort) failPending(cc *Conn) {
	p.mu.Lock()
	p.dropSessPendingLocked(cc)
	p.outstanding.Add(int64(-len(cc.pending)))
	pending := cc.pending
	cc.pending = nil
	p.mu.Unlock()
	for _, entry := range pending {
		if entry.done != nil {
			entry.done(nil, false)
		}
	}
}
