package livecluster

import (
	"fmt"
	"io"
	"net"
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
// buffers (pooled) that per-connection writer goroutines flush. Neither
// the reply encode nor the socket write ever holds the node's machine
// lock.
type ClientPort struct {
	runner *transport.Runner
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
	conns  map[uint64]*clientConn
	loc    *clientConn // pseudo-connection carrying SubmitLocal traffic

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

type clientConn struct {
	id   uint64
	conn net.Conn // nil for the SubmitLocal pseudo-connection

	// pending maps request Seq -> entry; seq is the per-connection
	// submission counter. Both are guarded by the port mutex.
	pending map[uint64]pendingEntry
	seq     uint64

	// watches maps the client-chosen watch ID to the hub's registration
	// ID (nil until the first WATCH). Guarded by the port mutex. Entries
	// can go stale when the hub overflows a watch — its sink may not
	// take the port mutex — which is harmless: hub.Cancel is idempotent.
	watches map[uint64]uint64

	outMu   sync.Mutex
	out     []byte // encoded responses awaiting flush
	wake    chan struct{}
	closing bool
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
	p := &ClientPort{
		runner:      runner,
		ln:          ln,
		conns:       make(map[uint64]*clientConn),
		sessPending: make(map[sessKey]pendingEntry),
	}
	// The SubmitLocal pseudo-connection has no socket and no writer:
	// every pending entry completes through its done callback. It sits in
	// conns like any other, so Stop and Abort retire it with the rest.
	p.nextID++
	p.loc = &clientConn{
		id:      p.connID(p.nextID),
		pending: make(map[uint64]pendingEntry),
		wake:    make(chan struct{}, 1),
	}
	p.conns[p.loc.id] = p.loc
	return p, nil
}

// connID is the request Client identity of the port's n-th connection:
// unique across the deployment, because it carries the node's ID.
func (p *ClientPort) connID(n uint64) uint64 {
	return (uint64(int64(p.runner.ID())+1) << 32) | n
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
// (Cluster.RestartNode), where an evicted node comes back as a
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
// here; finishLocked undoes only the gauge, and the bulk retirements of a
// dead connection (teardown, failPending) undo it for all of its entries.
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

func (p *ClientPort) newConn(conn net.Conn) *clientConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	cc := &clientConn{
		id:      p.connID(p.nextID),
		conn:    conn,
		pending: make(map[uint64]pendingEntry),
		wake:    make(chan struct{}, 1),
	}
	p.conns[cc.id] = cc
	p.stats.conns.Add(1)
	return cc
}

func (p *ClientPort) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := p.newConn(conn)
		p.writers.Add(1)
		go p.writeLoop(cc)
		go p.handle(cc)
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
// the preamble, then every complete frame a socket read returned parsed
// into one group — values copied once, into one arena that travels into
// consensus with the requests — and submitted when the burst ends or the
// group is full.
func (p *ClientPort) handle(cc *clientConn) {
	defer p.teardown(cc)
	var magic [4]byte
	cc.conn.SetReadDeadline(time.Now().Add(preambleTimeout))
	_, err := io.ReadFull(cc.conn, magic[:])
	if err != nil || magic != wire.ClientMagicV3 {
		p.stats.badPreamble.Add(1)
		if err == nil {
			// Nothing was submitted, so the writer has nothing to write:
			// this goroutine may. Best effort: the connection is closed
			// whether or not the peer still takes the line.
			cc.conn.SetWriteDeadline(time.Now().Add(time.Second))
			_, _ = io.WriteString(cc.conn, badPreambleReply)
		}
		return
	}
	cc.conn.SetReadDeadline(time.Time{})

	group := make([]wire.ClientRequestV2, 0, maxGroup)
	var arena []byte
	flush := func() {
		if len(group) > 0 {
			p.submit(cc, group)
			// Slots keep their Ops backing arrays; the arena does not
			// outlive its group.
			group, arena = group[:0], nil
		}
	}
	// Whatever ends the read side — EOF, a reset, a malformed frame — is
	// answered the same way, by teardown.
	_ = wire.ReadClientFrames(cc.conn, func(payload []byte) error {
		group = group[:len(group)+1] // a full group was flushed, so there is room
		if err := wire.ParseClientRequestV3Into(payload, &group[len(group)-1], &arena); err != nil {
			group = group[:len(group)-1]
			return err
		}
		if len(group) == maxGroup {
			flush()
		}
		return nil
	}, flush)
}

// teardown retires the connection. The read side is already done (EOF
// or protocol error), but submitted requests may still be in consensus:
// wait briefly so their replies reach the output buffer and are flushed
// before the writer closes the socket (a client that half-closes after
// its last request still gets every answer).
func (p *ClientPort) teardown(cc *clientConn) {
	// Watches die with the read side: no one is left to UNWATCH, and the
	// writer is about to close, so stop the event flow now rather than
	// letting every future cycle render frames nobody will read.
	p.dropWatches(cc)
	p.waitIdle(cc, 5*time.Second)
	p.mu.Lock()
	delete(p.conns, cc.id)
	if n := len(cc.pending); n > 0 {
		p.outstanding.Add(int64(-n))
	}
	cc.pending = nil
	p.dropSessPendingLocked(cc)
	p.mu.Unlock()
	cc.outMu.Lock()
	cc.closing = true
	cc.outMu.Unlock()
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// writeLoop flushes one connection's response buffer: each wakeup writes
// everything accumulated since the last flush with a single syscall.
func (p *ClientPort) writeLoop(cc *clientConn) {
	defer p.writers.Done()
	for range cc.wake {
		for {
			cc.outMu.Lock()
			buf := cc.out
			cc.out = nil
			closing := cc.closing
			cc.outMu.Unlock()
			if len(buf) == 0 {
				if closing {
					cc.conn.Close()
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
			cc.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := cc.conn.Write(buf)
			wire.EncodePool.Put(buf)
			if err != nil {
				cc.conn.Close()
				return
			}
		}
	}
}

// reply appends one encoded response to the connection's output buffer
// and rings its writer.
func (cc *clientConn) reply(resp *wire.ClientResponseV2) {
	cc.pushBudget(resp, 0, true)
}

// pushBudget appends like reply but refuses — without appending — when
// the unflushed buffer already exceeds budget, reporting false. Terminal
// frames are exempt: an overflow notice must reach the client even
// though the buffer is exactly what overflowed. A closing connection
// also reports false.
func (cc *clientConn) pushBudget(resp *wire.ClientResponseV2, budget int, terminal bool) bool {
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
	select {
	case cc.wake <- struct{}{}:
	default:
	}
	return true
}

// waitIdle blocks until the connection has no pending requests (its
// replies are buffered for the writer) or timeout elapses.
func (p *ClientPort) waitIdle(cc *clientConn, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		n := len(cc.pending)
		p.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Stop shuts the port down gracefully: stop accepting, reject new
// requests, wait up to drain for in-flight requests to be answered, then
// flush and close every connection. It reports whether the drain
// completed (false means the timeout cut it short).
func (p *ClientPort) Stop(drain time.Duration) bool {
	p.draining.Store(true)
	p.ln.Close()
	deadline := time.Now().Add(drain)
	drained := true
	// Deferred Sequential reads (parked on a future commit cycle) do not
	// gate the drain: on an idle or stalling node they would never
	// complete, so only genuinely in-flight work is awaited and the
	// stragglers are then rejected with a draining code.
	for p.outstanding.Load() > p.deferredLocal.Load() {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p.outstanding.Load() > 0 {
		p.runner.Invoke(func() {
			p.node().FailLocalReads()
			p.node().FailSessionWaiters()
		})
		// Parked reads fail on the apply stage; give the failure a moment to propagate through the accounting.
		for p.outstanding.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if p.outstanding.Load() > 0 {
			drained = false
		}
	}
	// Local (Cluster.Submit) operations still unanswered after the drain
	// will never complete once the transport closes; honor the done
	// contract (ok=false) now.
	p.failPending(p.loc)
	p.mu.Lock()
	conns := make([]*clientConn, 0, len(p.conns))
	for _, cc := range p.conns {
		conns = append(conns, cc)
	}
	p.mu.Unlock()
	for _, cc := range conns {
		p.dropWatches(cc)
		cc.outMu.Lock()
		cc.closing = true
		cc.outMu.Unlock()
		select {
		case cc.wake <- struct{}{}:
		default:
		}
	}
	done := make(chan struct{})
	go func() { p.writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		drained = false
		for _, cc := range conns {
			if cc.conn != nil {
				cc.conn.Close()
			}
		}
	}
	return drained
}

// Abort tears the port down immediately — close the listener and sever
// every connection without draining. Tests use it to simulate a node
// crash as seen by clients (in-flight requests are simply lost).
func (p *ClientPort) Abort() {
	p.draining.Store(true)
	p.ln.Close()
	p.mu.Lock()
	conns := make([]*clientConn, 0, len(p.conns))
	for _, cc := range p.conns {
		conns = append(conns, cc)
	}
	p.mu.Unlock()
	for _, cc := range conns {
		p.dropWatches(cc)
		cc.outMu.Lock()
		cc.closing = true
		cc.outMu.Unlock()
		if cc.conn != nil {
			cc.conn.Close()
		}
		select {
		case cc.wake <- struct{}{}:
		default:
		}
	}
	// The node is dead: its in-flight requests will never be answered,
	// so retire their accounting. Socket clients recover via failover;
	// local (Cluster.Submit) callers are owed their done callback, with
	// ok=false — and deferred local reads their abandonment.
	p.runner.Invoke(func() {
		p.node().FailLocalReads()
		p.node().FailSessionWaiters()
	})
	for _, cc := range conns {
		p.failPending(cc)
	}
}

// failPending retires every pending entry of one connection, completing
// local done callbacks with ok=false (the Cluster.Submit contract: done
// always fires).
func (p *ClientPort) failPending(cc *clientConn) {
	p.mu.Lock()
	p.dropSessPendingLocked(cc)
	if len(cc.pending) == 0 {
		cc.pending = nil
		p.mu.Unlock()
		return
	}
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
