// Package transport runs protocol machines over real TCP connections:
// the same engine.Machine code that runs on the simulator serves live
// traffic here. Frames are length-prefixed ([u32 length][i32 sender]
// [encoded message]); connections are dialed lazily, redialed with
// backoff, and all machine callbacks are serialized by a per-node mutex
// so protocol code stays lock-free.
//
// Sends are coalesced: messages emitted during one machine turn (one
// Invoke or Timer callback, or every Recv of one socket read) are encoded
// back to back into a pooled per-peer buffer and handed to that peer's
// writer goroutine when the turn ends, so a turn costs one buffer flush
// per destination — not one syscall and one allocation per frame.
//
// Receives are batched the same way: a reader decodes every complete
// frame one socket read returned and delivers them in a single machine
// turn, so the replies to a burst leave in one vectored write per peer.
// Raft control messages are decoded into per-connection scratch that is
// reused after the turn (see engine.Machine.Recv for the ownership rule).
//
// Timers are the runner's own: the deadlines machines arm with After sit
// in a heap behind one reusable time.Timer, and every timer that is due
// when it fires runs in the same machine turn.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canopus/internal/engine"
	"canopus/internal/metrics"
	"canopus/internal/wire"
)

// maxFrame bounds incoming frame sizes (defense against corrupt peers).
const maxFrame = 64 << 20

// maxQueuedBytes bounds the unsent backlog per peer; beyond it new turn
// buffers are dropped (protocol-level retries recover, exactly as on a
// lossy network).
const maxQueuedBytes = 32 << 20

// dialBackoff is how long a writer waits after a failed dial before
// trying that peer again; batches arriving in between are dropped.
const dialBackoff = 100 * time.Millisecond

// Runner hosts one protocol machine on a TCP endpoint.
type Runner struct {
	id    wire.NodeID
	peers map[wire.NodeID]string // peer -> address

	mu      sync.Mutex // serializes all machine callbacks
	machine engine.Machine
	start   time.Time
	rng     *rand.Rand

	// timers holds the pending After deadlines as a min-heap on (at,
	// seq); wake is armed for the earliest, wakeAt (0: not armed). All
	// guarded by mu.
	timers   []pendingTimer
	timerSeq uint64
	wake     *time.Timer
	wakeAt   time.Duration

	// pending accumulates this turn's encoded frames per destination;
	// guarded by mu (sends only happen inside machine turns).
	pending map[wire.NodeID][]byte
	scratch []byte // multicast encode-once buffer, guarded by mu
	// lastSent remembers where this turn's most recent Send encoded its
	// frame, so the same message sent to the next peer is copied, not
	// encoded again. Guarded by mu; cleared when the turn ends.
	lastSent struct {
		m        wire.Message
		to       wire.NodeID
		off, end int
	}

	connMu sync.Mutex
	conns  map[wire.NodeID]*peerConn

	// inMu/inConns track accepted (inbound) connections so Close can
	// sever them: a closed runner must look dead to its peers exactly
	// like a killed process would, or senders never notice a restart.
	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	// up tracks, per peer, whether an outbound connection is currently
	// established; lazily populated because peer address maps may be
	// filled in after construction.
	upMu sync.Mutex
	up   map[wire.NodeID]*atomic.Bool

	listener net.Listener
	done     chan struct{}
	closed   bool

	// stats are the transport's operational counters, updated with
	// atomics from the turn path and the writer/reader goroutines and
	// exported through RegisterMetrics.
	stats runnerStats

	// Logf logs transport-level events; defaults to log.Printf.
	Logf func(format string, args ...interface{})

	// OnPeerState, when set before Serve/Attach, is called on every
	// outbound connection-state transition: up=true when a dial to the
	// peer succeeds, up=false when the connection is lost (write error)
	// or a redial fails. It runs on the peer's writer goroutine and must
	// not block; chaos harnesses use it to observe partitions healing in
	// real time.
	OnPeerState func(peer wire.NodeID, up bool)
}

// runnerStats counts transport work across all peers. Everything is
// atomic: flushTurn runs under the machine lock, but writers and readers
// are per-connection goroutines.
type runnerStats struct {
	turnBufs atomic.Uint64 // coalesced turn buffers handed to writers
	drops    atomic.Uint64 // turn buffers dropped to backlog caps
	writes   atomic.Uint64 // vectored batch writes issued
	bytesOut atomic.Uint64 // payload bytes written to peers
	bytesIn  atomic.Uint64 // frame bytes (header+body) read from peers
	reads    atomic.Uint64 // socket reads that delivered at least one frame
	connects atomic.Uint64 // outbound peer transitions to up (dial successes)
	resets   atomic.Uint64 // outbound peer transitions to down (lost conns)
}

// RegisterMetrics exports the transport's counters into reg under the
// canopus_transport_* names with the given constant labels. Safe on a
// nil registry.
func (r *Runner) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.CounterFunc("canopus_transport_turn_buffers_total",
		"Coalesced turn buffers handed to peer writers.",
		r.stats.turnBufs.Load, labels...)
	reg.CounterFunc("canopus_transport_dropped_buffers_total",
		"Turn buffers dropped because a peer's backlog cap was hit.",
		r.stats.drops.Load, labels...)
	reg.CounterFunc("canopus_transport_writes_total",
		"Vectored batch writes to peers (one syscall per drained queue).",
		r.stats.writes.Load, labels...)
	reg.CounterFunc("canopus_transport_sent_bytes_total",
		"Bytes written to peer connections.",
		r.stats.bytesOut.Load, labels...)
	reg.CounterFunc("canopus_transport_received_bytes_total",
		"Frame bytes (header and body) read from peer connections.",
		r.stats.bytesIn.Load, labels...)
	reg.CounterFunc("canopus_transport_read_turns_total",
		"Socket reads from peers that completed at least one frame (one machine turn each).",
		r.stats.reads.Load, labels...)
	reg.CounterFunc("canopus_transport_peer_connects_total",
		"Outbound peer connection establishments (first dials and redials).",
		r.stats.connects.Load, labels...)
	reg.CounterFunc("canopus_transport_peer_resets_total",
		"Outbound peer connections lost (write errors and failed redials).",
		r.stats.resets.Load, labels...)
	// Per-peer liveness gauges: peers are read at registration time, so
	// callers must fill the address map first (livecluster does).
	ids := make([]wire.NodeID, 0, len(r.peers))
	for p := range r.peers {
		if p != r.id {
			ids = append(ids, p)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, p := range ids {
		st := r.upState(p)
		reg.GaugeFunc("canopus_transport_peer_up",
			"1 while an outbound connection to the peer is established.",
			func() float64 {
				if st.Load() {
					return 1
				}
				return 0
			}, append(append([]metrics.Label{}, labels...), metrics.Label{Key: "peer", Value: p.String()})...)
	}
}

// upState returns (creating if needed) the peer's outbound-liveness flag.
func (r *Runner) upState(to wire.NodeID) *atomic.Bool {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	if r.up == nil {
		r.up = make(map[wire.NodeID]*atomic.Bool)
	}
	st, ok := r.up[to]
	if !ok {
		st = new(atomic.Bool)
		r.up[to] = st
	}
	return st
}

// PeerUp reports whether an outbound connection to the peer is currently
// established. Safe from any goroutine.
func (r *Runner) PeerUp(to wire.NodeID) bool { return r.upState(to).Load() }

// markPeer records an outbound connection-state transition, firing
// OnPeerState and the connect/reset counters only on actual changes
// (redial churn against a dead peer stays one transition).
func (r *Runner) markPeer(to wire.NodeID, up bool) {
	st := r.upState(to)
	if st.Swap(up) == up {
		return
	}
	if up {
		r.stats.connects.Add(1)
	} else {
		r.stats.resets.Add(1)
		r.Logf("transport: peer %v down", to)
	}
	if cb := r.OnPeerState; cb != nil {
		cb(to, up)
	}
}

// peerConn is the outbound state for one peer: a queue of coalesced turn
// buffers drained by a dedicated writer goroutine.
type peerConn struct {
	mu          sync.Mutex
	queue       [][]byte
	spare       [][]byte // drained queue backing awaiting reuse
	queuedBytes int
	inflight    int // bytes taken off the queue but not yet written
	dropped     uint64
	wake        chan struct{} // 1-buffered writer doorbell

	// iov and wr belong to the writer goroutine: iov is the reusable
	// backing array for a vectored write's buffer list, wr the header
	// net.Buffers.WriteTo consumes. Living here (not on writeBatch's
	// stack, which WriteTo's pointer receiver would force to the heap)
	// makes a socket write allocate nothing.
	iov [][]byte
	wr  net.Buffers
}

// NewRunner creates a runner for node id listening on listen, with the
// full peer address map (including, optionally, its own entry).
func NewRunner(id wire.NodeID, listen string, peers map[wire.NodeID]string, seed int64) (*Runner, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	r := &Runner{
		id:       id,
		peers:    peers,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(seed ^ int64(id))),
		pending:  make(map[wire.NodeID][]byte),
		conns:    make(map[wire.NodeID]*peerConn),
		listener: ln,
		done:     make(chan struct{}),
		Logf:     log.Printf,
	}
	return r, nil
}

// Addr returns the bound listen address.
func (r *Runner) Addr() net.Addr { return r.listener.Addr() }

// Attach installs and initializes the machine. It must be called before
// Serve and before any Invoke.
func (r *Runner) Attach(m engine.Machine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.machine = m
	m.Init(r)
	r.flushTurn()
}

// Serve accepts connections until Close, attaching m first when non-nil
// (a convenience for callers that do not need Attach separately). It
// returns after the listener shuts down.
func (r *Runner) Serve(m engine.Machine) {
	if m != nil {
		r.Attach(m)
	}
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			r.Logf("transport: accept: %v", err)
			continue
		}
		go r.readLoop(conn)
	}
}

// Close shuts the runner down.
func (r *Runner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.wake != nil {
		r.wake.Stop()
	}
	clear(r.timers)
	r.timers = nil
	r.mu.Unlock()
	close(r.done)
	r.listener.Close()
	r.connMu.Lock()
	for _, pc := range r.conns {
		pc.mu.Lock()
		pc.queue, pc.queuedBytes = nil, 0
		pc.mu.Unlock()
	}
	// Nil the map as the connMu-guarded shutdown signal: peer() must not
	// consult r.closed, which is guarded by the unrelated machine mutex.
	r.conns = nil
	r.connMu.Unlock()
	r.inMu.Lock()
	for c := range r.inConns {
		c.Close()
	}
	r.inConns = nil
	r.inMu.Unlock()
}

// Drain blocks until every peer's outbound queue has been handed to the
// kernel (or timeout elapses). Graceful shutdown uses it so the final
// frames of a turn are not torn off mid-write by Close.
func (r *Runner) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.queuedBytes() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *Runner) queuedBytes() int {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	total := 0
	for _, pc := range r.conns {
		pc.mu.Lock()
		total += pc.queuedBytes + pc.inflight
		pc.mu.Unlock()
	}
	return total
}

// Invoke runs fn inside the machine's serialization lock; servers use it
// to feed client requests into the node safely. Messages sent by fn are
// flushed, coalesced per destination, when fn returns.
func (r *Runner) Invoke(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
	r.flushTurn()
}

// --- engine.Env ---

// ID implements engine.Env.
func (r *Runner) ID() wire.NodeID { return r.id }

// Now implements engine.Env: wall time since runner start.
func (r *Runner) Now() time.Duration { return time.Since(r.start) }

// Rand implements engine.Env.
func (r *Runner) Rand() *rand.Rand { return r.rng }

// Go implements engine.Spawner: a live node's machine may run work beside
// its turns.
func (r *Runner) Go(fn func()) { go fn() }

// pendingTimer is one armed After: when it is due (on the runner's clock),
// what to fire, and the machine that armed it.
type pendingTimer struct {
	at      time.Duration
	seq     uint64 // arming order, the tie-break among equal deadlines
	tag     engine.TimerTag
	machine engine.Machine
}

func (a *pendingTimer) before(b *pendingTimer) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// After implements engine.Env using wall-clock time. It costs no
// allocation: the deadline goes into the runner's heap, and the runner's
// one time.Timer is re-armed only when the new deadline is the earliest.
// The arming machine is recorded so a timer never fires into a successor
// installed by a later Attach (livecluster.RestartNode replaces an evicted
// node with a joiner on the same runner; the old node's tick chain must
// die with it, not double the new node's).
func (r *Runner) After(d time.Duration, tag engine.TimerTag) {
	// Called from the machine turn, under r.mu.
	r.timerSeq++
	t := pendingTimer{at: r.Now() + max(d, 0), seq: r.timerSeq, tag: tag, machine: r.machine}
	i := len(r.timers)
	r.timers = append(r.timers, t)
	for i > 0 { // sift up
		parent := (i - 1) / 2
		if !t.before(&r.timers[parent]) {
			break
		}
		r.timers[i] = r.timers[parent]
		i = parent
	}
	r.timers[i] = t
	if i == 0 {
		r.armWake()
	}
}

// popTimer removes and returns the earliest pending timer.
func (r *Runner) popTimer() pendingTimer {
	h := r.timers
	top, n := h[0], len(h)-1
	t := h[n]
	h[n] = pendingTimer{} // do not pin the machine
	h = h[:n]
	i := 0
	for { // sift t down from the root
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].before(&h[child]) {
			child++
		}
		if !h[child].before(&t) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = t
	}
	r.timers = h
	return top
}

// armWake points the runner's time.Timer at the earliest pending deadline,
// unless it already is. Called with r.mu held.
func (r *Runner) armWake() {
	if len(r.timers) == 0 || r.closed {
		return
	}
	at := r.timers[0].at
	if r.wakeAt != 0 && r.wakeAt <= at {
		return // fires no later than needed; fireTimers re-arms
	}
	r.wakeAt = max(at, 1)
	if d := at - r.Now(); r.wake == nil {
		r.wake = time.AfterFunc(d, r.fireTimers)
	} else {
		r.wake.Reset(d)
	}
}

// fireTimers runs every due timer in one machine turn, in deadline order,
// and re-arms for the next. A timer armed by a machine that has since been
// replaced is dropped.
func (r *Runner) fireTimers() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wakeAt = 0
	if r.closed {
		return
	}
	// Due as of now: what a handler arms for "at once" waits for the next
	// turn, so a machine cannot hold the turn for ever.
	for now := r.Now(); len(r.timers) > 0 && r.timers[0].at <= now; {
		if t := r.popTimer(); t.machine == r.machine && t.machine != nil {
			r.machine.Timer(t.tag)
		}
	}
	r.flushTurn()
	r.armWake()
}

// Send implements engine.Env. The frame is encoded into the turn's
// per-peer buffer; delivery is asynchronous and failures drop the
// message (protocol retries recover, exactly as on a lossy-at-crash
// network).
//
// A message sent to several peers in a row (a Raft leader replicating
// one entry, an emulator answering several fetches of one state) is
// encoded once and copied for the rest: messages are immutable once
// sent, so the same pointer (every wire.Message is one) means the same
// bytes.
func (r *Runner) Send(to wire.NodeID, m wire.Message) {
	buf, ok := r.pending[to]
	if !ok {
		buf = wire.EncodePool.Get(8 + m.WireSize())
	}
	off := len(buf)
	if last := &r.lastSent; last.m == m {
		// Appending a buffer's own sub-slice to itself is well defined.
		buf = append(buf, r.pending[last.to][last.off:last.end]...)
	} else {
		buf = appendFrame(buf, r.id, m)
		last.m = m
	}
	r.pending[to] = buf
	r.lastSent.to, r.lastSent.off, r.lastSent.end = to, off, len(buf)
}

// Multicast implements engine.Env (no switch assist on plain TCP: it is
// a send loop, but the message is encoded only once).
func (r *Runner) Multicast(to []wire.NodeID, m wire.Message) {
	if len(to) == 0 {
		return
	}
	r.scratch = appendFrame(r.scratch[:0], r.id, m)
	for _, dst := range to {
		buf, ok := r.pending[dst]
		if !ok {
			buf = wire.EncodePool.Get(len(r.scratch))
		}
		r.pending[dst] = append(buf, r.scratch...)
	}
}

// appendFrame appends one length-prefixed frame ([u32 length][i32 sender]
// [encoded message]) to b.
func appendFrame(b []byte, from wire.NodeID, m wire.Message) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = m.AppendTo(b)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-8))
	binary.LittleEndian.PutUint32(b[start+4:], uint32(int32(from)))
	return b
}

// flushTurn hands this turn's coalesced buffers to the per-peer writers.
// Called with r.mu held at the end of every machine turn; it performs no
// syscalls and never blocks on the network.
func (r *Runner) flushTurn() {
	r.lastSent.m = nil // the frame it points into is about to change hands
	if len(r.pending) == 0 {
		return
	}
	for to, buf := range r.pending {
		delete(r.pending, to)
		if len(buf) == 0 {
			wire.EncodePool.Put(buf)
			continue
		}
		pc := r.peer(to)
		if pc == nil {
			wire.EncodePool.Put(buf)
			continue // closed, or peer unknown
		}
		pc.mu.Lock()
		if pc.queuedBytes+len(buf) > maxQueuedBytes {
			pc.dropped++
			n := pc.dropped
			pc.mu.Unlock()
			r.stats.drops.Add(1)
			wire.EncodePool.Put(buf)
			// Log at power-of-two counts: recurring congestion episodes
			// stay visible without flooding the log.
			if n&(n-1) == 0 {
				r.Logf("transport: backlog to %v over %d bytes; %d turn buffers dropped so far (protocol retries recover)",
					to, maxQueuedBytes, n)
			}
			continue
		}
		if pc.queue == nil && pc.spare != nil {
			// Reuse the backing array the writer just drained instead of
			// growing a fresh queue every turn.
			pc.queue, pc.spare = pc.spare[:0], nil
		}
		pc.queue = append(pc.queue, buf)
		pc.queuedBytes += len(buf)
		pc.mu.Unlock()
		r.stats.turnBufs.Add(1)
		select {
		case pc.wake <- struct{}{}:
		default:
		}
	}
}

// peer returns (creating if needed) the outbound state for to, starting
// its writer goroutine on first use. Returns nil when the runner is
// closed or the peer has no known address.
func (r *Runner) peer(to wire.NodeID) *peerConn {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.conns == nil {
		return nil // closed
	}
	pc, ok := r.conns[to]
	if !ok {
		if _, known := r.peers[to]; !known {
			return nil
		}
		pc = &peerConn{wake: make(chan struct{}, 1)}
		r.conns[to] = pc
		go r.writeLoop(to, pc)
	}
	return pc
}

// writeLoop drains one peer's queue: each wakeup writes every queued turn
// buffer with a single vectored write. Dialing happens here, off the
// machine's lock, so a slow or dead peer never stalls protocol turns.
func (r *Runner) writeLoop(to wire.NodeID, pc *peerConn) {
	var conn net.Conn
	var lastDialFail time.Time
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-r.done:
			return
		case <-pc.wake:
		}
		for {
			pc.mu.Lock()
			batch := pc.queue
			pc.queue, pc.inflight, pc.queuedBytes = nil, pc.queuedBytes, 0
			pc.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			conn = r.writeBatch(conn, to, pc, batch, &lastDialFail)
			pc.mu.Lock()
			pc.inflight = 0
			if pc.spare == nil {
				// Hand the drained backing array back for the next turn.
				clear(batch)
				pc.spare = batch[:0]
			}
			pc.mu.Unlock()
		}
	}
}

// writeBatch writes one batch of turn buffers to the peer, dialing if
// needed, and returns the (possibly new or closed) connection. Buffers
// are returned to the encode pool afterwards regardless of outcome; the
// batch slice itself is the caller's to recycle (WriteTo consumes the
// list it is given, so the batch is copied into pc.iov first).
func (r *Runner) writeBatch(conn net.Conn, to wire.NodeID, pc *peerConn, batch [][]byte, lastDialFail *time.Time) net.Conn {
	defer func() {
		for _, b := range batch {
			wire.EncodePool.Put(b)
		}
	}()
	if conn == nil {
		if time.Since(*lastDialFail) < dialBackoff {
			return nil // recently unreachable; drop the batch
		}
		addr, ok := r.peers[to]
		if !ok {
			return nil
		}
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			*lastDialFail = time.Now()
			r.markPeer(to, false)
			return nil // dropped; protocol-level retries re-send what matters
		}
		conn = c
		r.markPeer(to, true)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	pc.iov = append(pc.iov[:0], batch...)
	pc.wr = pc.iov
	n, err := pc.wr.WriteTo(conn)
	clear(pc.iov) // do not pin buffers that go back to the pool
	r.stats.bytesOut.Add(uint64(n))
	if err != nil {
		conn.Close()
		r.markPeer(to, false)
		return nil
	}
	r.stats.writes.Add(1)
	return conn
}

// readBufSize is a reader's initial buffer: room for the frames of a few
// cycles, so that one read syscall usually returns a whole burst. A larger
// frame grows the buffer to fit.
const readBufSize = 64 << 10

// inbound is one decoded frame awaiting delivery.
type inbound struct {
	from wire.NodeID
	msg  wire.Message
}

// readLoop serves one accepted connection: each socket read is followed
// by decoding every complete frame received so far (off the machine
// lock) and delivering them in one machine turn. A frame that is
// oversized or does not decode closes the connection — after the frames
// ahead of it have been delivered.
func (r *Runner) readLoop(conn net.Conn) {
	defer conn.Close()
	r.inMu.Lock()
	if r.inConns == nil {
		select {
		case <-r.done: // closed runner: reject late accepts
			r.inMu.Unlock()
			return
		default:
		}
		r.inConns = make(map[net.Conn]struct{})
	}
	r.inConns[conn] = struct{}{}
	r.inMu.Unlock()
	defer func() {
		r.inMu.Lock()
		delete(r.inConns, conn)
		r.inMu.Unlock()
	}()
	var (
		buf  = make([]byte, readBufSize)
		have int          // buf[:have] is received and not yet consumed
		dec  wire.Decoder // scratch for this connection's control traffic
		turn []inbound    // reused across reads
	)
	for {
		n, err := conn.Read(buf[have:])
		have += n
		var used int
		var bad error
		turn, used, bad = r.decodeFrames(&dec, buf[:have], turn[:0])
		r.deliver(turn)
		clear(turn) // decoded messages must not outlive their turn here
		dec.Reset()
		if bad != nil {
			r.Logf("transport: %v", bad)
			return
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				select {
				case <-r.done:
				default:
					r.Logf("transport: read: %v", err)
				}
			}
			return
		}
		// Keep the partial frame at the tail, at the front of a buffer
		// large enough to hold all of it.
		rest := buf[used:have]
		if need := frameLen(rest); need > len(buf) {
			buf = make([]byte, need)
		}
		have = copy(buf, rest)
	}
}

// frameLen returns the total length (header and body) of the frame that
// starts b, or 0 while its header is incomplete.
func frameLen(b []byte) int {
	if len(b) < 8 {
		return 0
	}
	return 8 + int(binary.LittleEndian.Uint32(b))
}

// decodeFrames appends every complete frame at the front of b to turn
// and returns how many bytes they took. It stops early, with an error, at
// a frame that is oversized or undecodable.
func (r *Runner) decodeFrames(dec *wire.Decoder, b []byte, turn []inbound) ([]inbound, int, error) {
	used := 0
	for {
		size := frameLen(b[used:])
		if size == 0 {
			return turn, used, nil
		}
		from := wire.NodeID(int32(binary.LittleEndian.Uint32(b[used+4:])))
		if size-8 > maxFrame {
			return turn, used, fmt.Errorf("oversized frame (%d bytes) from %v", size-8, from)
		}
		if size > len(b)-used {
			return turn, used, nil
		}
		msg, _, err := dec.Decode(b[used+8 : used+size])
		if err != nil {
			return turn, used, fmt.Errorf("decode from %v: %w", from, err)
		}
		r.stats.bytesIn.Add(uint64(size))
		turn = append(turn, inbound{from: from, msg: msg})
		used += size
	}
}

// deliver hands one read's frames to the machine in a single turn: one
// lock acquisition, one Recv per frame in arrival order, one flush.
func (r *Runner) deliver(turn []inbound) {
	if len(turn) == 0 {
		return
	}
	r.stats.reads.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.machine == nil {
		return
	}
	for i := range turn {
		r.machine.Recv(turn[i].from, turn[i].msg)
	}
	r.flushTurn()
}
