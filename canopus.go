// Package canopus is a Go implementation of Canopus, the scalable,
// topology-aware, massively parallel consensus protocol of Rizvi, Wong
// and Keshav (CoNEXT 2017), together with every substrate it depends on:
// a Leaf-Only Tree overlay, Raft-based reliable broadcast inside
// super-leaves, a discrete-event datacenter/WAN network simulator, the
// EPaxos and Zab/ZooKeeper baselines the paper evaluates against, and a
// ZooKeeper-like coordination layer ("ZKCanopus").
//
// The root package is a thin facade: protocol types are aliases of the
// internal implementations, plus convenience constructors for simulated
// clusters (deterministic, virtual time) and live TCP clusters — both
// behind the one Cluster interface every driver in this repository
// consumes:
//
//	cluster := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
//	cluster.Serve() // wall-clock mode: Submit from any goroutine
//	defer cluster.Close()
//	done := make(chan []byte, 1)
//	cluster.Submit(0, canopus.OpWrite, 42, []byte("hello"), func(val []byte, ok bool) {
//	    done <- val
//	})
//	<-done
//
// Network applications should use the typed, context-aware client in
// canopus/client against a live deployment (StartLiveCluster here, or
// cmd/canopus-server processes).
package canopus

import (
	"fmt"
	"sync"
	"time"

	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Protocol identifiers and request types.
type (
	// NodeID identifies one Canopus participant.
	NodeID = wire.NodeID
	// Request is one client key-value operation.
	Request = wire.Request
	// Op is a request kind (OpRead / OpWrite / OpDelete).
	Op = wire.Op
	// Batch is an ordered request set (the protocol's unit of ordering).
	Batch = wire.Batch
)

// Re-exported constants.
const (
	// OpRead marks a key read.
	OpRead = wire.OpRead
	// OpWrite marks a key write.
	OpWrite = wire.OpWrite
	// OpDelete marks a key removal.
	OpDelete = wire.OpDelete
	// OpTxn marks a guarded multi-op transaction (body in Request.Val).
	OpTxn = wire.OpTxn
	// NoNode is the "no node" sentinel.
	NoNode = wire.NoNode
)

// Event-plane types: the committed change stream and the guarded
// transaction vocabulary, shared by both backends and canopus/recipes.
type (
	// Event is one committed key change (a put with its value, or a
	// delete with a nil value).
	Event = wire.Event
	// Txn is a guarded atomic multi-op transaction body.
	Txn = wire.Txn
	// TxnGuard is one transaction precondition.
	TxnGuard = wire.TxnGuard
	// TxnOp is one transaction write or delete.
	TxnOp = wire.TxnOp
	// TxnResult is a transaction's committed-order verdict.
	TxnResult = wire.TxnResult
	// WatchSpec selects the keys a watch observes and its resume cycle.
	WatchSpec = events.Spec
	// WatchSink consumes one watch's notifications; see events.Sink for
	// the no-blocking and overflow contract.
	WatchSink = events.Sink
	// WatchNotification is one delivery to a WatchSink.
	WatchNotification = events.Notification
	// EventHub fans one node's committed change stream out to watchers.
	EventHub = events.Hub
)

// Transaction guard kinds.
const (
	// GuardValueEq passes iff the key's value is byte-equal to the
	// guard's (nil means "key is absent").
	GuardValueEq = wire.GuardValueEq
	// GuardCycleLE passes iff the key's last-modified cycle is at most
	// the guard's.
	GuardCycleLE = wire.GuardCycleLE
)

// ErrWatchOverflow reports a watch that cannot be (or stay) gap-free;
// see events.ErrWatchOverflow.
var ErrWatchOverflow = events.ErrWatchOverflow

// AppendTxn appends the wire encoding of t to b — the body an OpTxn
// request (or EventCluster.SubmitTxn) carries.
func AppendTxn(b []byte, t *Txn) []byte { return wire.AppendTxn(b, t) }

// ParseTxnResult decodes the verdict an OpTxn completion returns.
func ParseTxnResult(b []byte) (TxnResult, error) { return wire.ParseTxnResult(b) }

// Core protocol types.
type (
	// Config parameterizes a Canopus node; see internal/core.Config for
	// field documentation.
	Config = core.Config
	// Node is one Canopus protocol participant.
	Node = core.Node
	// Callbacks connect a node to its committed stream and its eviction.
	Callbacks = core.Callbacks
	// Consumer receives a node's committed stream.
	Consumer = core.Consumer
	// Commit is one committed cycle as a node's consumers see it.
	Commit = core.Commit
	// StateMachine is the replicated application state interface.
	StateMachine = core.StateMachine
	// Tree is the Leaf-Only Tree overlay.
	Tree = lot.Tree
	// TreeConfig shapes a LOT.
	TreeConfig = lot.Config
	// Store is the standard key-value state machine.
	Store = kvstore.Store
)

// NewTree builds a Leaf-Only Tree from super-leaf memberships.
func NewTree(cfg TreeConfig) (*Tree, error) { return lot.New(cfg) }

// NewNode builds a Canopus node (see core.NewNode).
func NewNode(cfg Config, sm StateMachine, cbs Callbacks) *Node {
	return core.NewNode(cfg, sm, cbs)
}

// NewJoiner builds a node that re-enters a running deployment through
// the join protocol.
func NewJoiner(cfg Config, sm StateMachine, cbs Callbacks) *Node {
	return core.NewJoiner(cfg, sm, cbs)
}

// NewStore creates an empty key-value state machine.
func NewStore() *Store { return kvstore.New() }

// Write builds a write request.
func Write(client, seq, key uint64, val []byte) Request {
	return Request{Client: client, Seq: seq, Op: OpWrite, Key: key, Val: val}
}

// Read builds a read request.
func Read(client, seq, key uint64) Request {
	return Request{Client: client, Seq: seq, Op: OpRead, Key: key}
}

// Delete builds a delete request.
func Delete(client, seq, key uint64) Request {
	return Request{Client: client, Seq: seq, Op: OpDelete, Key: key}
}

// SimOptions shapes a simulated deployment.
type SimOptions struct {
	// Racks and NodesPerRack lay out a single datacenter; each rack is
	// one super-leaf.
	Racks        int
	NodesPerRack int
	// WANRTT, when non-nil, turns each "rack" into a datacenter with the
	// given round-trip matrix (one row/column per rack).
	WANRTT [][]time.Duration
	// Node overrides fields of every node's Config (Tree/Self are set by
	// the cluster).
	Node Config
	// Seed makes the run reproducible (default 1).
	Seed int64
}

func (o *SimOptions) fill() error {
	if o.Racks == 0 {
		o.Racks = 2
	}
	if o.NodesPerRack == 0 {
		o.NodesPerRack = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Racks < 0 || o.NodesPerRack < 0 {
		return fmt.Errorf("canopus: negative topology (%d racks x %d nodes)", o.Racks, o.NodesPerRack)
	}
	if o.WANRTT != nil {
		if len(o.WANRTT) != o.Racks {
			return fmt.Errorf("canopus: WANRTT has %d rows for %d racks", len(o.WANRTT), o.Racks)
		}
		for i, row := range o.WANRTT {
			if len(row) != o.Racks {
				return fmt.Errorf("canopus: WANRTT row %d has %d columns for %d racks", i, len(row), o.Racks)
			}
		}
	}
	return nil
}

// driverClient is the reserved Request.Client identity carrying
// interface-submitted operations (Cluster.Submit); replies to it are
// routed to per-request callbacks instead of the function set with
// SimCluster.OnReply.
const driverClient = 1<<63 - 1

// SimCluster is an in-process simulated Canopus deployment running on
// virtual time: deterministic, instantaneous, no sockets. It is the
// quickest way to experiment with the protocol and what the examples and
// tests build on.
//
// Two driving modes:
//
//   - Event-loop mode (default): schedule work with At, submit from
//     inside those callbacks, advance time with RunUntil. Deterministic
//     and replayable.
//   - Serve mode: call Serve once and the cluster pumps virtual time on
//     a background goroutine; Submit then works from any goroutine, so
//     wall-clock drivers (any code written against the Cluster
//     interface) run unmodified against the simulator. Not
//     deterministic (arrival order depends on the scheduler); do not mix
//     with At/RunUntil.
type SimCluster struct {
	Sim    *netsim.Sim
	Runner *netsim.Runner
	Tree   *Tree
	nodes  []*Node
	stores []*Store
	hubs   []*EventHub

	onReply map[NodeID]func(req *Request, val []byte)
	// dones routes driverClient completions back to Submit callbacks;
	// touched only from the simulation context (event loop or pump).
	dones     map[uint64]func(val []byte, ok bool)
	driverSeq uint64
	// sessDones routes session-scoped completions (SubmitSession) by the
	// replicated (session, seq) identity; touched only from the
	// simulation context, like dones.
	sessDones map[simSessKey]func(val []byte, ok bool)
	// regPending tracks in-flight RegisterSession completions so a
	// serve-mode Close can still honor their done contract.
	regPending map[uint64]func(id uint64, ok bool)
	regCtr     uint64

	mu      sync.Mutex
	serving bool
	closed  bool // Close was called on a serving cluster
	queue   []queuedOp
	wake    chan struct{} // rings the pump when work is queued
	stop    chan struct{}
	stopped chan struct{}
}

// simSessKey identifies one in-flight session-scoped operation.
type simSessKey struct{ session, seq uint64 }

// queuedOp kinds (serve-mode pump queue).
const (
	queuedSubmit  uint8 = iota // plain Submit
	queuedReg                  // RegisterSession
	queuedSession              // SubmitSession
	queuedCall                 // Invoke
)

// queuedOp is one Submit/RegisterSession/SubmitSession awaiting
// injection by the serve-mode pump. The arguments are kept (rather than
// a closure) so a shutdown can still honor the done contract with
// ok=false.
type queuedOp struct {
	kind    uint8
	node    int
	op      Op
	key     uint64
	val     []byte
	session uint64
	seq     uint64
	done    func(val []byte, ok bool)
	regDone func(id uint64, ok bool)
	fn      func() // queuedCall body
	drop    func() // queuedCall shutdown notice
}

// fail honors the done contract on a shutdown path.
func (q *queuedOp) fail() {
	switch {
	case q.kind == queuedReg:
		if q.regDone != nil {
			q.regDone(0, false)
		}
	case q.kind == queuedCall:
		if q.drop != nil {
			q.drop()
		}
	default:
		if q.done != nil {
			q.done(nil, false)
		}
	}
}

// inject runs in the simulation context.
func (q *queuedOp) inject(c *SimCluster) {
	switch q.kind {
	case queuedCall:
		q.fn()
	case queuedReg:
		c.registerNow(q.node, q.regDone)
	case queuedSession:
		c.submitSessionNow(q.node, q.session, q.seq, q.op, q.key, q.val, q.done)
	default:
		c.submitNow(q.node, q.op, q.key, q.val, q.done)
	}
}

// NewSimCluster builds and registers a full simulated deployment with a
// logged KV store per node. It returns an error for invalid tree shapes
// (negative sizes, mismatched WANRTT matrices).
func NewSimCluster(opts SimOptions) (*SimCluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	var topo *netsim.Topology
	if opts.WANRTT != nil {
		oneway := make([][]time.Duration, opts.Racks)
		for i := range oneway {
			oneway[i] = make([]time.Duration, opts.Racks)
			for j := range oneway[i] {
				if i != j {
					oneway[i][j] = opts.WANRTT[i][j] / 2
				}
			}
		}
		topo = netsim.MultiDC(opts.Racks, opts.NodesPerRack, netsim.Params{WANDelay: oneway})
	} else {
		topo = netsim.SingleDC(opts.Racks, opts.NodesPerRack, netsim.Params{})
	}
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), opts.Seed)

	sls := make([][]NodeID, opts.Racks)
	for r := 0; r < opts.Racks; r++ {
		sls[r] = topo.RackMembers(r)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls})
	if err != nil {
		return nil, fmt.Errorf("canopus: %w", err)
	}

	n := topo.NumNodes()
	c := &SimCluster{
		Sim: sim, Runner: runner, Tree: tree,
		nodes:      make([]*Node, n),
		stores:     make([]*Store, n),
		hubs:       make([]*EventHub, n),
		onReply:    make(map[NodeID]func(req *Request, val []byte)),
		dones:      make(map[uint64]func(val []byte, ok bool)),
		sessDones:  make(map[simSessKey]func(val []byte, ok bool)),
		regPending: make(map[uint64]func(id uint64, ok bool)),
	}
	for i := 0; i < n; i++ {
		cfg := opts.Node
		cfg.Tree = tree
		cfg.Self = NodeID(i)
		runner.Register(NodeID(i), c.newNode(cfg, false))
	}
	return c, nil
}

// newNode builds node cfg.Self — a joiner when asked — over a fresh store
// and event hub, and installs them. The node's consumers are its hub and
// the cluster's reply dispatcher.
func (c *SimCluster) newNode(cfg Config, joiner bool) *Node {
	st := kvstore.New()
	hub := events.NewHub(events.Options{})
	cbs := Callbacks{Consumers: []Consumer{hub, simDispatcher{c, cfg.Self}}}
	var n *Node
	if joiner {
		n = core.NewJoiner(cfg, st, cbs)
	} else {
		n = core.NewNode(cfg, st, cbs)
	}
	c.nodes[cfg.Self], c.stores[cfg.Self], c.hubs[cfg.Self] = n, st, hub
	return n
}

// MustSimCluster is NewSimCluster, panicking on invalid options —
// convenient in tests and examples with known-good shapes.
func MustSimCluster(opts SimOptions) *SimCluster {
	c, err := NewSimCluster(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// simDispatcher routes node id's committed stream to its requesters:
// driver-submitted requests complete their per-request callbacks,
// session-scoped requests route by their replicated (session, seq)
// identity — a rejected one fails — and everything else flows to the
// function set with OnReply.
type simDispatcher struct {
	c  *SimCluster
	id NodeID
}

func (d simDispatcher) Committed(cm *Commit) {
	c := d.c
	for i := range cm.Rejected {
		c.sessionDone(&cm.Rejected[i], nil, false)
	}
	for i := range cm.Replies {
		req, val := &cm.Replies[i], cm.Vals[i]
		switch {
		case req.Client == driverClient:
			if done, ok := c.dones[req.Seq]; ok {
				delete(c.dones, req.Seq)
				done(val, true)
			}
		case wire.IsSessionID(req.Client):
			c.sessionDone(req, val, true)
		case c.onReply[d.id] != nil:
			c.onReply[d.id](req, val)
		}
	}
}

// sessionDone completes the SubmitSession waiting for req, if any.
func (c *SimCluster) sessionDone(req *Request, val []byte, ok bool) {
	k := simSessKey{req.Client, req.Seq}
	if done, found := c.sessDones[k]; found {
		delete(c.sessDones, k)
		done(val, ok)
	}
}

// Node returns the protocol node with the given ID.
func (c *SimCluster) Node(id NodeID) *Node { return c.nodes[id] }

// StoreOf returns node id's local replica state.
func (c *SimCluster) StoreOf(id NodeID) *Store { return c.stores[id] }

// NumNodes returns the deployment size.
func (c *SimCluster) NumNodes() int { return len(c.nodes) }

// OnReply installs a completion callback for node id's requests injected
// with SubmitRequest; the node's reply dispatcher, one of its committed
// stream's consumers, calls it. Must be called before the simulation runs
// past the node's first request.
func (c *SimCluster) OnReply(id NodeID, fn func(req *Request, val []byte)) {
	c.onReply[id] = fn
}

// At schedules fn at an absolute virtual time; use it to inject client
// requests from the simulation's event loop (event-loop mode only).
func (c *SimCluster) At(t time.Duration, fn func()) { c.Sim.At(t, fn) }

// SubmitRequest delivers one raw client request to node id with
// caller-owned Client/Seq identity; replies arrive at the function set
// with OnReply. Call from inside At (event-loop mode). Most callers want
// Submit.
func (c *SimCluster) SubmitRequest(id NodeID, req Request) { c.nodes[id].Submit(req) }

// Submit implements Cluster: it asynchronously executes one keyed
// operation at node's replica and invokes done (from the simulation
// context — it must not block) with the read value (nil for mutations
// and misses) and whether the operation was served. In event-loop mode
// call it from inside At; after Serve it is safe from any goroutine.
func (c *SimCluster) Submit(node int, op Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	c.dispatch(queuedOp{kind: queuedSubmit, node: node, op: op, key: key, val: val, done: done})
}

// RegisterSession implements SessionCluster: it commits a fresh
// replicated client session through node's replica. done is invoked
// from the simulation context with the session ID every replica now
// knows; ok=false means the node could not commit it (crashed, stalled,
// or the cluster closed). In event-loop mode call it from inside At;
// after Serve it is safe from any goroutine.
func (c *SimCluster) RegisterSession(node int, done func(id uint64, ok bool)) {
	c.dispatch(queuedOp{kind: queuedReg, node: node, regDone: done})
}

// SubmitSession implements SessionCluster: one session-scoped keyed
// operation with a caller-chosen per-session sequence number. A mutation
// re-submitted with a (session, seq) that already committed — the
// reply-loss retry — completes with the cached result instead of
// applying twice, at any node. done runs from the simulation context;
// ok=false means the node is crashed or stalled, or the session is
// expired/unknown.
func (c *SimCluster) SubmitSession(node int, session, seq uint64, op Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	c.dispatch(queuedOp{kind: queuedSession, node: node, session: session, seq: seq, op: op, key: key, val: val, done: done})
}

// dispatch routes one operation to the simulation context: queued for
// the pump in serve mode, run inline otherwise.
func (c *SimCluster) dispatch(q queuedOp) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		q.fail()
		return
	}
	if c.serving {
		c.queue = append(c.queue, q)
		c.mu.Unlock()
		select {
		case c.wake <- struct{}{}:
		default:
		}
		return
	}
	c.mu.Unlock()
	q.inject(c)
}

// submitNow runs in the simulation context.
func (c *SimCluster) submitNow(node int, op Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	n := c.nodes[node]
	if !c.Runner.Alive(NodeID(node)) || n.Stalled() {
		if done != nil {
			done(nil, false)
		}
		return
	}
	c.driverSeq++
	if done != nil {
		c.dones[c.driverSeq] = done
	}
	n.Submit(Request{Client: driverClient, Seq: c.driverSeq, Op: op, Key: key, Val: val})
}

// registerNow runs in the simulation context.
func (c *SimCluster) registerNow(node int, done func(id uint64, ok bool)) {
	n := c.nodes[node]
	if !c.Runner.Alive(NodeID(node)) || n.Stalled() {
		if done != nil {
			done(0, false)
		}
		return
	}
	if done == nil {
		n.RegisterSession(nil)
		return
	}
	c.regCtr++
	key := c.regCtr
	c.regPending[key] = done
	n.RegisterSession(func(id uint64, ok bool) {
		if d, live := c.regPending[key]; live {
			delete(c.regPending, key)
			d(id, ok)
		}
	})
}

// submitSessionNow runs in the simulation context. Reads carry no dedup
// identity (they are idempotent) and take the plain driver path.
func (c *SimCluster) submitSessionNow(node int, session, seq uint64, op Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	if !op.Mutates() {
		c.submitNow(node, op, key, val, done)
		return
	}
	n := c.nodes[node]
	if !c.Runner.Alive(NodeID(node)) || n.Stalled() {
		if done != nil {
			done(nil, false)
		}
		return
	}
	k := simSessKey{session, seq}
	if old, ok := c.sessDones[k]; ok {
		old(nil, false) // superseded by a re-submission of the same identity
	}
	if done != nil {
		c.sessDones[k] = done
	} else {
		delete(c.sessDones, k)
	}
	n.Submit(Request{Client: session, Seq: seq, Op: op, Key: key, Val: val})
}

// Endpoint implements Cluster. The simulator has no network endpoints;
// drive it through Submit.
func (c *SimCluster) Endpoint(node int) string { return "" }

// Invoke runs fn in the simulation context and returns once it has run:
// immediately on an event-loop-mode cluster, through the pump queue in
// serve mode so fn never races concurrently-advancing virtual time. It
// reports whether fn ran (false only when the cluster closed first).
// Use it to inject faults or inspect node state while the cluster is
// being driven from other goroutines.
func (c *SimCluster) Invoke(fn func()) bool {
	ran := make(chan bool, 1)
	c.dispatch(queuedOp{
		kind: queuedCall,
		fn:   func() { fn(); ran <- true },
		drop: func() { ran <- false },
	})
	return <-ran
}

// Serve switches the cluster into wall-clock mode: a background pump
// continuously advances virtual time and drains queued Submit calls, so
// the deployment behaves like a (very fast) live cluster to concurrent
// callers. Do not mix with At/RunUntil after calling Serve.
func (c *SimCluster) Serve() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serving {
		return
	}
	c.serving = true
	c.wake = make(chan struct{}, 1)
	c.stop = make(chan struct{})
	c.stopped = make(chan struct{})
	go c.pump()
}

// pump is the serve-mode driver: inject queued submissions at the
// current virtual instant, then advance time one slice. On shutdown it
// rejects (done(nil, false)) anything still queued, so the Submit
// contract — done always fires — holds across Close.
func (c *SimCluster) pump() {
	defer close(c.stopped)
	const step = time.Millisecond // virtual time per iteration
	idle := time.NewTimer(time.Hour)
	idle.Stop()
	defer idle.Stop()
	for {
		select {
		case <-c.stop:
			c.mu.Lock()
			q := c.queue
			c.queue = nil
			c.mu.Unlock()
			for i := range q {
				q[i].fail()
			}
			// Operations already injected into the simulation but not
			// yet committed will never complete (time stops here):
			// reject them too. Safe without further locking — this
			// goroutine is the only simulation context in serve mode,
			// and it is exiting.
			for seq, done := range c.dones {
				delete(c.dones, seq)
				done(nil, false)
			}
			for k, done := range c.sessDones {
				delete(c.sessDones, k)
				done(nil, false)
			}
			for k, done := range c.regPending {
				delete(c.regPending, k)
				done(0, false)
			}
			return
		default:
		}
		c.mu.Lock()
		q := c.queue
		c.queue = nil
		c.mu.Unlock()
		now := c.Sim.Now()
		for _, op := range q {
			op := op
			c.Sim.At(now, func() { op.inject(c) })
		}
		c.Sim.RunUntil(now + step)
		if len(q) == 0 {
			// No new work: park until a Submit rings the wake channel or
			// a tick passes — the tick keeps virtual time advancing (at
			// roughly wall speed) for in-flight completions and timers
			// without spinning a core, even when an in-flight operation
			// can never complete (e.g. its node stalled).
			idle.Reset(time.Millisecond)
			select {
			case <-c.stop:
				// Loop back: the stop branch at the top owns the drain.
			case <-c.wake:
			case <-idle.C:
			}
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
		}
	}
}

// Close implements Cluster: it stops the serve-mode pump (if running)
// and rejects queued or later Submits with ok=false. The simulation
// itself holds no external resources; on an event-loop-mode cluster
// Close is a no-op.
func (c *SimCluster) Close() error {
	c.mu.Lock()
	if !c.serving {
		c.mu.Unlock()
		return nil
	}
	c.serving = false
	c.closed = true
	stop, stopped := c.stop, c.stopped
	c.mu.Unlock()
	close(stop)
	<-stopped
	return nil
}

// RunUntil advances virtual time (event-loop mode).
func (c *SimCluster) RunUntil(t time.Duration) { c.Sim.RunUntil(t) }

// Crash fails node id crash-stop.
func (c *SimCluster) Crash(id NodeID) { c.Runner.Crash(id) }

// RestartAsJoiner restarts a crashed node with fresh state; it re-enters
// through the join protocol.
func (c *SimCluster) RestartAsJoiner(id NodeID) *Node {
	// A fresh hub for the rejoined node: its first published cycle marks
	// everything before it evicted, so watches cannot resume across the
	// crash with a silent gap.
	n := c.newNode(Config{Tree: c.Tree, Self: id}, true)
	c.Runner.Restart(id, n)
	return n
}

// Hub returns node id's event hub.
func (c *SimCluster) Hub(id NodeID) *EventHub { return c.hubs[id] }

// Watch registers a watch on node's event hub, implementing the
// EventCluster interface. The sink runs in the simulation context and
// must not block; see events.Hub.Watch for the resume and overflow
// contract.
func (c *SimCluster) Watch(node int, spec WatchSpec, sink WatchSink) (uint64, error) {
	return c.hubs[node].Watch(spec, sink)
}

// Unwatch cancels a watch registered through Watch.
func (c *SimCluster) Unwatch(node int, id uint64) {
	c.hubs[node].Cancel(id)
}

// SubmitTxn executes one multi-op transaction at node's replica,
// implementing the EventCluster interface. body is the encoded
// transaction (AppendTxn); done receives the encoded TxnResult. A
// non-zero session makes the txn exactly-once across retries via the
// replicated (session, seq) identity; session 0 submits at-most-once
// under the driver identity. done runs from the simulation context and
// must not block.
func (c *SimCluster) SubmitTxn(node int, session, seq uint64, body []byte, done func(val []byte, ok bool)) {
	if session == 0 {
		c.dispatch(queuedOp{kind: queuedSubmit, node: node, op: OpTxn, val: body, done: done})
		return
	}
	c.dispatch(queuedOp{kind: queuedSession, node: node, session: session, seq: seq, op: OpTxn, val: body, done: done})
}
