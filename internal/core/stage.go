package core

import (
	"sync"

	"canopus/internal/wire"
)

// The apply stage: the one way a committed cycle reaches the store.
//
// A committed cycle splits into two steps. Order resolution runs inside
// the machine turn (commit.go): session classification and membership —
// all the protocol state that must evolve in lock-step on every replica.
// It produces an applyPlan: the cycle's state-machine operations in total
// order plus the node's own completion records. The stage takes the plan from there and owns
// everything downstream of the order: it applies the operations, runs
// this node's reads at their recorded positions, advances the applied
// watermark, appends the root to the WAL, group-syncs, hands the cycle to
// the node's consumers as one Commit (deliverPlan) and serves the
// committed-state reads parked on it — on one goroutine, strictly in cycle
// order. Nothing
// else touches the state machine once a node runs; whoever needs to look
// at it asks the stage (Node.InspectApplied).
//
// The stage has one body (drain) and two drivers that differ only in who
// calls it. Under the simulator virtual time has one goroutine, so submit
// drains each command on the spot, inside the machine turn, and a replay
// is bit-identical. Under an engine.Spawner (the live runner) submit
// queues the command and the stage's own goroutine drains the queue in
// batches: the consensus turns of cycle K+1 overlap cycle K's fsync, and
// one Sync covers every cycle a batch holds. The ordered watermark
// (Node.committed, protocol-internal) and the applied watermark
// (Node.applied, what Committed() and ReadLocal observe) make the overlap
// explicit; inline they only differ inside a commit's own turn.

// planOp is one state-machine operation of a committed cycle: a write to
// apply, or (comp >= 0) one of this node's own reads, whose result lands
// in the plan's completion value slot comp.
type planOp struct {
	req *wire.Request
	// stored is, once a write has applied, the state machine's own
	// immutable copy of its value: what the cycle's event carries.
	stored []byte
	comp   int32 // completion-value index for reads/txns; -1 for writes
	// dup marks a duplicate transaction whose result resolves at apply
	// time from the session table (the original applied in an earlier
	// plan, and plans apply strictly in cycle order).
	dup bool
}

// applyPlan is one committed cycle's work order for the apply stage,
// produced by order resolution. Its Commit is what the consumers receive:
// Order and the completion records — Replies in client arrival order,
// Rejected — are filled at resolve time, Vals at resolve time for
// duplicate-cached mutations and by the apply stage for reads (nil for
// plain write acks), Events just before delivery.
type applyPlan struct {
	Commit
	// ops is the cycle's state-machine work in total order.
	ops []planOp
	// set is the cycle's own request set, recycled once the plan is done
	// (its reqs back the ops entries until then).
	set *ownSet
	// root is the cycle's committed root proposal, which the stage logs
	// (given a Durability hook) before releasing the plan's replies. Roots
	// are retained by Node.recent and never pooled, so the pointer stays
	// valid for the plan's lifetime.
	root *wire.Proposal

	// expired are the sessions this cycle's boundary expired; the apply
	// tail deletes their ephemeral keys (filling expiredKeys).
	expired     []uint64
	expiredKeys []uint64
	// outcomes records each non-duplicate transaction's verdict in apply
	// order; committed ops' events sit in txnEvents[start:start+count].
	outcomes  []txnOutcome
	txnEvents []wire.Event
}

// txnOutcome is one evaluated transaction's verdict within a plan.
type txnOutcome struct {
	committed    bool
	start, count int32 // committed ops' slice of plan.txnEvents
}

// stage is a node's apply stage: commands — plans, committed-state reads,
// inspections — handled one at a time in submission order.
type stage struct {
	n *Node

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds the commands submitted and not yet drained; only the
	// goroutine driver ever queues.
	queue []stageCmd
	// running is set once the goroutine driver has taken over (start);
	// closed once close was called. stopped closes when run returns.
	running bool
	closed  bool
	stopped chan struct{}

	// The rest belongs to whoever drains.

	parked []localRead // committed-state reads awaiting their min cycle
	// done are the plans the batch has applied, in cycle order: delivered
	// once the batch's one Sync has returned.
	done []*applyPlan
}

// stageCmd kinds.
const (
	cmdPlan uint8 = iota
	cmdRead
	cmdFailReads
	cmdCall
)

type stageCmd struct {
	kind uint8
	plan *applyPlan
	read localRead
	fn   func()
	done chan struct{} // closed once a cmdCall's fn has returned
}

func newStage(n *Node) *stage {
	s := &stage{n: n, stopped: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start hands the stage to the goroutine driver: from here on submit
// queues and run, on the goroutine spawn starts, drains. Node.Close stops
// it and waits for it.
func (s *stage) start(spawn func(func())) {
	s.mu.Lock()
	s.running = true
	s.mu.Unlock()
	spawn(s.run)
}

// submit hands the stage one command; plans arrive strictly in cycle
// order. The goroutine driver queues it for run. Otherwise — the inline
// driver, or a closed stage once its goroutine has drained what was queued
// and exited — it is drained here, on the caller's goroutine, before
// submit returns: after Close a plan still applies (protocol state must
// not silently diverge from the store; its Commit goes to consumers that
// find no client) and a read that cannot be served fails.
func (s *stage) submit(c stageCmd) {
	s.mu.Lock()
	running, closed := s.running, s.closed
	if running && !closed {
		s.queue = append(s.queue, c)
		s.mu.Unlock()
		s.cond.Signal()
		return
	}
	s.mu.Unlock()
	if running {
		<-s.stopped
	}
	one := [1]stageCmd{c}
	s.drain(one[:])
	if closed {
		s.failParked()
	}
}

// call runs fn on the stage, after every command submitted before it, and
// returns once fn has.
func (s *stage) call(fn func()) {
	done := make(chan struct{})
	s.submit(stageCmd{kind: cmdCall, fn: fn, done: done})
	<-done
}

// close stops the stage: queued plans finish applying (state must not
// diverge), the durability batch is flushed, parked reads fail, and the
// goroutine driver, when it ran, has exited by the time close returns.
func (s *stage) close() {
	s.mu.Lock()
	s.closed = true
	running := s.running
	s.mu.Unlock()
	if !running {
		s.failParked()
		return
	}
	s.cond.Signal()
	<-s.stopped
}

// run is the goroutine driver: it drains the queue a batch at a time until
// the stage is closed and empty.
func (s *stage) run() {
	defer close(s.stopped)
	var spare []stageCmd // the batch drained last, its backing array reused
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = spare[:0]
		closed := s.closed
		s.mu.Unlock()

		s.drain(batch)
		clear(batch) // plans and callbacks must not outlive their handling here
		spare = batch
		if closed {
			// closed was read with the queue: nothing was queued after it.
			s.failParked()
			return
		}
	}
}

// drain is the stage's one body: the batch's commands in order, then the
// group commit — one Sync covering every record the batch appended — and
// the delivery of the batch's plans in cycle order. Batches self-clock the
// fsync cadence — a slow disk makes the goroutine driver's batches (and
// the cycles per fsync) larger instead of queueing fsyncs; the inline
// driver's batch is always one command.
func (s *stage) drain(batch []stageCmd) {
	for i := range batch {
		s.handle(&batch[i])
	}
	s.n.syncDurable()
	// A consumer may re-enter the inline driver (a Submit that commits a
	// cycle on the spot): the nested drain gets a list of its own.
	done := s.done
	s.done = nil
	for _, p := range done {
		s.n.deliverPlan(p)
		s.n.freePlan(p)
	}
	clear(done)
	s.done = done[:0]
}

func (s *stage) handle(c *stageCmd) {
	n := s.n
	switch c.kind {
	case cmdPlan:
		n.applyPlan(c.plan)
		n.applied.Store(c.plan.Cycle)
		n.appendDurable(c.plan.Cycle, c.plan.root)
		s.done = append(s.done, c.plan)
		// Parked reads observe the applied watermark, which neither the
		// Sync nor the delivery gates.
		s.serveParked()
	case cmdRead:
		if applied := n.applied.Load(); applied >= c.read.minCycle {
			c.read.fn(n.readState(c.read.key), applied, true)
			return
		}
		s.parked = append(s.parked, c.read)
	case cmdFailReads:
		s.failParked()
	case cmdCall:
		c.fn()
		close(c.done)
	}
}

// serveParked completes parked reads whose minimum cycle has applied.
func (s *stage) serveParked() {
	if len(s.parked) == 0 {
		return
	}
	applied := s.n.applied.Load()
	kept := s.parked[:0]
	for _, lr := range s.parked {
		if applied >= lr.minCycle {
			lr.fn(s.n.readState(lr.key), applied, true)
		} else {
			kept = append(kept, lr)
		}
	}
	clear(s.parked[len(kept):])
	s.parked = kept
}

// failParked abandons every parked committed-state read.
func (s *stage) failParked() {
	applied := s.n.applied.Load()
	for _, lr := range s.parked {
		lr.fn(nil, applied, false)
	}
	clear(s.parked)
	s.parked = s.parked[:0]
}

// depth reports the stage's backlog: commands queued and not yet picked
// up. The inline driver never queues.
func (s *stage) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// readState reads committed state for a stage read (nil without a state
// machine).
func (n *Node) readState(key uint64) []byte {
	if n.sm == nil {
		return nil
	}
	return n.sm.Read(key)
}

// applyPlan applies one plan's operations front to back — the committed
// total order: writes mutate the store, reads record their value into the
// plan's completion slot, transactions evaluate their guards against
// applied state — and then runs the expiry tail. Called by the stage, and
// by ReplayCommit before the node runs.
func (n *Node) applyPlan(p *applyPlan) {
	for i := range p.ops {
		op := &p.ops[i]
		switch {
		case op.req.Op == wire.OpTxn:
			n.applyTxnOp(p, op)
		case op.comp >= 0:
			p.Vals[op.comp] = n.sm.Read(op.req.Key)
		default:
			op.stored = n.sm.ApplyWriteAt(op.req, p.Cycle, 0)
		}
	}
	n.applyExpiry(p)
}
