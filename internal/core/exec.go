package core

import (
	"sync"

	"canopus/internal/wire"
)

// Commit pipeline (the parallel path behind Config.ApplyWorkers).
//
// A committed cycle splits into two stages. The serial order-resolution
// stage runs inside the machine turn (commit.go): session
// classification, membership, leases and deferred-read collection — all
// the protocol state that must evolve in lock-step on every replica. It
// produces an applyPlan: the cycle's state-machine operations in total
// order plus the node's own completion records. The apply stage executes
// the plan: bulk-apply the writes, run this node's reads at their
// recorded positions, then materialize replies.
//
// With ApplyWorkers == 0 the plan executes inline, still inside the
// machine turn, which is byte-identical to the historical single-stage
// commit — the mode virtual-time simulation requires. With ApplyWorkers
// >= 1 the plan is handed to a per-node executor goroutine that applies
// cycles strictly in order off the machine lock, fanning each cycle's
// operations across workers by state-machine shard (a ShardedMachine
// partitions keys; writes within one shard keep their total order, and a
// read's result depends only on prior writes to its own shard, so §5
// read-at-position semantics are preserved). The consensus turn for
// cycle K+1 overlaps cycle K's apply; the ordered watermark
// (Node.committed, protocol-internal) and the applied watermark
// (Node.applied, what Committed() and ReadLocal observe) make the
// overlap explicit.

// ShardedMachine is optionally implemented by StateMachines whose state
// partitions by key (kvstore.Store does). Operations on distinct shards
// must be safe to run concurrently; the executor never runs two
// operations of one shard at the same time, and it never overlaps two
// cycles' apply stages.
type ShardedMachine interface {
	StateMachine
	// NumShards returns the number of key partitions.
	NumShards() int
	// ShardOf returns the partition owning key; it must be a pure
	// function of the key.
	ShardOf(key uint64) int
}

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

// applyPlan is one committed cycle's apply-stage work order, produced by
// the serial order-resolution stage.
type applyPlan struct {
	cycle uint64
	// ops is the cycle's state-machine work in total order.
	ops []planOp
	// comps/vals are the node's own completion records in client arrival
	// order: the requests this node must answer and their reply values
	// (filled at resolve time for duplicate-cached mutations, by the
	// apply stage for reads, nil for plain write acks).
	comps []wire.Request
	vals  [][]byte
	// set is the cycle's own request set, recycled once the plan is done
	// (its reqs back the ops/comps entries until then).
	set *ownSet
	// root is the cycle's committed root proposal, set only when the node
	// has a Durability hook: the executor logs it before releasing the
	// plan's replies. Roots are retained by Node.recent and never pooled,
	// so the pointer stays valid for the plan's lifetime.
	root *wire.Proposal

	// hasTxn marks a plan carrying transaction ops: it applies serially
	// (guards read cross-shard state, so no worker fan-out).
	hasTxn bool
	// snapshot marks a synthetic join-install plan: each op's Seq/Client
	// carry the key's last-modified cycle and owner session, installed
	// via ApplyWriteAt, and the plan emits no events.
	snapshot bool
	// expired are the sessions this cycle's boundary expired; the apply
	// tail deletes their ephemeral keys (filling expiredKeys).
	expired     []uint64
	expiredKeys []uint64
	// outcomes records each non-duplicate transaction's verdict in apply
	// order; committed ops' events sit in txnEvents[start:start+count].
	outcomes  []txnOutcome
	txnEvents []wire.Event
	// events is the cycle's key-change event list in committed total
	// order, built by buildPlanEvents just before delivery.
	events []wire.Event
}

// txnOutcome is one evaluated transaction's verdict within a plan.
type txnOutcome struct {
	committed    bool
	start, count int32 // committed ops' slice of plan.txnEvents
}

// fanoutThreshold is the minimum op count worth spreading across
// workers; smaller cycles apply on the executor goroutine directly.
const fanoutThreshold = 64

// executor is the per-node background apply stage: one goroutine
// consuming plans and committed-state read requests in order, plus a
// pool of apply workers.
type executor struct {
	n       *Node
	sm      StateMachine
	shard   ShardedMachine // nil when sm does not partition
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []execCmd
	closed bool

	parked []localRead // committed-state reads awaiting their min cycle

	// durPending are applied-but-unsynced plans: their cycles' records
	// sit in the WAL buffer, and their replies are withheld until the
	// batch's single Sync — the group commit. Only used with a
	// Durability hook.
	durPending []*applyPlan

	cur  *applyPlan      // plan being fanned out (set before waking workers)
	wake []chan struct{} // one doorbell per extra worker
	wg   sync.WaitGroup  // per-plan worker barrier

	stopped chan struct{}
}

// execCmd kinds.
const (
	cmdPlan uint8 = iota
	cmdRead
	cmdFailReads
	cmdSync
	cmdCall
)

type execCmd struct {
	kind uint8
	plan *applyPlan
	read localRead
	sync chan struct{}
	fn   func()
}

// newExecutor starts the apply stage with the given worker count
// (already validated >= 1).
func newExecutor(n *Node, workers int) *executor {
	e := &executor{n: n, sm: n.sm, workers: workers, stopped: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	if sh, ok := n.sm.(ShardedMachine); ok && sh.NumShards() > 1 {
		e.shard = sh
		if e.workers > sh.NumShards() {
			e.workers = sh.NumShards()
		}
	} else {
		e.workers = 1
	}
	for w := 1; w < e.workers; w++ {
		ch := make(chan struct{}, 1)
		e.wake = append(e.wake, ch)
		go e.worker(w, ch)
	}
	go e.run()
	return e
}

// enqueue appends one command and rings the executor. Returns false when
// the executor is closed (the caller owns the command's failure path).
func (e *executor) enqueue(c execCmd) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, c)
	e.mu.Unlock()
	e.cond.Signal()
	return true
}

// submitPlan hands one committed cycle to the apply stage. Called from
// the machine turn; plans arrive strictly in cycle order.
func (e *executor) submitPlan(p *applyPlan) {
	if !e.enqueue(execCmd{kind: cmdPlan, plan: p}) {
		// Shutdown race: the node is being torn down; the plan's replies
		// are owed nothing (the serving process is gone from the client's
		// point of view), but protocol state must not silently diverge —
		// apply synchronously so a later snapshot still sees the writes.
		e.n.execPlanOps(p)
	}
}

// submitRead routes one committed-state read through the apply stage so
// it serializes with in-flight applies.
func (e *executor) submitRead(lr localRead) {
	if !e.enqueue(execCmd{kind: cmdRead, read: lr}) {
		lr.fn(nil, e.n.applied.Load(), false)
	}
}

// failParked abandons every parked committed-state read (and any read
// still queued behind this command once it is reached).
func (e *executor) failParked() {
	if !e.enqueue(execCmd{kind: cmdFailReads}) {
		return
	}
}

// drain blocks until every command enqueued before it has been
// processed. The machine turn uses it to serialize direct state-machine
// access (join snapshots) with the apply stage.
func (e *executor) drain() {
	ch := make(chan struct{})
	if !e.enqueue(execCmd{kind: cmdSync, sync: ch}) {
		return
	}
	<-ch
}

// close stops the executor: remaining plans are applied (state must not
// diverge), remaining and parked reads fail, workers exit. Blocks until
// the executor goroutine has stopped.
func (e *executor) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.stopped
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.cond.Signal()
	<-e.stopped
}

// run is the executor goroutine: commands in arrival order, one at a
// time.
func (e *executor) run() {
	defer close(e.stopped)
	var spare []execCmd // the batch drained last, its backing array reused
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		queue := e.queue
		e.queue = spare[:0]
		closed := e.closed
		e.mu.Unlock()

		for _, c := range queue {
			e.handle(c)
		}
		e.flushDurable()
		clear(queue) // plans and callbacks must not outlive their handling here
		spare = queue
		if closed {
			e.mu.Lock()
			rest := e.queue
			e.queue = nil
			e.mu.Unlock()
			for _, c := range rest {
				e.handle(c)
			}
			e.flushDurable()
			for _, lr := range e.parked {
				lr.fn(nil, e.n.applied.Load(), false)
			}
			e.parked = nil
			for _, ch := range e.wake {
				close(ch)
			}
			return
		}
	}
}

func (e *executor) handle(c execCmd) {
	switch c.kind {
	case cmdPlan:
		e.apply(c.plan)
		e.n.applied.Store(c.plan.cycle)
		if e.n.appendDurable(c.plan.cycle, c.plan.root) {
			// Group commit: the record is buffered; replies wait for the
			// batch's Sync. Parked reads do not — they observe the applied
			// watermark, which durability never gates.
			e.durPending = append(e.durPending, c.plan)
			e.serveParked()
			return
		}
		e.n.deliverPlan(c.plan)
		e.serveParked()
		e.n.freePlan(c.plan)
	case cmdRead:
		applied := e.n.applied.Load()
		if applied >= c.read.minCycle {
			c.read.fn(e.sm.Read(c.read.key), applied, true)
			return
		}
		e.parked = append(e.parked, c.read)
	case cmdFailReads:
		applied := e.n.applied.Load()
		for _, lr := range e.parked {
			lr.fn(nil, applied, false)
		}
		e.parked = e.parked[:0]
	case cmdSync:
		close(c.sync)
	case cmdCall:
		c.fn()
		close(c.sync)
	}
}

// call runs fn on the executor goroutine, after every previously queued
// command, and blocks until it returns. Falls back to running fn inline
// when the executor is closed (nothing applies concurrently then).
func (e *executor) call(fn func()) {
	ch := make(chan struct{})
	if !e.enqueue(execCmd{kind: cmdCall, fn: fn, sync: ch}) {
		<-e.stopped
		fn()
		return
	}
	<-ch
}

// flushDurable ends one group commit: a single Sync covers every plan
// appended since the last flush, then their replies go out in cycle
// order. Called at the end of each drained command batch, so the fsync
// cadence self-clocks — a slow disk makes batches (and the cycles per
// fsync) larger instead of queueing fsyncs.
func (e *executor) flushDurable() {
	if len(e.durPending) == 0 {
		return
	}
	e.n.syncDurable()
	for _, p := range e.durPending {
		e.n.deliverPlan(p)
		e.n.freePlan(p)
	}
	clear(e.durPending)
	e.durPending = e.durPending[:0]
}

// serveParked completes parked reads whose minimum cycle has applied.
func (e *executor) serveParked() {
	if len(e.parked) == 0 {
		return
	}
	applied := e.n.applied.Load()
	kept := e.parked[:0]
	for _, lr := range e.parked {
		if applied >= lr.minCycle {
			lr.fn(e.sm.Read(lr.key), applied, true)
		} else {
			kept = append(kept, lr)
		}
	}
	e.parked = kept
}

// apply executes one plan's operations, fanning across workers by shard
// when the cycle is large enough to pay for the barrier. Transaction
// and snapshot-install plans always apply serially: guards read
// cross-shard state, and installs carry per-op metadata.
func (e *executor) apply(p *applyPlan) {
	if e.workers <= 1 || e.shard == nil || p.hasTxn || p.snapshot || len(p.ops) < fanoutThreshold {
		e.n.applyShardSlice(p, nil, 0, 0)
	} else {
		e.cur = p
		e.wg.Add(e.workers - 1)
		for _, ch := range e.wake {
			ch <- struct{}{}
		}
		e.n.applyShardSlice(p, e.shard, e.workers, 0)
		e.wg.Wait()
		e.cur = nil
	}
	e.n.applyExpiry(p)
}

// worker is one extra apply worker: it owns the shards with
// ShardOf(key) % workers == w.
func (e *executor) worker(w int, wake chan struct{}) {
	for range wake {
		e.n.applyShardSlice(e.cur, e.shard, e.workers, w)
		e.wg.Done()
	}
}

// applyShardSlice applies the plan operations owned by worker w (all of
// them when workers == 0): writes mutate the store, reads record their
// value into the plan's completion slot, transactions evaluate their
// guards against applied state (serial plans only — see apply). In-shard
// order follows the committed total order because ops is walked front to
// back.
func (n *Node) applyShardSlice(p *applyPlan, shard ShardedMachine, workers, w int) {
	for i := range p.ops {
		op := &p.ops[i]
		if op.req.Op == wire.OpTxn {
			// Only reached with workers == 0 (txn plans force serial).
			n.applyTxnOp(p, op)
			continue
		}
		if workers > 0 && shard.ShardOf(op.req.Key)%workers != w {
			continue
		}
		if op.comp >= 0 {
			p.vals[op.comp] = n.sm.Read(op.req.Key)
		} else if n.tm != nil {
			if p.snapshot {
				n.tm.ApplyWriteAt(op.req, op.req.Seq, op.req.Client)
			} else {
				op.stored = n.tm.ApplyWriteAt(op.req, p.cycle, 0)
			}
		} else {
			n.sm.ApplyWrite(op.req)
			if n.cbs.OnEvents != nil && op.req.Val != nil {
				// A plain StateMachine does not say what it stored, and the
				// request's bytes are recycled with the plan.
				op.stored = append([]byte(nil), op.req.Val...)
			}
		}
	}
}
