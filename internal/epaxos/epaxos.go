// Package epaxos implements the EPaxos baseline the paper compares
// against (Moraru et al., SOSP 2013), at the fidelity the paper's
// evaluation exercises: batched commands (5 ms / 2 ms batch durations),
// thrifty disabled (pre-accepts go to all replicas, so the fastest
// quorum answers first — the effect of the paper's latency probing),
// zero command interference on the fast path, and the slow (Accept)
// path for interfering commands.
//
// Every replica is the command leader for its own clients. Reads are
// commands too: EPaxos disseminates them to a quorum, which is exactly
// the property Canopus's evaluation contrasts (§8.1.1: "EPaxos sends
// reads over the network to other nodes").
//
// Replica recovery (the Explicit Prepare protocol) is out of scope: the
// paper's evaluation never fails an EPaxos replica. Ballots are carried
// and checked so the message flow is faithful.
package epaxos

import (
	"sort"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

const (
	tagBatch uint8 = iota + 1
)

// Config parameterizes one replica.
type Config struct {
	Self  wire.NodeID
	Peers []wire.NodeID // all replicas, including Self

	// BatchDuration accumulates client commands before proposing; the
	// paper evaluates 5 ms (default) and 2 ms.
	BatchDuration time.Duration
}

// maxBatch flushes a batch early at this many commands (the paper's
// multi-DC runs use the same batch size as Canopus: 1000).
const maxBatch = 1000

func (c *Config) fill() {
	if c.BatchDuration == 0 {
		c.BatchDuration = 5 * time.Millisecond
	}
}

// StateMachine mirrors core.StateMachine for the KV workload.
type StateMachine interface {
	ApplyWrite(req *wire.Request)
	Read(key uint64) []byte
}

// Callbacks observe replica progress.
type Callbacks struct {
	// OnCommit fires at the command leader when one of its instances
	// commits (this is when clients are answered in EPaxos).
	OnCommit func(ref InstanceRef, b *wire.Batch)
	// OnExecute fires on every replica when an instance executes.
	OnExecute func(ref InstanceRef, b *wire.Batch)
	// OnReply fires at the command leader per client request once its
	// batch executes (reads carry the value).
	OnReply func(req *wire.Request, val []byte)
}

type status uint8

const (
	statusNone status = iota
	statusPreAccepted
	statusAccepted
	statusCommitted
	statusExecuted
)

type instance struct {
	ref    InstanceRef
	batch  *wire.Batch
	seq    uint64
	deps   []InstanceRef
	ballot uint64
	st     status

	// Leader-side fast-path bookkeeping.
	preOKs      int
	depsChanged bool
	acceptOKs   int
	mine        bool
	proposedAt  time.Duration
}

// Replica is one EPaxos replica.
type Replica struct {
	cfg Config
	env engine.Env
	sm  StateMachine
	cbs Callbacks

	instances map[InstanceRef]*instance
	nextSlot  uint64

	// accumulating batch
	reqs     []wire.Request
	fluid    wire.Batch
	hasFluid bool

	// conflict table: last instance that touched each key, and whether
	// it wrote (batch-level interference, explicit mode only).
	lastTouch map[uint64]keyTouch

	execReady []InstanceRef // commit-order execution queue
}

type keyTouch struct {
	ref   InstanceRef
	wrote bool
}

var _ engine.Machine = (*Replica)(nil)

// New builds a replica. sm may be nil for fluid workloads.
func New(cfg Config, sm StateMachine, cbs Callbacks) *Replica {
	cfg.fill()
	return &Replica{
		cfg:       cfg,
		sm:        sm,
		cbs:       cbs,
		instances: make(map[InstanceRef]*instance),
		lastTouch: make(map[uint64]keyTouch),
	}
}

// Init implements engine.Machine.
func (r *Replica) Init(env engine.Env) {
	r.env = env
	env.After(r.cfg.BatchDuration, engine.Tag(tagBatch, 0))
}

// Timer implements engine.Machine.
func (r *Replica) Timer(tag engine.TimerTag) {
	if engine.TagKind(tag) == tagBatch {
		r.flush()
		r.env.After(r.cfg.BatchDuration, engine.Tag(tagBatch, 0))
	}
}

// Submit accepts one client command (explicit mode).
func (r *Replica) Submit(req wire.Request) {
	r.reqs = append(r.reqs, req)
	if len(r.reqs) >= maxBatch {
		r.flush()
	}
}

// SubmitFluid accumulates an aggregate command batch (fluid mode). Note
// that unlike Canopus, reads contribute wire bytes: EPaxos replicates
// them.
func (r *Replica) SubmitFluid(reads, writes, bytes uint32, samples []wire.ArrivalSample) {
	r.hasFluid = true
	r.fluid.NumRead += reads
	r.fluid.NumWrite += writes
	r.fluid.ByteSize += bytes
	r.fluid.Samples = append(r.fluid.Samples, samples...)
	if int(r.fluid.NumRead+r.fluid.NumWrite) >= maxBatch {
		r.flush()
	}
}

// flush proposes the accumulated batch as a new instance.
func (r *Replica) flush() {
	var b *wire.Batch
	switch {
	case len(r.reqs) > 0:
		var nr, nw uint32
		for i := range r.reqs {
			if r.reqs[i].Op == wire.OpWrite {
				nw++
			} else {
				nr++
			}
		}
		b = &wire.Batch{Origin: r.cfg.Self, Reqs: r.reqs, NumRead: nr, NumWrite: nw}
		r.reqs = nil
	case r.hasFluid:
		fl := r.fluid
		fl.Origin = r.cfg.Self
		b = &fl
		r.fluid = wire.Batch{}
		r.hasFluid = false
	default:
		return
	}

	r.nextSlot++
	ref := InstanceRef{Replica: r.cfg.Self, Instance: r.nextSlot}
	seq, deps := r.attrsFor(b, ref)
	inst := &instance{
		ref: ref, batch: b, seq: seq, deps: deps,
		st: statusPreAccepted, mine: true, proposedAt: r.env.Now(),
	}
	r.instances[ref] = inst
	r.recordTouch(b, ref)

	if len(r.cfg.Peers) == 1 {
		r.commit(inst)
		return
	}
	msg := &PreAccept{
		Replica: r.cfg.Self, Instance: ref.Instance, Ballot: inst.ballot,
		Batch: b, Seq: seq, Deps: deps,
	}
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			r.env.Send(p, msg)
		}
	}
}

// attrsFor computes the EPaxos attributes: seq one greater than any
// conflicting instance's, deps the set of conflicting instances.
func (r *Replica) attrsFor(b *wire.Batch, self InstanceRef) (uint64, []InstanceRef) {
	var seq uint64
	depSet := make(map[InstanceRef]bool)
	if b.Reqs != nil {
		for i := range b.Reqs {
			t, ok := r.lastTouch[b.Reqs[i].Key]
			if !ok || t.ref == self {
				continue
			}
			// Interference: write-write or read-write on the same key.
			if t.wrote || b.Reqs[i].Op == wire.OpWrite {
				if !depSet[t.ref] {
					depSet[t.ref] = true
				}
				if other := r.instances[t.ref]; other != nil && other.seq >= seq {
					seq = other.seq
				}
			}
		}
	}
	deps := make([]InstanceRef, 0, len(depSet))
	for ref := range depSet {
		deps = append(deps, ref)
	}
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].Replica != deps[j].Replica {
			return deps[i].Replica < deps[j].Replica
		}
		return deps[i].Instance < deps[j].Instance
	})
	return seq + 1, deps
}

func (r *Replica) recordTouch(b *wire.Batch, ref InstanceRef) {
	if b.Reqs == nil {
		return
	}
	for i := range b.Reqs {
		k := b.Reqs[i].Key
		prev := r.lastTouch[k]
		r.lastTouch[k] = keyTouch{ref: ref, wrote: prev.wrote || b.Reqs[i].Op == wire.OpWrite}
	}
}

// fastQuorum returns the number of replies (excluding the leader) needed
// for the fast path: quorum size F + floor((F+1)/2) including leader.
func (r *Replica) fastQuorum() int {
	n := len(r.cfg.Peers)
	f := (n - 1) / 2
	return f + (f+1)/2 - 1
}

// slowQuorum returns replies (excluding leader) for the Accept round.
func (r *Replica) slowQuorum() int { return len(r.cfg.Peers)/2 + 1 - 1 }

// Recv implements engine.Machine.
func (r *Replica) Recv(from wire.NodeID, m wire.Message) {
	switch v := m.(type) {
	case *PreAccept:
		r.onPreAccept(from, v)
	case *PreAcceptReply:
		r.onPreAcceptReply(v)
	case *Accept:
		r.onAccept(from, v)
	case *AcceptReply:
		r.onAcceptReply(v)
	case *Commit:
		r.onCommitMsg(v)
	}
}

func (r *Replica) onPreAccept(from wire.NodeID, m *PreAccept) {
	ref := InstanceRef{Replica: m.Replica, Instance: m.Instance}
	inst, ok := r.instances[ref]
	if ok && inst.st >= statusCommitted {
		return // already decided; reply is moot
	}
	// Merge the leader's attributes with local conflict knowledge.
	seq, deps := r.mergeAttrs(m.Batch, ref, m.Seq, m.Deps)
	if !ok {
		inst = &instance{ref: ref, ballot: m.Ballot}
		r.instances[ref] = inst
	}
	inst.batch = m.Batch
	inst.seq = seq
	inst.deps = deps
	inst.st = statusPreAccepted
	r.recordTouch(m.Batch, ref)
	r.env.Send(from, &PreAcceptReply{
		Replica: m.Replica, Instance: m.Instance, Ballot: m.Ballot,
		From: r.cfg.Self, OK: true, Seq: seq, Deps: deps,
	})
}

func (r *Replica) mergeAttrs(b *wire.Batch, self InstanceRef, seq uint64, deps []InstanceRef) (uint64, []InstanceRef) {
	localSeq, localDeps := r.attrsFor(b, self)
	if localSeq > seq {
		seq = localSeq
	}
	merged := make(map[InstanceRef]bool, len(deps)+len(localDeps))
	for _, d := range deps {
		merged[d] = true
	}
	for _, d := range localDeps {
		merged[d] = true
	}
	out := make([]InstanceRef, 0, len(merged))
	for d := range merged {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Replica != out[j].Replica {
			return out[i].Replica < out[j].Replica
		}
		return out[i].Instance < out[j].Instance
	})
	return seq, out
}

func depsEqual(a, b []InstanceRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *Replica) onPreAcceptReply(m *PreAcceptReply) {
	ref := InstanceRef{Replica: m.Replica, Instance: m.Instance}
	inst := r.instances[ref]
	if inst == nil || !inst.mine || inst.st != statusPreAccepted || m.Ballot != inst.ballot {
		return
	}
	if m.Seq != inst.seq || !depsEqual(m.Deps, inst.deps) {
		inst.depsChanged = true
		inst.seq, inst.deps = r.mergeReply(inst, m)
	}
	inst.preOKs++
	if inst.preOKs < r.fastQuorum() {
		return
	}
	if !inst.depsChanged {
		// Fast path: attributes unanimous across the quorum.
		r.commit(inst)
		return
	}
	// Slow path: one Accept round on the merged attributes.
	inst.st = statusAccepted
	inst.acceptOKs = 0
	msg := &Accept{
		Replica: ref.Replica, Instance: ref.Instance, Ballot: inst.ballot,
		Seq: inst.seq, Deps: inst.deps,
	}
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			r.env.Send(p, msg)
		}
	}
}

func (r *Replica) mergeReply(inst *instance, m *PreAcceptReply) (uint64, []InstanceRef) {
	seq := inst.seq
	if m.Seq > seq {
		seq = m.Seq
	}
	merged := make(map[InstanceRef]bool, len(inst.deps)+len(m.Deps))
	for _, d := range inst.deps {
		merged[d] = true
	}
	for _, d := range m.Deps {
		merged[d] = true
	}
	out := make([]InstanceRef, 0, len(merged))
	for d := range merged {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Replica != out[j].Replica {
			return out[i].Replica < out[j].Replica
		}
		return out[i].Instance < out[j].Instance
	})
	return seq, out
}

func (r *Replica) onAccept(from wire.NodeID, m *Accept) {
	ref := InstanceRef{Replica: m.Replica, Instance: m.Instance}
	inst := r.instances[ref]
	if inst == nil {
		inst = &instance{ref: ref, ballot: m.Ballot}
		r.instances[ref] = inst
	}
	if inst.st >= statusCommitted || m.Ballot < inst.ballot {
		return
	}
	inst.seq = m.Seq
	inst.deps = m.Deps
	inst.st = statusAccepted
	r.env.Send(from, &AcceptReply{
		Replica: m.Replica, Instance: m.Instance, Ballot: m.Ballot,
		From: r.cfg.Self, OK: true,
	})
}

func (r *Replica) onAcceptReply(m *AcceptReply) {
	ref := InstanceRef{Replica: m.Replica, Instance: m.Instance}
	inst := r.instances[ref]
	if inst == nil || !inst.mine || inst.st != statusAccepted || m.Ballot != inst.ballot {
		return
	}
	inst.acceptOKs++
	if inst.acceptOKs >= r.slowQuorum() {
		r.commit(inst)
	}
}

// commit marks the instance committed at the leader, notifies all other
// replicas, and tries execution.
func (r *Replica) commit(inst *instance) {
	inst.st = statusCommitted
	if r.cbs.OnCommit != nil {
		r.cbs.OnCommit(inst.ref, inst.batch)
	}
	msg := &Commit{
		Replica: inst.ref.Replica, Instance: inst.ref.Instance,
		Batch: inst.batch, Seq: inst.seq, Deps: inst.deps,
	}
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			r.env.Send(p, msg)
		}
	}
	r.tryExecute(inst)
}

func (r *Replica) onCommitMsg(m *Commit) {
	ref := InstanceRef{Replica: m.Replica, Instance: m.Instance}
	inst := r.instances[ref]
	if inst == nil {
		inst = &instance{ref: ref}
		r.instances[ref] = inst
		r.recordTouch(m.Batch, ref)
	}
	if inst.st >= statusCommitted {
		return
	}
	inst.batch = m.Batch
	inst.seq = m.Seq
	inst.deps = m.Deps
	inst.st = statusCommitted
	r.tryExecute(inst)
}

// tryExecute executes inst if its dependencies allow, then cascades to
// dependents. Dependency cycles (possible in EPaxos) break in (seq,
// replica) order, the protocol's canonical tie-break.
func (r *Replica) tryExecute(inst *instance) {
	if !r.execute(inst, make(map[InstanceRef]bool)) {
		return
	}
	// A successful execution may unblock earlier-arrived commits.
	for _, ref := range r.execReady {
		if dep := r.instances[ref]; dep != nil && dep.st == statusCommitted {
			r.execute(dep, make(map[InstanceRef]bool))
		}
	}
	r.execReady = r.execReady[:0]
}

// execute runs inst if every dependency has executed (or is part of a
// cycle that inst dominates). Returns true if inst executed.
func (r *Replica) execute(inst *instance, visiting map[InstanceRef]bool) bool {
	if inst.st == statusExecuted {
		return true
	}
	if inst.st != statusCommitted {
		return false
	}
	visiting[inst.ref] = true
	for _, d := range inst.deps {
		dep := r.instances[d]
		if dep == nil || dep.st < statusCommitted {
			r.execReady = append(r.execReady, inst.ref)
			return false // dependency not yet committed: wait
		}
		if dep.st == statusExecuted {
			continue
		}
		if visiting[d] {
			// Cycle: the lower (seq, replica) executes first.
			if dep.seq < inst.seq || (dep.seq == inst.seq && d.Replica < inst.ref.Replica) {
				if !r.execute(dep, visiting) {
					return false
				}
			}
			continue
		}
		if !r.execute(dep, visiting) {
			r.execReady = append(r.execReady, inst.ref)
			return false
		}
	}
	delete(visiting, inst.ref)
	if inst.st == statusExecuted {
		// A dependency cycle resolved this instance while we were
		// recursing through its deps; do not apply it twice.
		return true
	}

	inst.st = statusExecuted
	b := inst.batch
	if b != nil && b.Reqs != nil && r.sm != nil {
		for i := range b.Reqs {
			q := &b.Reqs[i]
			if q.Op == wire.OpWrite {
				r.sm.ApplyWrite(q)
			}
		}
		if inst.mine && r.cbs.OnReply != nil {
			for i := range b.Reqs {
				q := &b.Reqs[i]
				if q.Op == wire.OpRead {
					r.cbs.OnReply(q, r.sm.Read(q.Key))
				} else {
					r.cbs.OnReply(q, nil)
				}
			}
		}
	}
	if r.cbs.OnExecute != nil {
		r.cbs.OnExecute(inst.ref, b)
	}
	return true
}
