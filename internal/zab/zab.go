// Package zab implements the ZooKeeper-style atomic broadcast baseline
// (Zab; Junqueira et al., DSN 2011) at the fidelity of the paper's
// evaluation: a fixed leader, a small set of voting followers, and any
// number of observers that receive committed transactions asynchronously
// without voting (§8.1.2: "ZooKeeper ... only five followers with the
// rest of the nodes set as observers").
//
// Writes are forwarded to the leader, proposed to the voters, committed
// on a majority of acks, then applied everywhere in zxid order; the
// originating node answers its clients when it applies its own batch.
// Reads are served locally and immediately — ZooKeeper's sequential (not
// linearizable) consistency, which is what the paper measures.
//
// Leader election and recovery are out of scope: the paper's runs never
// fail a ZooKeeper node.
package zab

import (
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

const tagBatch uint8 = 1

// Config parameterizes one Zab node.
type Config struct {
	Self   wire.NodeID
	Leader wire.NodeID
	Voters []wire.NodeID // voting members, including the leader
	All    []wire.NodeID // every node (voters + observers)
}

const (
	batchDuration = 2 * time.Millisecond // local write batching window
	maxBatch      = 1000                 // early flush threshold
)

// StateMachine mirrors core.StateMachine.
type StateMachine interface {
	ApplyWrite(req *wire.Request)
	Read(key uint64) []byte
}

// Callbacks observe progress.
type Callbacks struct {
	// OnDeliver fires when a committed transaction applies at this node,
	// in zxid order.
	OnDeliver func(zxid uint64, b *wire.Batch)
	// OnReply fires at the batch's origin node per client request.
	OnReply func(req *wire.Request, val []byte)
}

// Node is one Zab participant.
type Node struct {
	cfg Config
	env engine.Env
	sm  StateMachine
	cbs Callbacks

	isLeader bool
	isVoter  bool

	// accumulating local writes
	reqs     []wire.Request
	fluid    wire.Batch
	hasFluid bool

	// leader state
	nextZxid uint64
	acks     map[uint64]int
	proposal map[uint64]*wire.Batch

	// replica state: transactions arrive FIFO from the leader, so a
	// simple in-order apply cursor suffices.
	applied uint64
	log     map[uint64]*wire.Batch
	commit  map[uint64]bool
}

var _ engine.Machine = (*Node)(nil)

// New builds a Zab node.
func New(cfg Config, sm StateMachine, cbs Callbacks) *Node {
	n := &Node{
		cfg:      cfg,
		sm:       sm,
		cbs:      cbs,
		acks:     make(map[uint64]int),
		proposal: make(map[uint64]*wire.Batch),
		log:      make(map[uint64]*wire.Batch),
		commit:   make(map[uint64]bool),
	}
	n.isLeader = cfg.Self == cfg.Leader
	for _, v := range cfg.Voters {
		if v == cfg.Self {
			n.isVoter = true
		}
	}
	return n
}

// Init implements engine.Machine.
func (n *Node) Init(env engine.Env) {
	n.env = env
	env.After(batchDuration, engine.Tag(tagBatch, 0))
}

// Timer implements engine.Machine.
func (n *Node) Timer(tag engine.TimerTag) {
	if engine.TagKind(tag) == tagBatch {
		n.flush()
		n.env.After(batchDuration, engine.Tag(tagBatch, 0))
	}
}

// Submit accepts one client request. Reads answer immediately from local
// state; writes batch toward the leader.
func (n *Node) Submit(req wire.Request) {
	if req.Op == wire.OpRead {
		var val []byte
		if n.sm != nil {
			val = n.sm.Read(req.Key)
		}
		if n.cbs.OnReply != nil {
			n.cbs.OnReply(&req, val)
		}
		return
	}
	n.reqs = append(n.reqs, req)
	if len(n.reqs) >= maxBatch {
		n.flush()
	}
}

// SubmitFluid accumulates aggregate writes (reads in fluid mode are
// handled by the workload layer entirely locally: they cost CPU but no
// messages).
func (n *Node) SubmitFluid(writes, bytes uint32, samples []wire.ArrivalSample) {
	n.hasFluid = true
	n.fluid.NumWrite += writes
	n.fluid.ByteSize += bytes
	n.fluid.Samples = append(n.fluid.Samples, samples...)
	if int(n.fluid.NumWrite) >= maxBatch {
		n.flush()
	}
}

func (n *Node) flush() {
	var b *wire.Batch
	switch {
	case len(n.reqs) > 0:
		b = &wire.Batch{Origin: n.cfg.Self, Reqs: n.reqs, NumWrite: uint32(len(n.reqs))}
		n.reqs = nil
	case n.hasFluid:
		fl := n.fluid
		fl.Origin = n.cfg.Self
		b = &fl
		n.fluid = wire.Batch{}
		n.hasFluid = false
	default:
		return
	}
	if n.isLeader {
		n.propose(b)
		return
	}
	n.env.Send(n.cfg.Leader, &ZabForward{From: n.cfg.Self, Batch: b})
}

// propose runs at the leader: assign the zxid and replicate to voters.
func (n *Node) propose(b *wire.Batch) {
	n.nextZxid++
	zxid := n.nextZxid
	n.proposal[zxid] = b
	n.acks[zxid] = 1 // self
	if len(n.cfg.Voters) == 1 {
		n.leaderCommit(zxid)
		return
	}
	msg := &ZabPropose{Epoch: 1, Zxid: zxid, Batch: b}
	for _, v := range n.cfg.Voters {
		if v != n.cfg.Self {
			n.env.Send(v, msg)
		}
	}
}

// Recv implements engine.Machine.
func (n *Node) Recv(from wire.NodeID, m wire.Message) {
	switch v := m.(type) {
	case *ZabForward:
		if n.isLeader {
			n.propose(v.Batch)
		}
	case *ZabPropose:
		if n.isVoter && !n.isLeader {
			n.log[v.Zxid] = v.Batch
			n.env.Send(from, &ZabAck{Epoch: v.Epoch, Zxid: v.Zxid, From: n.cfg.Self})
		}
	case *ZabAck:
		if n.isLeader {
			n.onAck(v)
		}
	case *ZabCommit:
		if n.isVoter && !n.isLeader {
			n.commit[v.Zxid] = true
			n.applyReady()
		}
	case *ZabInform:
		if !n.isVoter {
			n.log[v.Zxid] = v.Batch
			n.commit[v.Zxid] = true
			n.applyReady()
		}
	}
}

func (n *Node) onAck(m *ZabAck) {
	if _, ok := n.proposal[m.Zxid]; !ok {
		return
	}
	n.acks[m.Zxid]++
	if n.acks[m.Zxid] == len(n.cfg.Voters)/2+1 {
		n.leaderCommit(m.Zxid)
	}
}

// leaderCommit finalizes zxid at the leader: apply locally (in order),
// notify followers, inform observers.
func (n *Node) leaderCommit(zxid uint64) {
	b := n.proposal[zxid]
	delete(n.acks, zxid)
	delete(n.proposal, zxid)
	n.log[zxid] = b
	n.commit[zxid] = true
	n.applyReady()

	cm := &ZabCommit{Epoch: 1, Zxid: zxid}
	inform := &ZabInform{Epoch: 1, Zxid: zxid, Batch: b}
	for _, id := range n.cfg.All {
		if id == n.cfg.Self {
			continue
		}
		if n.voter(id) {
			n.env.Send(id, cm)
		} else {
			n.env.Send(id, inform)
		}
	}
}

func (n *Node) voter(id wire.NodeID) bool {
	for _, v := range n.cfg.Voters {
		if v == id {
			return true
		}
	}
	return false
}

// applyReady applies committed transactions in zxid order.
func (n *Node) applyReady() {
	for {
		next := n.applied + 1
		if !n.commit[next] {
			return
		}
		b := n.log[next]
		delete(n.log, next)
		delete(n.commit, next)
		n.applied = next
		if b == nil {
			continue
		}
		if b.Reqs != nil && n.sm != nil {
			for i := range b.Reqs {
				n.sm.ApplyWrite(&b.Reqs[i])
			}
		}
		if n.cbs.OnDeliver != nil {
			n.cbs.OnDeliver(next, b)
		}
		if b.Origin == n.cfg.Self && n.cbs.OnReply != nil && b.Reqs != nil {
			for i := range b.Reqs {
				n.cbs.OnReply(&b.Reqs[i], nil)
			}
		}
	}
}

// Applied returns the highest applied zxid.
func (n *Node) Applied() uint64 { return n.applied }

// IsLeader reports whether this node leads.
func (n *Node) IsLeader() bool { return n.isLeader }
