package netsim

import (
	"math/rand"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// CostParams models per-node CPU service time. Nodes are single service
// queues: message sends, message receives and timer callbacks each occupy
// the node's CPU for a computed duration, and work queues FIFO behind the
// CPU. Saturating a node's CPU is what caps protocol throughput in the
// single-datacenter experiments, exactly as in the paper's testbed.
type CostParams struct {
	PerMsgSend  time.Duration // fixed cost to emit one message
	PerMsgRecv  time.Duration // fixed cost to ingest one message
	PerByteSend time.Duration // per wire byte on send (serialization, copies)
	PerByteRecv time.Duration // per wire byte on receive (parse, copies)
	PerReqRecv  time.Duration // per client request carried in a received message
	PerTimer    time.Duration // timer callback overhead
}

// DefaultCosts returns a calibration that reproduces the paper's
// per-node throughput envelope (≈100–150k client requests/s/node for
// Canopus including client handling charged by the workload layer).
func DefaultCosts() CostParams {
	return CostParams{
		PerMsgSend:  2 * time.Microsecond,
		PerMsgRecv:  3 * time.Microsecond,
		PerByteSend: 1 * time.Nanosecond,
		PerByteRecv: 1 * time.Nanosecond,
		PerReqRecv:  150 * time.Nanosecond,
		PerTimer:    time.Microsecond,
	}
}

// RequestCarrier is implemented by a message outside internal/wire that
// carries client requests (the baselines' batch-carrying messages): it
// reports how many, for per-request CPU accounting.
type RequestCarrier interface {
	Requests() int
}

// RequestsIn returns the number of client requests a message carries,
// used for per-request CPU accounting.
func RequestsIn(m wire.Message) int {
	switch v := m.(type) {
	case *wire.Proposal:
		n := 0
		for _, b := range v.Batches {
			n += b.Requests()
		}
		return n
	case *wire.SeqForward:
		if v.Payload != nil {
			return RequestsIn(v.Payload)
		}
	case *wire.SeqAppend:
		n := 0
		for i := range v.Entries {
			if v.Entries[i].Payload != nil {
				n += RequestsIn(v.Entries[i].Payload)
			}
		}
		return n
	case RequestCarrier:
		return v.Requests()
	}
	return 0
}

// NodeStats aggregates per-node traffic and CPU accounting.
type NodeStats struct {
	MsgsIn, MsgsOut   uint64
	BytesIn, BytesOut uint64
	CPUBusy           time.Duration
}

type simNode struct {
	id      wire.NodeID
	machine engine.Machine
	env     *simEnv
	alive   bool
	gen     uint32 // bumped on crash so in-flight work for the old incarnation is dropped
	cpuFree time.Duration
	rng     *rand.Rand
	stats   NodeStats
}

// Runner hosts protocol machines on a topology and drives them with
// simulated network and CPU delays. All machines run on the simulation
// goroutine; no locking is needed anywhere in protocol code.
type Runner struct {
	Sim    *Sim
	Topo   *Topology
	Costs  CostParams
	nodes  []*simNode
	seed   int64
	faults *faultState // nil until InstallFaults
}

// NewRunner creates a runner. Each node gets an independent random source
// derived from seed, so runs are reproducible.
func NewRunner(sim *Sim, topo *Topology, costs CostParams, seed int64) *Runner {
	r := &Runner{Sim: sim, Topo: topo, Costs: costs, seed: seed}
	r.nodes = make([]*simNode, topo.NumNodes())
	for i := range r.nodes {
		id := wire.NodeID(i)
		n := &simNode{
			id:    id,
			alive: true,
			rng:   rand.New(rand.NewSource(seed + int64(i)*7919)),
		}
		n.env = &simEnv{r: r, n: n}
		r.nodes[i] = n
	}
	return r
}

// Register installs machine m as node id and initializes it.
func (r *Runner) Register(id wire.NodeID, m engine.Machine) {
	n := r.nodes[id]
	n.machine = m
	m.Init(n.env)
}

// Alive reports whether node id is up.
func (r *Runner) Alive(id wire.NodeID) bool { return r.nodes[id].alive }

// Crash fails node id crash-stop: all queued and in-flight work addressed
// to the current incarnation is discarded.
func (r *Runner) Crash(id wire.NodeID) {
	n := r.nodes[id]
	n.alive = false
	n.gen++
}

// Restart brings node id back with a fresh machine (the paper's join
// protocol runs at the protocol layer; the runner only restores
// connectivity).
func (r *Runner) Restart(id wire.NodeID, m engine.Machine) {
	n := r.nodes[id]
	n.alive = true
	n.cpuFree = r.Sim.Now()
	n.machine = m
	m.Init(n.env)
}

// UseCPU charges d of CPU time to node id. The workload layer uses this
// to model client connection handling (reads served locally, request
// parsing, replies), which is part of every protocol's per-node budget.
func (r *Runner) UseCPU(id wire.NodeID, d time.Duration) {
	n := r.nodes[id]
	start := r.Sim.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	n.cpuFree = start + d
	n.stats.CPUBusy += d
}

// CPUBacklog returns how far node id's CPU queue extends past now; the
// workload layer uses it to detect saturation.
func (r *Runner) CPUBacklog(id wire.NodeID) time.Duration {
	n := r.nodes[id]
	if n.cpuFree <= r.Sim.Now() {
		return 0
	}
	return n.cpuFree - r.Sim.Now()
}

// Stats returns a copy of node id's accounting counters.
func (r *Runner) Stats(id wire.NodeID) NodeStats { return r.nodes[id].stats }

// send implements Env.Send for node n.
func (r *Runner) send(n *simNode, to wire.NodeID, m wire.Message) {
	if !n.alive {
		return
	}
	size := m.WireSize()
	start := r.Sim.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	cost := r.Costs.PerMsgSend + time.Duration(size)*r.Costs.PerByteSend
	n.cpuFree = start + cost
	n.stats.CPUBusy += cost
	n.stats.MsgsOut++
	n.stats.BytesOut += uint64(size)
	arrival := r.Topo.transmit(n.cpuFree, n.id, to, size)
	r.deliverAt(arrival, n.id, to, m, size)
}

// multicast implements Env.Multicast for node n: one send-side
// serialization, switch-assisted fan-out.
func (r *Runner) multicast(n *simNode, to []wire.NodeID, m wire.Message) {
	if !n.alive || len(to) == 0 {
		return
	}
	size := m.WireSize()
	start := r.Sim.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	cost := r.Costs.PerMsgSend + time.Duration(size)*r.Costs.PerByteSend
	n.cpuFree = start + cost
	n.stats.CPUBusy += cost
	n.stats.MsgsOut++
	n.stats.BytesOut += uint64(size)
	arrivals := r.Topo.multicast(n.cpuFree, n.id, to, size)
	for i, dst := range to {
		r.deliverAt(arrivals[i], n.id, dst, m, size)
	}
}

func (r *Runner) deliverAt(arrival time.Duration, from, to wire.NodeID, m wire.Message, size int) {
	if r.faults != nil {
		ok, extra := r.faults.admit(from, to)
		if !ok {
			return // partitioned or dropped
		}
		arrival += extra
	}
	dst := r.nodes[to]
	gen := dst.gen
	r.Sim.At(arrival, func() {
		if !dst.alive || dst.gen != gen {
			return // crashed (or restarted) receiver: packet dropped on the floor
		}
		start := r.Sim.Now()
		if dst.cpuFree > start {
			start = dst.cpuFree
		}
		cost := r.Costs.PerMsgRecv +
			time.Duration(size)*r.Costs.PerByteRecv +
			time.Duration(RequestsIn(m))*r.Costs.PerReqRecv
		dst.cpuFree = start + cost
		dst.stats.CPUBusy += cost
		dst.stats.MsgsIn++
		dst.stats.BytesIn += uint64(size)
		done := dst.cpuFree
		r.Sim.At(done, func() {
			if !dst.alive || dst.gen != gen {
				return
			}
			dst.machine.Recv(from, m)
		})
	})
}

// simEnv implements engine.Env for one node.
type simEnv struct {
	r *Runner
	n *simNode
}

func (e *simEnv) ID() wire.NodeID                            { return e.n.id }
func (e *simEnv) Now() time.Duration                         { return e.r.Sim.Now() }
func (e *simEnv) Rand() *rand.Rand                           { return e.n.rng }
func (e *simEnv) Send(to wire.NodeID, m wire.Message)        { e.r.send(e.n, to, m) }
func (e *simEnv) Multicast(to []wire.NodeID, m wire.Message) { e.r.multicast(e.n, to, m) }

func (e *simEnv) After(d time.Duration, tag engine.TimerTag) {
	n, r := e.n, e.r
	gen := n.gen
	r.Sim.After(d, func() {
		if !n.alive || n.gen != gen {
			return
		}
		start := r.Sim.Now()
		if n.cpuFree > start {
			start = n.cpuFree
		}
		n.cpuFree = start + r.Costs.PerTimer
		n.stats.CPUBusy += r.Costs.PerTimer
		done := n.cpuFree
		r.Sim.At(done, func() {
			if !n.alive || n.gen != gen {
				return
			}
			n.machine.Timer(tag)
		})
	})
}
