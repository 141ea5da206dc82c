// Package canopus is a Go implementation of Canopus, the scalable,
// topology-aware, massively parallel consensus protocol of Rizvi, Wong
// and Keshav (CoNEXT 2017), together with every substrate it depends on:
// a Leaf-Only Tree overlay, Raft-based reliable broadcast inside
// super-leaves, a discrete-event datacenter/WAN network simulator, and
// the EPaxos, Zab/ZooKeeper and ZKCanopus systems of the paper's
// evaluation (internal/harness). Every replica runs one state machine,
// the sharded key-value store, whose image a WAL snapshot holds and a
// joiner installs.
//
// The root package is a thin facade: protocol types are aliases of the
// internal implementations, plus constructors for the two ways to run a
// deployment. A simulated cluster runs on virtual time and is driven
// from its own event loop — deterministic and replayable:
//
//	cluster := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
//	cluster.At(time.Millisecond, func() {
//	    cluster.Submit(0, canopus.OpWrite, 42, []byte("hello"), nil)
//	})
//	cluster.RunUntil(time.Second)
//	fmt.Printf("%s\n", cluster.StoreOf(5).Read(42))
//
// A live cluster (StartLiveCluster here, or cmd/canopus-server
// processes) runs on real sockets, and applications reach it through
// the typed, context-aware client in canopus/client — the one client
// surface; canopus/recipes builds its coordination primitives on it.
package canopus

import (
	"fmt"
	"time"

	"canopus/internal/core"
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
	// NoNode is the "no node" sentinel.
	NoNode = wire.NoNode
)

// Core protocol types.
type (
	// Config parameterizes a Canopus node; see internal/core.Config for
	// field documentation.
	Config = core.Config
	// Node is one Canopus protocol participant.
	Node = core.Node
	// Tree is the Leaf-Only Tree overlay.
	Tree = lot.Tree
	// Store is the replicated key-value state machine.
	Store = kvstore.Store
)

// Write builds a write request.
func Write(client, seq, key uint64, val []byte) Request {
	return Request{Client: client, Seq: seq, Op: OpWrite, Key: key, Val: val}
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
// Submit's operations; replies to it are routed to per-request
// callbacks.
const driverClient = 1<<63 - 1

// SimCluster is an in-process simulated Canopus deployment running on
// virtual time: deterministic, instantaneous, no sockets. It is the
// quickest way to experiment with the protocol and what the examples and
// tests build on.
//
// It is driven from its own event loop: schedule work with At, submit
// from inside those callbacks, advance time with RunUntil. Every run is
// deterministic and replayable. Applications that need a deployment to
// talk to from ordinary goroutines use a live one (StartLiveCluster)
// through canopus/client.
type SimCluster struct {
	Sim    *netsim.Sim
	Runner *netsim.Runner
	Tree   *Tree
	// template is SimOptions.Node: every node's Config, joiners included
	// (core.Config requires one MaxInFlight and LeafTimeout cluster-wide).
	template Config
	nodes    []*Node
	stores   []*Store

	// dones routes driverClient completions back to Submit callbacks.
	dones     map[uint64]func(val []byte, ok bool)
	driverSeq uint64
}

// NewSimCluster builds and registers a full simulated deployment — one
// super-leaf per rack — with a KV store per node. It returns an error
// for invalid tree shapes (negative sizes, mismatched WANRTT matrices).
func NewSimCluster(opts SimOptions) (*SimCluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	var topo *netsim.Topology
	if opts.WANRTT != nil {
		topo = netsim.MultiDCFromRTT(opts.Racks, opts.NodesPerRack, opts.WANRTT)
	} else {
		topo = netsim.SingleDC(opts.Racks, opts.NodesPerRack, netsim.Params{})
	}
	sls := make([][]NodeID, opts.Racks)
	for r := range sls {
		sls[r] = topo.RackMembers(r)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls})
	if err != nil {
		return nil, fmt.Errorf("canopus: %w", err)
	}
	n := opts.Racks * opts.NodesPerRack
	c := &SimCluster{
		Sim: sim, Runner: netsim.NewRunner(sim, topo, netsim.DefaultCosts(), opts.Seed), Tree: tree,
		template: opts.Node,
		nodes:    make([]*Node, n),
		stores:   make([]*Store, n),
		dones:    make(map[uint64]func(val []byte, ok bool)),
	}
	for i := 0; i < n; i++ {
		c.Runner.Register(NodeID(i), c.newNode(NodeID(i), false))
	}
	return c, nil
}

// newNode builds node id from the cluster's template — a joiner when
// asked — over a fresh store, and installs both. The node's one consumer
// completes Submit callbacks.
func (c *SimCluster) newNode(id NodeID, joiner bool) *Node {
	cfg := c.template
	cfg.Tree, cfg.Self = c.Tree, id
	st := kvstore.New()
	cbs := core.Callbacks{Consumers: []core.Consumer{core.ConsumerFunc(c.complete)}}
	var n *Node
	if joiner {
		n = core.NewJoiner(cfg, st, cbs)
	} else {
		n = core.NewNode(cfg, st, cbs)
	}
	c.nodes[id], c.stores[id] = n, st
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

// complete is every node's consumer: it runs the Submit callbacks of the
// operations a committed cycle answers at that node.
func (c *SimCluster) complete(cm *core.Commit) {
	for i := range cm.Replies {
		if req := &cm.Replies[i]; req.Client == driverClient {
			if done, ok := c.dones[req.Seq]; ok {
				delete(c.dones, req.Seq)
				done(cm.Vals[i], true)
			}
		}
	}
}

// Node returns the protocol node with the given ID.
func (c *SimCluster) Node(id NodeID) *Node { return c.nodes[id] }

// StoreOf returns node id's local replica state.
func (c *SimCluster) StoreOf(id NodeID) *Store { return c.stores[id] }

// NumNodes returns the deployment size.
func (c *SimCluster) NumNodes() int { return len(c.nodes) }

// At schedules fn at an absolute virtual time; use it to inject client
// requests and faults from the simulation's event loop.
func (c *SimCluster) At(t time.Duration, fn func()) { c.Sim.At(t, fn) }

// Submit executes one keyed operation at node's replica and invokes done
// (from the event loop — it must not block) with the read value (nil for
// mutations and misses) and whether the operation was served; ok=false
// means the node is crashed or stalled. Call it from inside At.
func (c *SimCluster) Submit(node int, op Op, key uint64, val []byte, done func(val []byte, ok bool)) {
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

// RunUntil advances virtual time to t.
func (c *SimCluster) RunUntil(t time.Duration) { c.Sim.RunUntil(t) }

// Crash fails node id crash-stop.
func (c *SimCluster) Crash(id NodeID) { c.Runner.Crash(id) }

// RestartAsJoiner restarts a crashed node with fresh state and the
// cluster's node template; it re-enters through the join protocol.
func (c *SimCluster) RestartAsJoiner(id NodeID) *Node {
	n := c.newNode(id, true)
	c.Runner.Restart(id, n)
	return n
}
