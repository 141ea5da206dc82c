package canopus

import (
	"time"

	"canopus/internal/core"
	"canopus/internal/netsim"
	"canopus/internal/zk"
)

// Coordination re-exports the ZooKeeper-like layer ("ZKCanopus" when the
// engine is Canopus — the paper's §8.1.2 system).
type (
	// ZNode is one entry of the coordination tree.
	ZNode = zk.ZNode
	// ZKServer is one coordination-service node.
	ZKServer = zk.Server
	// ZKTree is the replicated znode state machine.
	ZKTree = zk.Tree
)

// CoordCluster is a simulated ZKCanopus deployment: Canopus consensus
// under a znode tree, with linearizable reads.
type CoordCluster struct {
	Sim     *netsim.Sim
	Runner  *netsim.Runner
	servers []*ZKServer
	trees   []*ZKTree
	nodes   []*core.Node
}

// NewCoordCluster builds a simulated ZKCanopus deployment with the same
// topology options as NewSimCluster, returning an error for invalid
// tree shapes.
func NewCoordCluster(opts SimOptions) (*CoordCluster, error) {
	sim, runner, tree, err := newSimDeployment(&opts)
	if err != nil {
		return nil, err
	}
	c := &CoordCluster{Sim: sim, Runner: runner}
	for i := 0; i < opts.Racks*opts.NodesPerRack; i++ {
		id := NodeID(i)
		cfg := opts.Node
		cfg.Tree = tree
		cfg.Self = id
		zt := zk.NewTree()
		// The server consumes its node's committed stream, and the node is
		// the server's backend: the consumer is built first.
		var server *zk.Server
		node := core.NewNode(cfg, zt, core.Callbacks{Consumers: []core.Consumer{core.ConsumerFunc(func(c *core.Commit) {
			for i := range c.Replies {
				server.Complete(&c.Replies[i], c.Vals[i])
			}
		})}})
		server = zk.NewServer(zt, node, uint64(i)+1, true /* linearizable reads */)
		c.servers = append(c.servers, server)
		c.trees = append(c.trees, zt)
		c.nodes = append(c.nodes, node)
		runner.Register(id, node)
	}
	return c, nil
}

// MustCoordCluster is NewCoordCluster, panicking on invalid options.
func MustCoordCluster(opts SimOptions) *CoordCluster {
	c, err := NewCoordCluster(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Server returns node id's coordination server.
func (c *CoordCluster) Server(id NodeID) *ZKServer { return c.servers[id] }

// TreeOf returns node id's local znode replica.
func (c *CoordCluster) TreeOf(id NodeID) *ZKTree { return c.trees[id] }

// At schedules fn at a virtual time.
func (c *CoordCluster) At(t time.Duration, fn func()) { c.Sim.At(t, fn) }

// RunUntil advances virtual time.
func (c *CoordCluster) RunUntil(t time.Duration) { c.Sim.RunUntil(t) }
