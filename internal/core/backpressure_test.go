package core

import (
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// gatedStore is a store whose writes wait for a gate: it stands for an
// apply stage that falls behind (a snapshot, a slow fsync).
type gatedStore struct {
	*kvstore.Store
	gate chan struct{} // closed = open
}

func (g *gatedStore) ApplyWriteAt(req *wire.Request, cycle, owner uint64) []byte {
	<-g.gate
	return g.Store.ApplyWriteAt(req, cycle, owner)
}

// TestApplyBackpressureRestartsIdleNode is the regression test for the
// liveness hole the benchmark found: a node that refuses to start a cycle
// because its apply stage lags, and that has no client request pending
// and nothing in flight, was never asked again — the peers' round-1
// deliveries that prompted the start had already come and gone — so its
// super-leaf waited for its round 1 for ever. Node 2's apply stage runs
// on its own goroutine (the live driver; inline, a stage never lags) over a
// store that applies nothing until the gate opens; every client is on node
// 0.
func TestApplyBackpressureRestartsIdleNode(t *testing.T) {
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, 3, netsim.Params{})
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 42)
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{topo.RackMembers(0)}})
	if err != nil {
		t.Fatal(err)
	}
	slow := &gatedStore{Store: kvstore.NewSharded(1), gate: make(chan struct{})}
	replies := 0
	var nodes []*Node
	for i := 0; i < 3; i++ {
		cfg := Config{Tree: tree, Self: wire.NodeID(i), CycleInterval: time.Millisecond}
		var n *Node
		switch i {
		case 0:
			n = NewNode(cfg, kvstore.New(), Callbacks{Consumers: []Consumer{ConsumerFunc(func(c *Commit) { replies += len(c.Replies) })}})
		case 2:
			n = NewNode(cfg, slow, Callbacks{})
			GoStage(n)
			defer n.Close()
		default:
			n = NewNode(cfg, kvstore.New(), Callbacks{})
		}
		nodes = append(nodes, n)
		runner.Register(wire.NodeID(i), n)
	}

	// One write per millisecond: far more cycles than node 2 may order
	// ahead of its stuck apply stage (2 x MaxInFlight).
	const writes = 60
	for i := 1; i <= writes; i++ {
		i := i
		sim.At(time.Duration(i)*time.Millisecond, func() { nodes[0].Submit(wr(1, uint64(i), uint64(i), uint64(i))) })
	}
	sim.RunUntil(200 * time.Millisecond)
	if replies == writes {
		t.Fatal("every write committed with node 2's apply stage stuck; backpressure never engaged and the test proves nothing")
	}
	stuckAt := nodes[2].Started()

	// The apply stage catches up; nothing else happens to node 2.
	close(slow.gate)
	nodes[2].DrainApply()
	sim.RunUntil(400 * time.Millisecond)
	if replies != writes {
		t.Fatalf("%d of %d writes answered: node 2 stopped at cycle %d and never started another (now %d) after its apply stage caught up",
			replies, writes, stuckAt, nodes[2].Started())
	}
	nodes[2].DrainApply()
	if got, want := slow.StateDigest(), nodes[0].sm.(*kvstore.Store).StateDigest(); got != want {
		t.Fatalf("node 2's state %x differs from node 0's %x", got, want)
	}
}

// TestPeerStartAtMaxInFlightIsOwed: a leaf-mate's round-1 proposal for
// cycle k+1 reaches a node that still has MaxInFlight cycles in flight, so
// it may not start k+1 then. Nothing asks it again — the delivery has come
// and gone, and it has no client of its own — so unless the refused start
// is owed and the tick starts it, the super-leaf waits for its round 1 for
// ever. Two leaves of two, one cycle in flight, every client on node 1:
// node 1 rebroadcasts the remote state, node 0 delivers it on append,
// completes cycle k and starts k+1, and its k+1 append leaves before its
// ack of the state, which node 1 needs to complete k.
func TestPeerStartAtMaxInFlightIsOwed(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 2, cfg: Config{MaxInFlight: 1}})
	const writes = 20
	for i := uint64(1); i <= writes; i++ {
		tc.submitAt(10*time.Millisecond+time.Duration(i)*50*time.Microsecond, 1, wr(1, i, i, i))
	}
	tc.run(100 * time.Millisecond)
	if got := len(tc.replies[1]); got != writes {
		t.Fatalf("node 1 answered %d of %d writes; started %d %d %d %d, ordered %d %d %d %d", got, writes,
			tc.nodes[0].Started(), tc.nodes[1].Started(), tc.nodes[2].Started(), tc.nodes[3].Started(),
			tc.nodes[0].Ordered(), tc.nodes[1].Ordered(), tc.nodes[2].Ordered(), tc.nodes[3].Ordered())
	}
	tc.requireAgreement()
}
