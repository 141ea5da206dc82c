package zab

import (
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

type zabCluster struct {
	sim     *netsim.Sim
	nodes   []*Node
	stores  []*kvstore.Store
	replies map[wire.NodeID][]wire.Request
}

// newZabCluster builds n nodes: node 0 leads, the first `voters` nodes
// vote, the rest observe.
func newZabCluster(t *testing.T, n, voters int) *zabCluster {
	t.Helper()
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, n)
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 5)
	all := make([]wire.NodeID, n)
	for i := range all {
		all[i] = wire.NodeID(i)
	}
	vs := all[:voters]
	c := &zabCluster{sim: sim, replies: make(map[wire.NodeID][]wire.Request)}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		st := kvstore.NewLogged()
		node := New(Config{Self: id, Leader: 0, Voters: vs, All: all}, st, Callbacks{
			OnReply: func(req *wire.Request, val []byte) {
				c.replies[id] = append(c.replies[id], *req)
			},
		})
		c.nodes = append(c.nodes, node)
		c.stores = append(c.stores, st)
		runner.Register(id, node)
	}
	return c
}

func w(client, seq, key, val uint64) wire.Request {
	return wire.Request{Client: client, Seq: seq, Op: wire.OpWrite, Key: key, Val: []byte{byte(val)}}
}

func TestLeaderWriteReachesAll(t *testing.T) {
	c := newZabCluster(t, 5, 3)
	c.sim.At(time.Millisecond, func() { c.nodes[0].Submit(w(1, 1, 10, 5)) })
	c.sim.RunUntil(200 * time.Millisecond)
	for i, st := range c.stores {
		if got := st.Read(10); len(got) != 1 || got[0] != 5 {
			t.Fatalf("node %d: key 10 = %v, want [5]", i, got)
		}
	}
}

func TestObserverForwardsWrites(t *testing.T) {
	c := newZabCluster(t, 7, 3)
	// Node 6 is an observer; its write must still commit everywhere.
	c.sim.At(time.Millisecond, func() { c.nodes[6].Submit(w(1, 1, 20, 9)) })
	c.sim.RunUntil(200 * time.Millisecond)
	for i, st := range c.stores {
		if got := st.Read(20); len(got) != 1 || got[0] != 9 {
			t.Fatalf("node %d: key 20 = %v, want [9]", i, got)
		}
	}
	// The observer answered its client.
	if len(c.replies[6]) != 1 {
		t.Fatalf("observer replies = %d, want 1", len(c.replies[6]))
	}
}

func TestTotalOrderAcrossOrigins(t *testing.T) {
	c := newZabCluster(t, 7, 3)
	for i := 0; i < 7; i++ {
		id := wire.NodeID(i)
		c.sim.At(time.Millisecond, func() { c.nodes[id].Submit(w(uint64(i+1), 1, 7, uint64(i+1))) })
	}
	c.sim.RunUntil(500 * time.Millisecond)
	// All nodes applied the same write sequence (same digest).
	want := c.stores[0].LogDigest()
	for i, st := range c.stores {
		if st.LogDigest() != want {
			t.Fatalf("node %d digest %x != %x", i, st.LogDigest(), want)
		}
		if st.LogLen() != 7 {
			t.Fatalf("node %d applied %d writes, want 7", i, st.LogLen())
		}
	}
}

func TestLocalReadsAnswerImmediately(t *testing.T) {
	c := newZabCluster(t, 5, 3)
	got := -1
	c.nodes[4].cbs.OnReply = func(req *wire.Request, val []byte) {
		if req.Op == wire.OpRead {
			got = len(val)
		}
	}
	c.sim.At(time.Millisecond, func() {
		c.nodes[4].Submit(wire.Request{Client: 1, Seq: 1, Op: wire.OpRead, Key: 99})
	})
	c.sim.RunUntil(10 * time.Millisecond)
	if got != 0 {
		t.Fatalf("read did not answer immediately from local (empty) state")
	}
}

func TestZxidOrderPreserved(t *testing.T) {
	c := newZabCluster(t, 5, 3)
	var delivered []uint64
	c.nodes[3].cbs.OnDeliver = func(zxid uint64, b *wire.Batch) {
		delivered = append(delivered, zxid)
	}
	for s := 1; s <= 20; s++ {
		seq := uint64(s)
		c.sim.At(time.Duration(s)*3*time.Millisecond, func() {
			c.nodes[1].Submit(w(1, seq, seq, seq))
		})
	}
	c.sim.RunUntil(time.Second)
	for i := 1; i < len(delivered); i++ {
		if delivered[i] != delivered[i-1]+1 {
			t.Fatalf("zxid order broken: %d after %d", delivered[i], delivered[i-1])
		}
	}
	if len(delivered) == 0 {
		t.Fatal("nothing delivered")
	}
}
