package epaxos

import (
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

type epCluster struct {
	sim      *netsim.Sim
	runner   *netsim.Runner
	replicas []*Replica
	stores   []*kvstore.Store
	replies  map[wire.NodeID][]wire.Request
	commits  int
}

func newEPCluster(t *testing.T, n int, batch time.Duration) *epCluster {
	t.Helper()
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, n)
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 99)
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	c := &epCluster{sim: sim, runner: runner, replies: make(map[wire.NodeID][]wire.Request)}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		st := kvstore.New()
		rep := New(Config{Self: id, Peers: peers, BatchDuration: batch}, st, Callbacks{
			OnCommit: func(ref InstanceRef, b *wire.Batch) { c.commits++ },
			OnReply: func(req *wire.Request, val []byte) {
				c.replies[id] = append(c.replies[id], *req)
			},
		})
		c.replicas = append(c.replicas, rep)
		c.stores = append(c.stores, st)
		runner.Register(id, rep)
	}
	return c
}

func w(client, seq, key, val uint64) wire.Request {
	return wire.Request{Client: client, Seq: seq, Op: wire.OpWrite, Key: key, Val: []byte{byte(val)}}
}

func TestFastPathCommit(t *testing.T) {
	c := newEPCluster(t, 3, 2*time.Millisecond)
	c.sim.At(time.Millisecond, func() { c.replicas[0].Submit(w(1, 1, 10, 5)) })
	c.sim.RunUntil(200 * time.Millisecond)
	for i, st := range c.stores {
		if got := st.Read(10); len(got) != 1 || got[0] != 5 {
			t.Fatalf("replica %d: key 10 = %v, want [5]", i, got)
		}
	}
	if len(c.replies[0]) != 1 {
		t.Fatalf("replies = %d, want 1", len(c.replies[0]))
	}
}

func TestNonInterferingParallelCommit(t *testing.T) {
	c := newEPCluster(t, 5, 2*time.Millisecond)
	// Distinct keys at every replica: zero interference, all fast path.
	for i := 0; i < 5; i++ {
		id := wire.NodeID(i)
		c.sim.At(time.Millisecond, func() { c.replicas[id].Submit(w(uint64(i+1), 1, uint64(100+i), uint64(i))) })
	}
	c.sim.RunUntil(300 * time.Millisecond)
	for i, st := range c.stores {
		if st.Len() != 5 {
			t.Fatalf("replica %d has %d keys, want 5", i, st.Len())
		}
	}
}

func TestInterferingWritesConverge(t *testing.T) {
	// Two replicas write the same key in different batches; the
	// dependency order must make all replicas agree on the final value.
	c := newEPCluster(t, 3, 2*time.Millisecond)
	c.sim.At(time.Millisecond, func() { c.replicas[0].Submit(w(1, 1, 7, 1)) })
	// Second write after the first committed: strict dependency.
	c.sim.At(100*time.Millisecond, func() { c.replicas[1].Submit(w(2, 1, 7, 2)) })
	c.sim.RunUntil(500 * time.Millisecond)
	for i, st := range c.stores {
		if got := st.Read(7); len(got) != 1 || got[0] != 2 {
			t.Fatalf("replica %d: key 7 = %v, want [2]", i, got)
		}
	}
}

func TestConcurrentInterferenceAgreement(t *testing.T) {
	// Truly concurrent conflicting writes: both may take the slow path;
	// replicas must still converge to the same final value.
	c := newEPCluster(t, 3, 2*time.Millisecond)
	c.sim.At(time.Millisecond, func() { c.replicas[0].Submit(w(1, 1, 7, 1)) })
	c.sim.At(time.Millisecond, func() { c.replicas[1].Submit(w(2, 1, 7, 2)) })
	c.sim.RunUntil(time.Second)
	v0 := c.stores[0].Read(7)
	if len(v0) != 1 {
		t.Fatalf("replica 0: key 7 missing")
	}
	for i, st := range c.stores {
		got := st.Read(7)
		if len(got) != 1 || got[0] != v0[0] {
			t.Fatalf("replica %d: key 7 = %v, replica 0 has %v", i, got, v0)
		}
	}
}

func TestReadsTravelThroughConsensus(t *testing.T) {
	c := newEPCluster(t, 3, 2*time.Millisecond)
	c.sim.At(time.Millisecond, func() { c.replicas[0].Submit(w(1, 1, 3, 9)) })
	c.sim.At(100*time.Millisecond, func() {
		c.replicas[1].Submit(wire.Request{Client: 2, Seq: 1, Op: wire.OpRead, Key: 3})
	})
	c.sim.RunUntil(500 * time.Millisecond)
	reps := c.replies[1]
	if len(reps) != 1 || reps[0].Op != wire.OpRead {
		t.Fatalf("replica 1 replies = %v, want one read", reps)
	}
}

func TestBatchingCoalesces(t *testing.T) {
	c := newEPCluster(t, 3, 5*time.Millisecond)
	commits0 := 0
	c.replicas[0].cbs.OnCommit = func(ref InstanceRef, b *wire.Batch) {
		if ref.Replica == 0 {
			commits0++
		}
	}
	// 10 requests inside one 5ms window -> one instance.
	for i := 0; i < 10; i++ {
		c.sim.At(time.Millisecond, func() { c.replicas[0].Submit(w(1, uint64(i+1), uint64(50+i), 1)) })
	}
	c.sim.RunUntil(200 * time.Millisecond)
	if commits0 != 1 {
		t.Fatalf("instances committed = %d, want 1 (batched)", commits0)
	}
}

func TestFastQuorumSizes(t *testing.T) {
	// EPaxos fast-path quorum is F + floor((F+1)/2) replicas including
	// the command leader; `replies` is what the leader must hear back.
	for _, tc := range []struct{ n, replies int }{
		{3, 1}, {5, 2}, {7, 4}, {9, 5},
	} {
		r := New(Config{Self: 0, Peers: make([]wire.NodeID, tc.n)}, nil, Callbacks{})
		if got := r.fastQuorum(); got != tc.replies {
			t.Errorf("fastQuorum(n=%d) = %d, want %d", tc.n, got, tc.replies)
		}
	}
}
