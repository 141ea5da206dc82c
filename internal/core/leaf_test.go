package core

import (
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Eviction tests: super-leaf fault tolerance with Config.LeafTimeout
// armed (leaf.go). The clusters are 3 super-leaves of 3 — the smallest
// topology where two leaves form a majority over all static leaves and
// can evict the third.

const testLeafTimeout = 600 * time.Millisecond

// evictionCfg arms leaf eviction with timings suited to the simulated
// single-DC network.
func evictionCfg() Config {
	return Config{LeafTimeout: testLeafTimeout, FetchTimeout: 50 * time.Millisecond}
}

// restartAsJoiner replaces node id with a fresh protocol-level joiner
// (empty store, rejoining through the join protocol), keeping the
// eviction-restart callback installed in case it is evicted again.
func (tc *testCluster) restartAsJoiner(id wire.NodeID, cfg Config, onEvicted func(tc *testCluster, id wire.NodeID)) {
	cfg.Tree = tc.tree
	cfg.Self = id
	st := kvstore.NewLogged()
	tc.stores[id] = st
	cbs := Callbacks{}
	if onEvicted != nil {
		cbs.OnEvicted = func() { onEvicted(tc, id) }
	}
	joiner := NewJoiner(cfg, st, cbs)
	tc.nodes[id] = joiner
	if tc.runner.Alive(id) {
		tc.runner.Crash(id)
	}
	tc.runner.Restart(id, joiner)
}

// requireAgreementAmong asserts the given replicas applied identical
// write sequences.
func (tc *testCluster) requireAgreementAmong(ids []wire.NodeID) {
	tc.t.Helper()
	ref := ids[0]
	for _, id := range ids[1:] {
		if tc.stores[id].LogLen() != tc.stores[ref].LogLen() ||
			tc.stores[id].LogDigest() != tc.stores[ref].LogDigest() {
			tc.t.Fatalf("replica divergence: node %d (len %d) vs node %d (len %d)",
				id, tc.stores[id].LogLen(), ref, tc.stores[ref].LogLen())
		}
	}
}

// TestLeafPartitionEviction: a whole super-leaf partitioned away stalls
// the cluster in stock Canopus; with LeafTimeout armed the surviving
// majority of leaves evicts it and consensus resumes without it.
func TestLeafPartitionEviction(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: evictionCfg()})
	survivors := []wire.NodeID{0, 1, 2, 3, 4, 5}
	leaf2 := []wire.NodeID{6, 7, 8}

	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{netsim.LeafPartition(300*time.Millisecond, 0, leaf2, survivors)},
	}, nil)
	// Post-partition traffic: must commit once the dead leaf is evicted.
	for s := 2; s <= 6; s++ {
		tc.submitAt(time.Duration(s)*400*time.Millisecond, 0, wr(1, uint64(s), uint64(100+s), uint64(s)))
	}
	tc.run(4 * time.Second)

	for _, id := range survivors {
		if tc.nodes[id].Stalled() {
			t.Fatalf("survivor %d stalled despite eviction", id)
		}
		if got := tc.stores[id].LogLen(); got != 11 {
			t.Fatalf("node %d applied %d writes, want 11 (6 pre + 5 post partition)", id, got)
		}
		for _, dead := range leaf2 {
			if tc.nodes[id].View().Alive(dead) {
				t.Fatalf("node %d still considers evicted node %d alive", id, dead)
			}
		}
	}
	tc.requireAgreementAmong(survivors)

	// The eviction is observable: some survivor resolved a tombstone, and
	// every survivor's leaf health reports leaf 2 evicted.
	var evictions uint64
	for _, id := range survivors {
		evictions += tc.nodes[id].stats.leafEvictions.Load()
	}
	if evictions == 0 {
		t.Fatal("no node recorded a resolved eviction round")
	}
	lh := tc.nodes[0].LeafHealth()
	if len(lh) != 3 || !lh[2].Evicted || lh[2].EvictedAt == 0 {
		t.Fatalf("leaf health = %+v, want leaf 2 evicted with a cycle mark", lh)
	}
	if lh[0].Evicted || lh[1].Evicted {
		t.Fatalf("live leaves reported evicted: %+v", lh)
	}
}

// TestLeafPartitionHealReadmission: after the partition heals, the
// evicted members learn their fate from Evicted notices, restart through
// the join protocol (cross-leaf sponsorship resurrects the first one),
// and the leaf is re-admitted to the merge with identical state.
func TestLeafPartitionHealReadmission(t *testing.T) {
	restart := func(tc *testCluster, id wire.NodeID) {
		tc.sim.After(100*time.Millisecond, func() {
			tc.restartAsJoiner(id, evictionCfg(), nil)
		})
	}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: evictionCfg(), onEvicted: restart})
	survivors := []wire.NodeID{0, 1, 2, 3, 4, 5}
	leaf2 := []wire.NodeID{6, 7, 8}

	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{
			netsim.LeafPartition(300*time.Millisecond, 2500*time.Millisecond, leaf2, survivors),
		},
	}, nil)
	tc.submitAt(1500*time.Millisecond, 0, wr(1, 2, 100, 2)) // commits via eviction
	tc.submitAt(8*time.Second, 1, wr(2, 2, 101, 3))         // after re-admission
	tc.run(12 * time.Second)

	for _, id := range leaf2 {
		if tc.nodes[id].Stalled() {
			t.Fatalf("rejoined node %d stalled", id)
		}
		if tc.nodes[id].Committed() == 0 {
			t.Fatalf("rejoined node %d never committed", id)
		}
	}
	// Full-state convergence (joiners snapshot, so compare state digests).
	want := tc.stores[0].StateDigest()
	for id := 1; id < 9; id++ {
		if got := tc.stores[id].StateDigest(); got != want {
			t.Fatalf("node %d state digest %x, want %x", id, got, want)
		}
	}
	lh := tc.nodes[0].LeafHealth()
	if lh[2].Evicted {
		t.Fatalf("leaf 2 still marked evicted after re-admission: %+v", lh[2])
	}
	var readmissions uint64
	for _, id := range survivors {
		readmissions += tc.nodes[id].stats.leafReadmissions.Load()
	}
	if readmissions == 0 {
		t.Fatal("no survivor recorded the leaf re-admission")
	}
}

// TestLeafMajorityCrashEviction: crashing a majority of one leaf stalls
// its survivor (broadcast quorum loss) and silences the leaf. The other
// leaves evict it; the survivor learns via an Evicted notice and rejoins
// empty-handed through a cross-leaf sponsor; the crashed members rejoin
// later through the survivor. Recovery of global consensus is bounded by
// roughly LeafTimeout plus one eviction round.
func TestLeafMajorityCrashEviction(t *testing.T) {
	restart := func(tc *testCluster, id wire.NodeID) {
		tc.sim.After(100*time.Millisecond, func() {
			tc.restartAsJoiner(id, evictionCfg(), nil)
		})
	}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: evictionCfg(), onEvicted: restart})
	leaf2 := []wire.NodeID{6, 7, 8}

	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	// Crash 6 and 7 (a majority of leaf 2) at 300ms, no auto-restart.
	tc.runner.InstallFaults(netsim.FaultPlan{
		Crashes: netsim.LeafMajorityCrash(300*time.Millisecond, leaf2, 0),
	}, nil)
	const faultAt = 300 * time.Millisecond
	tc.submitAt(400*time.Millisecond, 0, wr(1, 2, 100, 2))

	// Track when the post-fault write lands: the recovery bound.
	var recoveredAt time.Duration
	tc.sim.At(350*time.Millisecond, func() {
		tc.onCommit = func(id wire.NodeID, c *Commit) {
			if id == 1 && recoveredAt == 0 && tc.stores[1].LogLen() >= 7 {
				recoveredAt = tc.sim.Now()
			}
		}
	})
	// Restart the crashed majority as joiners well after the eviction.
	tc.sim.At(3*time.Second, func() { tc.restartAsJoiner(6, evictionCfg(), nil) })
	tc.sim.At(3*time.Second, func() { tc.restartAsJoiner(7, evictionCfg(), nil) })
	tc.submitAt(6*time.Second, 1, wr(2, 2, 101, 3))
	tc.run(9 * time.Second)

	if recoveredAt == 0 {
		t.Fatal("post-fault write never committed: eviction did not restore liveness")
	}
	if bound := faultAt + testLeafTimeout + 2*time.Second; recoveredAt > bound {
		t.Fatalf("recovery took until %v, want <= %v (timeout + one eviction round)", recoveredAt, bound)
	}
	for _, id := range leaf2 {
		if !tc.runner.Alive(id) || tc.nodes[id].Stalled() {
			t.Fatalf("leaf-2 node %d did not rejoin (alive=%v)", id, tc.runner.Alive(id))
		}
	}
	want := tc.stores[0].StateDigest()
	for id := 1; id < 9; id++ {
		if got := tc.stores[id].StateDigest(); got != want {
			t.Fatalf("node %d state digest %x, want %x", id, got, want)
		}
	}
}

// TestTwoLeavesCannotEvict: with two super-leaves neither side can form
// a majority of all static leaves, so a partition must stall both sides
// (the stock §6 behaviour) rather than let them diverge.
func TestTwoLeavesCannotEvict(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: evictionCfg()})
	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{
			netsim.LeafPartition(300*time.Millisecond, 0, []wire.NodeID{3, 4, 5}, []wire.NodeID{0, 1, 2}),
		},
	}, nil)
	tc.submitAt(500*time.Millisecond, 0, wr(1, 2, 100, 2))
	tc.submitAt(500*time.Millisecond, 3, wr(2, 2, 101, 3))
	tc.run(4 * time.Second)

	// Neither side committed its post-partition write, and no eviction
	// round resolved anywhere.
	for i := 0; i < 6; i++ {
		if tc.nodes[i].stats.leafEvictions.Load() != 0 {
			t.Fatalf("node %d resolved an eviction in a 2-leaf topology", i)
		}
		if tc.stores[i].LogLen() != 6 {
			t.Fatalf("node %d applied %d writes, want only the 6 pre-partition ones", i, tc.stores[i].LogLen())
		}
	}
}

// TestHeldBackLeafIsNotEvicted: five single-node leaves across a WAN,
// cycles pipelined. Node 4 dies, but its link to node 3 fails a moment
// before its other links: node 3 misses the last states 4 sent, which the
// others received and committed. So node 3 resolves those cycles one
// eviction round later than the others and, its pipeline full
// (MaxInFlight), cannot start the cycles the others began after them.
// Node 3 is healthy and must not be evicted with node 4.
func TestHeldBackLeafIsNotEvicted(t *testing.T) {
	cfg := evictionCfg()
	cfg.CycleInterval = 5 * time.Millisecond
	cfg.TickInterval = 5 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{racks: 5, perRack: 1, wan: 20 * time.Millisecond, cfg: cfg})
	const cutAt = 300 * time.Millisecond
	dead, heldBack := wire.NodeID(4), wire.NodeID(3)
	live := []wire.NodeID{0, 1, 2, 3}
	tc.runner.InstallFaults(netsim.FaultPlan{
		Drops: []netsim.DropFault{{At: cutAt, From: []wire.NodeID{dead}, To: []wire.NodeID{heldBack}, Prob: 1}},
		Partitions: []netsim.PartitionFault{
			netsim.LeafPartition(cutAt+10*time.Millisecond, 0, []wire.NodeID{dead}, live),
		},
	}, nil)
	// A write every 5 ms, round-robin over the live nodes, keeps cycles
	// in flight across the cut.
	const writes = 400
	for i := 0; i < writes; i++ {
		node := live[i%len(live)]
		tc.submitAt(time.Duration(i+1)*5*time.Millisecond, node, wr(uint64(node)+1, uint64(i/len(live))+1, uint64(i), uint64(i)))
	}
	tc.run(4 * time.Second)

	lh := tc.nodes[0].LeafHealth()
	if !lh[dead].Evicted {
		t.Fatalf("leaf health = %+v, want the dead leaf evicted", lh)
	}
	for _, id := range live {
		if lh[id].Evicted || tc.nodes[id].Stalled() {
			t.Fatalf("live node %d evicted or stalled: leaf health = %+v", id, lh)
		}
	}
	for _, id := range live {
		if got := tc.stores[id].LogLen(); got != writes {
			t.Fatalf("node %d applied %d writes, want %d", id, got, writes)
		}
	}
	tc.requireAgreementAmong(live)
}

// TestLeafTimeoutZeroIsStock: LeafTimeout unset must preserve the stock
// stall behaviour bit-for-bit — same digests, same simulator step count —
// as a build without any eviction machinery would produce. Guarded by
// comparing two identical runs plus asserting no eviction state forms.
func TestLeafEvictionDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		restart := func(tc *testCluster, id wire.NodeID) {
			tc.sim.After(100*time.Millisecond, func() {
				tc.restartAsJoiner(id, evictionCfg(), nil)
			})
		}
		tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: evictionCfg(), seed: 7, onEvicted: restart})
		for i := 0; i < 6; i++ {
			tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
		}
		tc.runner.InstallFaults(netsim.FaultPlan{
			Partitions: []netsim.PartitionFault{
				netsim.LeafPartition(300*time.Millisecond, 2500*time.Millisecond,
					[]wire.NodeID{6, 7, 8}, []wire.NodeID{0, 1, 2, 3, 4, 5}),
			},
		}, nil)
		tc.submitAt(1500*time.Millisecond, 0, wr(1, 2, 100, 2))
		tc.submitAt(8*time.Second, 1, wr(2, 2, 101, 3))
		tc.run(10 * time.Second)
		return tc.stores[0].StateDigest(), tc.nodes[0].stats.leafEvictions.Load() +
			tc.nodes[3].stats.leafEvictions.Load(), tc.sim.Steps()
	}
	d1, e1, s1 := run()
	d2, e2, s2 := run()
	if d1 != d2 || e1 != e2 || s1 != s2 {
		t.Fatalf("eviction run not deterministic: digest %x/%x evictions %d/%d steps %d/%d",
			d1, d2, e1, e2, s1, s2)
	}
}

// TestRejoinAfterLostJoinReply: the sponsor-side retry for a lost
// JoinReply. A single-member super-leaf's node restarts as a joiner
// while it is still alive in the view — exactly the state a lost
// one-shot JoinReply leaves behind on a live deployment, where the
// sponsor's first write after a process restart can land on a stale
// connection and the frame is dropped. The joiner's leaf is then
// non-empty (the joiner itself is seated), so the cross-leaf resurrect
// gate used to drop every retry while no own-leaf peer existed to
// sponsor instead: a permanent deadlock. The sponsors must recognize
// "sole seated member of its leaf, still asking" and re-answer with the
// committed state.
func TestRejoinAfterLostJoinReply(t *testing.T) {
	// LeafTimeout stays unarmed: with eviction on, wedged post-rejoin
	// writes would eventually re-evict the silent leaf and resurrect the
	// joiner through the empty-leaf path, masking the deadlock this test
	// pins down (on the live cluster it bit while the cluster was idle).
	cfg := Config{FetchTimeout: 50 * time.Millisecond}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 1, cfg: cfg})
	for i := 0; i < 3; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	// Quiescent crash+restart: no cycles in flight, node 2 still alive in
	// every view, no own-leaf member to notice and re-sponsor it.
	tc.sim.At(300*time.Millisecond, func() {
		tc.restartAsJoiner(2, cfg, nil)
	})
	// Post-rejoin traffic cannot commit unless the joiner was re-briefed:
	// node 2's leaf is alive in the view, so every later cycle needs it.
	for s := 2; s <= 4; s++ {
		tc.submitAt(time.Duration(s)*500*time.Millisecond, 0, wr(1, uint64(s), uint64(100+s), uint64(s)))
	}
	tc.run(4 * time.Second)

	for i := 0; i < 3; i++ {
		if got := tc.stores[i].LogLen(); got != 6 {
			t.Fatalf("node %d applied %d writes, want 6 (3 pre-restart + 3 post-rejoin)", i, got)
		}
	}
	// Full-state convergence (the joiner snapshots, so compare state
	// digests, not log digests).
	want := tc.stores[0].StateDigest()
	for i := 1; i < 3; i++ {
		if got := tc.stores[i].StateDigest(); got != want {
			t.Fatalf("node %d state digest %x, want %x", i, got, want)
		}
	}
}
