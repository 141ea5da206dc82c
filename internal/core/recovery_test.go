package core

import (
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// TestRepresentativeCrashMidCycleRecovers kills, mid-cycle, exactly the
// super-leaf representative responsible for fetching the remote branch
// state, while a latency fault holds the fetch in flight. The surviving
// members must take over the dead representative's fetch assignment
// immediately after the failure cut (not after the slow escalation
// window) and drive the cycle to commit.
func TestRepresentativeCrashMidCycleRecovers(t *testing.T) {
	// FailAfter = 100ms; fetch retries rotate emulators every 100ms so
	// the remote super-leaf also steps around the corpse.
	cfg := Config{TickInterval: time.Millisecond, FetchTimeout: 100 * time.Millisecond}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})

	// Identify which representative of super-leaf 0 the modulo rule
	// assigns to fetch super-leaf 1's round-1 state.
	target := tc.tree.Ancestor(0, 2)
	own := tc.tree.Ancestor(0, 1)
	var remote string
	for _, u := range tc.tree.Children(target) {
		if u != own {
			remote = u
		}
	}
	victim := tc.nodes[0].View().RepresentativeFor(0, remote, 2)
	if victim != 0 && victim != 1 {
		t.Fatalf("victim %v is not a representative of super-leaf 0", victim)
	}

	// Stretch cross-rack traffic so the cycle cannot complete before the
	// crash: every fetch (and its response) takes 200ms extra.
	sl0, sl1 := tc.topo.RackMembers(0), tc.topo.RackMembers(1)
	tc.runner.InstallFaults(netsim.FaultPlan{
		Latencies: []netsim.LatencyFault{
			{At: 0, Until: 3 * time.Second, From: sl0, To: sl1, Extra: 200 * time.Millisecond},
			{At: 0, Until: 3 * time.Second, From: sl1, To: sl0, Extra: 200 * time.Millisecond},
		},
		Crashes: []netsim.CrashFault{{At: 100 * time.Millisecond, Node: victim}},
	}, nil)

	// A write submitted at a surviving node starts the cycle at ~10ms;
	// the victim dies at 100ms with the remote fetch still in flight.
	submitter := wire.NodeID(2) // in super-leaf 0; never a victim (victim is 0 or 1)
	tc.submitAt(10*time.Millisecond, submitter, wr(9, 1, 77, 5))
	// Post-crash traffic carries the victim's Leave update into a cycle.
	tc.submitAt(1500*time.Millisecond, submitter, wr(9, 2, 78, 6))
	tc.run(3 * time.Second)

	for i := range tc.nodes {
		if wire.NodeID(i) == victim {
			continue
		}
		if tc.nodes[i].Committed() == 0 {
			t.Fatalf("node %d never committed after representative crash: %s",
				i, tc.nodes[i].DebugCycle(1))
		}
		if tc.nodes[i].View().Alive(victim) {
			t.Fatalf("node %d still lists crashed representative %v as alive", i, victim)
		}
	}
	tc.requireAgreement()
	if got := tc.stores[2].LogLen(); got != 2 {
		t.Fatalf("writes not applied after recovery: log len %d, want 2", got)
	}
}

// TestEffectiveRepsSkipCutPeers checks the modulo-rule inputs directly:
// peers beyond the failure cut leave the representative set immediately,
// promoting the next live member, even though the committed view still
// lists them.
func TestEffectiveRepsSkipCutPeers(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	n := tc.nodes[2] // super-leaf 0 = {0,1,2}, NumReps=2
	if reps := n.effectiveReps(); len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Fatalf("healthy reps = %v, want [0 1]", reps)
	}
	if n.liveRepresentative() {
		t.Fatal("node 2 should not be a representative while 0 and 1 live")
	}
	n.closedPeers[0] = true
	if reps := n.effectiveReps(); len(reps) != 2 || reps[0] != 1 || reps[1] != 2 {
		t.Fatalf("post-cut reps = %v, want [1 2]", reps)
	}
	if !n.liveRepresentative() {
		t.Fatal("node 2 must be promoted to representative after the cut")
	}
	// Every remote vnode must now map to a live representative.
	target := tc.tree.Ancestor(0, 2)
	for _, u := range tc.tree.Children(target) {
		if u == tc.tree.Ancestor(0, 1) {
			continue
		}
		if rep := n.repFor(n.effectiveReps(), u); rep == 0 {
			t.Fatalf("vnode %s still assigned to the cut peer", u)
		}
	}
}

// TestLeaseRevokedOnHolderCrash verifies the §7.2 extension for crashes:
// once the failure cut commits the holder's Leave, its write leases are
// revoked, so other nodes' reads on the key return to the local fast
// path instead of being deferred to cycle boundaries until the TTL runs
// out.
func TestLeaseRevokedOnHolderCrash(t *testing.T) {
	cfg := Config{WriteLeases: true, LeaseTTL: 64, TickInterval: time.Millisecond}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})

	// Node 3 (super-leaf 1, not a fetch-critical representative of
	// super-leaf 0) acquires a lease on key 7 by writing it.
	tc.submitAt(5*time.Millisecond, 3, wr(4, 1, 7, 1))
	tc.run(300 * time.Millisecond)
	if !tc.nodes[0].leaseActive(7) {
		t.Fatal("lease on key 7 never activated")
	}

	// Crash the holder; keep cycles flowing from node 0 so the Leave
	// update can ride a proposal and commit.
	tc.runner.Crash(3)
	for s := 1; s <= 5; s++ {
		tc.submitAt(time.Duration(300+s*150)*time.Millisecond, 0, wr(1, uint64(s), uint64(100+s), 1))
	}
	tc.run(2500 * time.Millisecond)

	if tc.nodes[0].View().Alive(3) {
		t.Fatal("holder's Leave never committed")
	}
	if tc.nodes[0].leaseActive(7) {
		t.Fatalf("lease on key 7 still active after holder crash (until cycle %d, committed %d)",
			tc.nodes[0].leases[7], tc.nodes[0].Committed())
	}

	// A read on the revoked key must complete synchronously (local fast
	// path), not wait for a cycle boundary.
	const readAt = 2600 * time.Millisecond
	tc.submitAt(readAt, 0, rd(1, 99, 7))
	tc.run(3 * time.Second)
	reps := tc.replies[0]
	last := reps[len(reps)-1]
	if last.req.Op != wire.OpRead || last.req.Seq != 99 {
		t.Fatalf("missing read reply; last reply %+v", last.req)
	}
	if last.at != readAt {
		t.Fatalf("read was deferred to %v, want synchronous local reply at %v", last.at, readAt)
	}
	if len(last.val) != 8 || last.val[0] != 1 {
		t.Fatalf("read returned %v, want the committed write", last.val)
	}
}

// TestWANPartitionStallsThenHeals cuts one super-leaf off and verifies
// stall semantics (§6) during the cut and full recovery after the heal,
// with all replicas converging.
func TestWANPartitionStallsThenHeals(t *testing.T) {
	cfg := Config{TickInterval: time.Millisecond, FetchTimeout: 30 * time.Millisecond}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	sl0, sl1 := tc.topo.RackMembers(0), tc.topo.RackMembers(1)
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{{
			At: 50 * time.Millisecond, Heal: time.Second, A: sl0, B: sl1,
		}},
	}, nil)

	// Submitted during the partition: cannot commit until it heals
	// (the remote branch state is unreachable).
	tc.submitAt(100*time.Millisecond, 0, wr(1, 1, 1, 1))
	tc.run(900 * time.Millisecond)
	if tc.nodes[0].Committed() != 0 {
		t.Fatal("cycle committed across an unhealed partition")
	}
	tc.run(4 * time.Second)
	for i := range tc.nodes {
		if tc.nodes[i].Stalled() {
			t.Fatalf("node %d stalled: intra-super-leaf connectivity never broke", i)
		}
		if tc.nodes[i].Committed() == 0 {
			t.Fatalf("node %d never recovered after heal: %s", i, tc.nodes[i].DebugCycle(1))
		}
	}
	tc.requireAgreement()
}

// TestRootCatchUpRequeuesSessionRegistration is benchmark Known defect 4:
// after a power loss the replicas' disks end at different cycles, and a
// session registered on the laggard before it has caught up rides a
// round-1 proposal that root catch-up abandons. The registration must be
// proposed again, not dropped with the proposal.
func TestRootCatchUpRequeuesSessionRegistration(t *testing.T) {
	tc, fakes := durableCluster(t, clusterOpts{racks: 1, perRack: 3})
	for i := 0; i < 12; i++ {
		tc.submitAt(time.Duration(1+i*20)*time.Millisecond, wire.NodeID(i%3), wr(uint64(1+i%3), uint64(1+i/3), uint64(i), uint64(i)))
	}
	tc.run(500 * time.Millisecond)
	logged := len(fakes[0].cycles)
	if logged < 8 {
		t.Fatalf("only %d cycles logged before the power loss", logged)
	}

	// Power loss: every node restarts from its own log, which on node 1
	// is one cycle short and on node 2 three.
	const laggard = 2
	for i, short := range []int{0, 1, 3} {
		id := wire.NodeID(i)
		tc.runner.Crash(id)
		st := kvstore.NewLogged()
		node := NewNode(Config{Tree: tc.tree, Self: id}, st, Callbacks{})
		for j := 0; j < logged-short; j++ {
			msg, _, err := wire.Decode(fakes[i].roots[j])
			if err != nil {
				t.Fatalf("node %d record %d does not decode: %v", i, j, err)
			}
			if err := node.ReplayCommit(fakes[i].cycles[j], msg.(*wire.Proposal)); err != nil {
				t.Fatalf("node %d replay: %v", i, err)
			}
		}
		tc.nodes[i], tc.stores[i] = node, st
		tc.runner.Restart(id, node)
	}

	var session uint64
	registered := false
	tc.sim.At(tc.sim.Now()+time.Millisecond, func() {
		tc.nodes[laggard].RegisterSession(func(id uint64, ok bool) { session, registered = id, ok })
	})
	tc.run(tc.sim.Now() + 3*time.Second)

	if !registered {
		t.Fatal("session registered on the laggard during catch-up was never answered")
	}
	if got := tc.nodes[laggard].Committed(); got <= uint64(logged) {
		t.Fatalf("laggard never caught up: committed %d, peers restarted at %d", got, logged)
	}
	for i, n := range tc.nodes {
		if !n.Sessions().Has(session) {
			t.Fatalf("node %d does not know session %x", i, session)
		}
	}
}
