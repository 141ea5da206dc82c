package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// TestRejoinBeforeTheFailureCut: a node of a three-node leaf crashes and
// restarts as a joiner before its leaf-mates have cut its old incarnation.
// The first sponsor it asks still sees it seated; the join must wait for
// the leaf's agreed cut, and every write afterwards must commit
// everywhere.
func TestRejoinBeforeTheFailureCut(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, seed: seed})
		tc.submitAt(time.Millisecond, 0, wr(1, 1, 1, 1))
		tc.sim.At(100*time.Millisecond, func() { tc.runner.Crash(2) })
		tc.sim.At(300*time.Millisecond, func() { tc.restartAsJoiner(2, Config{}, nil) })
		for s := uint64(2); s <= 6; s++ {
			tc.submitAt(time.Duration(400+100*s)*time.Millisecond, 0, wr(1, s, s, s))
		}
		tc.run(10 * time.Second)
		for _, id := range []wire.NodeID{0, 1} {
			if got := tc.stores[id].LogLen(); got != 6 {
				t.Fatalf("seed %d: node %d applied %d writes, want 6\n%s", seed, id, got, tc.nodes[id].DebugCycle(tc.nodes[id].Ordered()+1))
			}
		}
		if got, want := tc.stores[2].StateDigest(), tc.stores[0].StateDigest(); got != want {
			t.Fatalf("seed %d: rejoined node's state digest %x, want %x", seed, got, want)
		}
	}
}

// TestCrossLeafSponsorSeatsIntoPipeliningLeaf: node 8 rejoins through a
// sponsor in another leaf while its leaf-mates are live and pipelining
// cycles under steady load (a 5 ms WAN between the leaves makes every
// cycle outlive the 2 ms interval, so MaxInFlight cycles overlap). The
// mates learn of the join only when its cycle commits, possibly after they
// started the next ones; every member must still wait for node 8's
// round-1 proposal from the same cycle on, and all nine replicas must
// converge.
func TestCrossLeafSponsorSeatsIntoPipeliningLeaf(t *testing.T) {
	rejoinIntoPipeliningLeaf(t, Config{CycleInterval: 2 * time.Millisecond, MaxInFlight: 4}, 5*time.Millisecond, 3, true)
}

// TestRejoinIntoDeepPipeline: the same rejoin with 128 cycles in flight
// over a 20 ms WAN. When the seat is taken, node 8's leaf-mates have
// already put round-1 proposals and rebroadcast states of the seat's
// cycles in their broadcast groups, far more entries than a group keeps
// once applied; node 8 must still receive every one of them.
func TestRejoinIntoDeepPipeline(t *testing.T) {
	rejoinIntoPipeliningLeaf(t, Config{CycleInterval: time.Millisecond, MaxInFlight: 128}, 20*time.Millisecond, 1, false)
}

// rejoinIntoPipeliningLeaf crashes node 8 of a 3×3 WAN cluster under
// load, restarts it as a joiner and requires all nine replicas to
// converge, for seeds 1 to seeds; crossLeaf requires its sponsor to be
// outside its leaf.
func rejoinIntoPipeliningLeaf(t *testing.T, cfg Config, wan time.Duration, seeds int64, crossLeaf bool) {
	t.Helper()
	for seed := int64(1); seed <= seeds; seed++ {
		tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: cfg, seed: seed, wan: wan, trace: true})
		tc.sim.At(100*time.Millisecond, func() { tc.runner.Crash(8) })
		tc.sim.At(1500*time.Millisecond, func() { tc.restartAsJoiner(8, cfg, nil) })
		submitted := tc.load([]wire.NodeID{0, 4, 6, 7}, 5*time.Millisecond, 4*time.Second, 2*time.Millisecond)
		// Node 8 writes keys nobody else does as soon as it is back: a
		// leaf-mate that finished an early cycle's round 1 without it would
		// order the cycle without them, and only node 8 would hold them.
		for seq := uint64(1); seq <= 1250; seq++ {
			tc.submitAt(1500*time.Millisecond+time.Duration(seq)*2*time.Millisecond, 8, wr(100, seq, 10000+seq, seq))
		}
		tc.run(5 * time.Second)

		sponsor := wire.NoNode
		for _, e := range tc.trace.evs {
			if e.event == "join-accept" {
				sponsor = e.self
			}
		}
		if sponsor == wire.NoNode || crossLeaf && tc.tree.SuperLeafOf(sponsor) == 2 {
			t.Fatalf("seed %d: node 8 was sponsored by %v, want a node outside leaf 2", seed, sponsor)
		}
		if tc.nodes[8].rejoin || tc.nodes[8].Stalled() {
			t.Fatalf("seed %d: node 8 did not rejoin (rejoin=%v stalled=%v)", seed, tc.nodes[8].rejoin, tc.nodes[8].Stalled())
		}
		// Writes submitted to node 8 before its reply landed were dropped;
		// every other one must be applied.
		if got := tc.stores[0].LogLen(); got <= uint64(len(submitted)) {
			t.Fatalf("seed %d: node 0 applied %d writes, want the %d of nodes 0, 4, 6, 7 and some of node 8's\n%s",
				seed, got, len(submitted), tc.nodes[0].DebugCycle(tc.nodes[0].Ordered()+1))
		}
		tc.requireAgreementAmong([]wire.NodeID{0, 1, 2, 3, 4, 5, 6, 7})
		want := tc.stores[0].StateDigest()
		for id := 1; id < 9; id++ {
			if got := tc.stores[id].StateDigest(); got != want {
				t.Fatalf("seed %d: node %d state digest %x, want %x", seed, id, got, want)
			}
		}
	}
}

// dropFirstReply is a joiner whose first JoinReply the network loses, as
// a live transport does with the first frame on a connection a partition
// left dead.
type dropFirstReply struct {
	*Node
	dropped bool
}

func (d *dropFirstReply) Recv(from wire.NodeID, m wire.Message) {
	if _, ok := m.(*wire.JoinReply); ok && !d.dropped {
		d.dropped = true
		return
	}
	d.Node.Recv(from, m)
}

// TestLostJoinReplyIsResent: a two-member leaf is evicted and both members
// rejoin, but node 5's reply is lost. Its leaf-mate cannot cut it (a group
// of two has no majority without it), so only the sponsor's resend brings
// it in; without it the next write wedges the leaf until a second
// eviction.
func TestLostJoinReplyIsResent(t *testing.T) {
	restart := func(tc *testCluster, id wire.NodeID) {
		tc.sim.After(100*time.Millisecond, func() {
			cfg := evictionCfg()
			cfg.Tree, cfg.Self = tc.tree, id
			tc.stores[id] = kvstore.NewLogged()
			j := NewJoiner(cfg, tc.stores[id], Callbacks{})
			tc.nodes[id] = j
			var m engine.Machine = j
			if id == 5 {
				m = &dropFirstReply{Node: j}
			}
			tc.runner.Restart(id, m)
		})
	}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 2, cfg: evictionCfg(), onEvicted: restart})
	for i := 0; i < 4; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{
			netsim.LeafPartition(300*time.Millisecond, 2500*time.Millisecond, []wire.NodeID{4, 5}, []wire.NodeID{0, 1, 2, 3}),
		},
	}, nil)
	tc.submitAt(1500*time.Millisecond, 0, wr(1, 2, 100, 2)) // commits via eviction
	tc.submitAt(4*time.Second, 1, wr(2, 2, 101, 3))         // after re-admission
	tc.run(6 * time.Second)

	for _, id := range []wire.NodeID{4, 5} {
		if n := tc.nodes[id]; n.rejoin || n.Stalled() {
			t.Fatalf("node %d did not rejoin (rejoin=%v stalled=%v)", id, n.rejoin, n.Stalled())
		}
	}
	if got := tc.nodes[0].LeafReadmissions(); got != 1 {
		t.Fatalf("node 0 readmitted leaf 2 %d times, want once (no second eviction)", got)
	}
	want := tc.stores[0].StateDigest()
	for id := 1; id < 6; id++ {
		if got := tc.stores[id].StateDigest(); got != want {
			t.Fatalf("node %d state digest %x, want %x", id, got, want)
		}
	}
}

// TestSessionSurvivesRejoinStateTransfer pins the join-protocol session
// transfer: a node restarted with total state loss receives the
// replicated dedup table in its JoinReply, so a retried committed
// mutation submitted AT the rejoined node still classifies as a
// duplicate instead of re-applying.
func TestSessionSurvivesRejoinStateTransfer(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	var sess uint64
	tc.sim.At(time.Millisecond, func() {
		tc.nodes[0].RegisterSession(func(id uint64, ok bool) {
			if !ok {
				t.Error("registration refused")
			}
			sess = id
		})
	})
	tc.sim.At(300*time.Millisecond, func() {
		tc.nodes[0].Submit(wire.Request{Client: sess, Seq: 1, Op: wire.OpWrite, Key: 5, Val: []byte("first")})
	})
	tc.sim.At(600*time.Millisecond, func() { tc.runner.Crash(5) })
	// The joiner's one consumer records how the retry below is answered:
	// a reply (the dedup table knows it) or a rejection (it does not).
	dupAcked, dupRejected := false, false
	tc.sim.At(1500*time.Millisecond, func() {
		st := kvstore.NewLogged()
		joiner := NewJoiner(Config{Tree: tc.tree, Self: 5}, st, Callbacks{Consumers: []Consumer{ConsumerFunc(func(c *Commit) {
			for i := range c.Replies {
				dupAcked = dupAcked || c.Replies[i].Client == sess
			}
			for i := range c.Rejected {
				dupRejected = dupRejected || c.Rejected[i].Client == sess
			}
		})}})
		tc.nodes[5], tc.stores[5] = joiner, st
		tc.runner.Restart(5, joiner)
	})
	tc.sim.At(3*time.Second, func() {
		// The reply-loss retry, aimed at the node that lost all state.
		tc.nodes[5].Submit(wire.Request{Client: sess, Seq: 1, Op: wire.OpWrite, Key: 5, Val: []byte("second")})
	})
	tc.run(6 * time.Second)
	if !dupAcked || dupRejected {
		t.Fatalf("rejoined node refused the duplicate (acked %v, rejected %v): session table lost in transfer", dupAcked, dupRejected)
	}
	for id, st := range tc.stores {
		if got := string(st.Read(5)); got != "first" {
			t.Fatalf("node %d = %q: duplicate re-applied after rejoin", id, got)
		}
	}
}

// TestJoinerInstallsItsSponsorsImage: a node that restarts as a joiner
// installs its sponsor's store image, log chains included, so once every
// replica has committed the same cycle the joiner agrees with its peers
// on LogLen and LogDigest as well as on StateDigest. A joiner that
// replayed the state as writes would chain its own apply log.
func TestJoinerInstallsItsSponsorsImage(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	for s := uint64(1); s <= 6; s++ {
		tc.submitAt(time.Duration(s)*20*time.Millisecond, wire.NodeID(s%3), wr(s, 1, s, s))
	}
	tc.submitAt(200*time.Millisecond, 1, wire.Request{Client: 9, Seq: 1, Op: wire.OpDelete, Key: 2})
	tc.sim.At(300*time.Millisecond, func() { tc.runner.Crash(5) })
	tc.submitAt(600*time.Millisecond, 0, wr(7, 1, 7, 7))
	tc.sim.At(time.Second, func() { tc.restartAsJoiner(5, Config{}, nil) })
	for s := uint64(8); s <= 12; s++ {
		tc.submitAt(time.Duration(2000+20*s)*time.Millisecond, wire.NodeID(s%6), wr(s, 1, s, s))
	}
	tc.run(4 * time.Second)

	if n := tc.nodes[5]; n.rejoin || n.Stalled() || n.Committed() != tc.nodes[0].Committed() {
		t.Fatalf("joiner at cycle %d (rejoin=%v stalled=%v), node 0 at %d",
			n.Committed(), n.rejoin, n.Stalled(), tc.nodes[0].Committed())
	}
	ref, got := tc.stores[0], tc.stores[5]
	if got.LogLen() != ref.LogLen() || got.LogDigest() != ref.LogDigest() || got.StateDigest() != ref.StateDigest() {
		t.Fatalf("joiner log %d/%x state %x, node 0 log %d/%x state %x",
			got.LogLen(), got.LogDigest(), got.StateDigest(), ref.LogLen(), ref.LogDigest(), ref.StateDigest())
	}
	tc.requireAgreement()
}

// TestJoinerWithOtherClusterSettingsStaysOut: a node restarts as a
// joiner that cannot share its peers' state — it runs MaxInFlight 8 where
// they run the default 4, or its store has two shards where theirs has
// one. It must refuse its sponsor's reply, say why at Error level and take
// no part; the cluster cuts the seat it was given, and a later joiner with
// the cluster's settings is admitted and every write commits.
func TestJoinerWithOtherClusterSettingsStaysOut(t *testing.T) {
	for _, tt := range []struct {
		name   string
		cfg    Config
		shards int
		says   []string
	}{
		{"max-in-flight", Config{MaxInFlight: 8}, 1, []string{"max_in_flight=8", "sponsor_max_in_flight=4"}},
		{"shard-count", Config{}, 2, []string{"image has 1 shards, store has 2"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
			tc.submitAt(time.Millisecond, 0, wr(1, 1, 1, 1))
			tc.sim.At(100*time.Millisecond, func() { tc.runner.Crash(5) })
			var refusal bytes.Buffer
			tc.sim.At(500*time.Millisecond, func() {
				cfg := tt.cfg
				cfg.Tree, cfg.Self = tc.tree, 5
				st := kvstore.NewShardedLogged(tt.shards)
				log := slog.New(slog.NewTextHandler(&refusal, &slog.HandlerOptions{Level: slog.LevelError}))
				joiner := NewJoiner(cfg, st, Callbacks{Log: log})
				tc.nodes[5], tc.stores[5] = joiner, st
				tc.runner.Restart(5, joiner)
			})
			tc.sim.At(2*time.Second, func() { tc.runner.Crash(2) })
			tc.sim.At(2500*time.Millisecond, func() { tc.restartAsJoiner(2, Config{}, nil) })
			for s := uint64(2); s <= 6; s++ {
				tc.submitAt(time.Duration(3500+100*s)*time.Millisecond, wire.NodeID(s%4), wr(1, s, s, s))
			}
			tc.run(6 * time.Second)

			if n := tc.nodes[5]; !n.rejoin || n.Committed() != 0 || tc.stores[5].Len() != 0 {
				t.Fatalf("mismatched joiner took part: rejoin=%v committed=%d keys=%d", n.rejoin, n.Committed(), tc.stores[5].Len())
			}
			msg := refusal.String()
			for _, want := range append([]string{"level=ERROR", "join refused"}, tt.says...) {
				if !strings.Contains(msg, want) {
					t.Fatalf("refusal log lacks %q: %q", want, msg)
				}
			}
			if n := tc.nodes[2]; n.rejoin || n.Stalled() {
				t.Fatalf("second joiner not admitted (rejoin=%v stalled=%v)", n.rejoin, n.Stalled())
			}
			for _, id := range []wire.NodeID{0, 1, 2, 3, 4} {
				if got := tc.stores[id].Len(); got != 6 {
					t.Fatalf("node %d holds %d keys, want 6", id, got)
				}
			}
			tc.requireAgreementAmong([]wire.NodeID{0, 1, 2, 3, 4})
		})
	}
}
