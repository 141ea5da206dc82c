package raftlite

import (
	"math/rand"
	"testing"
	"time"

	"canopus/internal/wire"
)

// net is a tiny synchronous harness: messages queue and are delivered by
// pump(); time advances manually.
type net struct {
	now     time.Duration
	members map[wire.NodeID]*Raft
	queue   []envelope
	deliver map[wire.NodeID][]wire.Message
	dead    map[wire.NodeID]bool
	drop    func(envelope) bool // when set, loses the messages it matches
}

type envelope struct {
	from, to wire.NodeID
	msg      wire.Message
}

func newNet(n int, initialLeader wire.NodeID) *net {
	w := &net{
		members: make(map[wire.NodeID]*Raft),
		deliver: make(map[wire.NodeID][]wire.Message),
		dead:    make(map[wire.NodeID]bool),
	}
	var peers []wire.NodeID
	for i := 0; i < n; i++ {
		peers = append(peers, wire.NodeID(i))
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		w.members[id] = New(Config{
			Group: 1, Self: id, Peers: peers, InitialLeader: initialLeader,
			HeartbeatInterval:  10 * time.Millisecond,
			ElectionTimeoutMin: 50 * time.Millisecond,
			ElectionTimeoutMax: 100 * time.Millisecond,
		}, IO{
			Send: func(to wire.NodeID, m wire.Message) {
				w.queue = append(w.queue, envelope{from: id, to: to, msg: m})
			},
			Deliver: func(_ uint64, payload wire.Message) {
				w.deliver[id] = append(w.deliver[id], payload)
			},
			Now:  func() time.Duration { return w.now },
			Rand: rand.New(rand.NewSource(int64(i) + 3)),
		})
	}
	return w
}

// pump delivers queued messages until quiescent.
func (w *net) pump() {
	for len(w.queue) > 0 {
		e := w.queue[0]
		w.queue = w.queue[1:]
		if w.dead[e.to] || w.dead[e.from] || (w.drop != nil && w.drop(e)) {
			continue
		}
		w.members[e.to].Handle(e.from, e.msg)
	}
}

// tickAll advances time and ticks everyone.
func (w *net) tickAll(d time.Duration) {
	w.now += d
	for id, r := range w.members {
		if !w.dead[id] {
			r.Tick()
		}
	}
	w.pump()
}

func TestReplicationDeliversEverywhere(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for id, got := range w.deliver {
		if len(got) != 1 {
			t.Fatalf("node %v delivered %d, want 1", id, len(got))
		}
	}
}

func TestFollowerRejectsPropose(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	if err := w.members[1].Propose(&wire.Ping{}); err != ErrNotLeader {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestElectionAfterLeaderDeath(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	w.members[0].Propose(&wire.Ping{From: 0, Seq: 1})
	w.pump()
	w.dead[0] = true
	// Run past the election timeout.
	for i := 0; i < 30; i++ {
		w.tickAll(10 * time.Millisecond)
	}
	var leader wire.NodeID = wire.NoNode
	for id, r := range w.members {
		if !w.dead[id] && r.Role() == Leader {
			leader = id
		}
	}
	if leader == wire.NoNode {
		t.Fatal("no leader elected after leader death")
	}
	// The new leader can commit entries.
	if err := w.members[leader].Propose(&wire.Ping{From: leader, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for id, got := range w.deliver {
		if w.dead[id] {
			continue
		}
		if len(got) != 2 {
			t.Fatalf("node %v delivered %d, want 2", id, len(got))
		}
	}
}

func TestDeliveryOrderIsIdentical(t *testing.T) {
	w := newNet(5, 0)
	w.pump()
	for s := uint64(1); s <= 20; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
		if s%3 == 0 {
			w.pump()
		}
	}
	w.pump()
	ref := w.deliver[0]
	if len(ref) != 20 {
		t.Fatalf("delivered %d, want 20", len(ref))
	}
	for id, got := range w.deliver {
		if len(got) != 20 {
			t.Fatalf("node %v delivered %d", id, len(got))
		}
		for i := range got {
			if got[i].(*wire.Ping).Seq != ref[i].(*wire.Ping).Seq {
				t.Fatalf("node %v order differs at %d", id, i)
			}
		}
	}
}

func TestLogCompactionBoundsMemory(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	for s := uint64(1); s <= 1000; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
		w.pump()
	}
	r := w.members[0]
	if live := r.LastIndex() - r.offset; live > 4*compactionMargin {
		t.Fatalf("leader retains %d entries; compaction broken", live)
	}
	if len(w.deliver[2]) != 1000 {
		t.Fatalf("follower delivered %d, want 1000", len(w.deliver[2]))
	}
}

// TestRejoinAfterCompaction regression-tests the chaos-suite livelock: a
// member removed from a long-running group and later re-seated (a
// crash-stop rejoin) starts with an empty log while the leader has
// compacted far past index 1. The fresh member must fast-forward to the
// leader's horizon and replicate from there; before the fix the leader
// resent the same unacceptable probe on every heartbeat forever, and its
// stale matchIndex for the rejoined peer could index below the
// compaction horizon and panic.
func TestRejoinAfterCompaction(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	// Drive the log well past the compaction margin.
	for s := uint64(1); s <= 500; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
		w.pump()
	}
	if w.members[0].offset == 0 {
		t.Fatal("leader never compacted; test premise broken")
	}
	// Member 2 crashes and is removed.
	w.dead[2] = true
	for _, id := range []wire.NodeID{0, 1} {
		w.members[id].SetPeers([]wire.NodeID{0, 1})
	}
	for s := uint64(501); s <= 600; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
		w.pump()
	}
	// Member 2 rejoins with total state loss: a fresh Raft in the same
	// group, re-seated everywhere.
	old := w.members[2]
	w.members[2] = New(Config{
		Group: 1, Self: 2, Peers: []wire.NodeID{0, 1, 2}, InitialLeader: 0,
		HeartbeatInterval:  10 * time.Millisecond,
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
	}, IO{
		Send: func(to wire.NodeID, m wire.Message) {
			w.queue = append(w.queue, envelope{from: 2, to: to, msg: m})
		},
		Deliver: func(_ uint64, payload wire.Message) {
			w.deliver[2] = append(w.deliver[2], payload)
		},
		Now:  func() time.Duration { return w.now },
		Rand: rand.New(rand.NewSource(23)),
	})
	w.deliver[2] = nil
	w.dead[2] = false
	for _, id := range []wire.NodeID{0, 1, 2} {
		w.members[id].SetPeers([]wire.NodeID{0, 1, 2})
	}
	_ = old
	// A few heartbeats must be enough to resync the fresh member.
	for i := 0; i < 10; i++ {
		w.tickAll(10 * time.Millisecond)
	}
	w.members[0].Propose(&wire.Ping{From: 0, Seq: 601})
	w.pump()
	got := w.deliver[2]
	if len(got) == 0 {
		t.Fatal("rejoined member never delivered anything (resync livelock)")
	}
	if got[len(got)-1].(*wire.Ping).Seq != 601 {
		t.Fatalf("rejoined member's last delivery is Seq=%d, want 601", got[len(got)-1].(*wire.Ping).Seq)
	}
	// The rejoined member must not have replayed the pre-rejoin prefix
	// below the leader's compaction horizon.
	if len(got) > 200 {
		t.Fatalf("rejoined member replayed %d entries; fast-forward install did not engage", len(got))
	}
}

// TestEmptyFollowerUncompactedLeaderReplaysAll pins the boundary of the
// fast-forward install: when the leader still retains its full log
// (offset 0), an empty follower must get the complete replay from index
// 1, not a fast-forward that skips the committed prefix.
func TestEmptyFollowerUncompactedLeaderReplaysAll(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	// Member 2 misses everything, but the log stays below the
	// compaction margin so the leader retains it all.
	w.dead[2] = true
	for s := uint64(1); s <= 50; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
		w.pump()
	}
	if w.members[0].offset != 0 {
		t.Fatal("leader compacted below the margin; test premise broken")
	}
	w.dead[2] = false
	for i := 0; i < 5; i++ {
		w.tickAll(10 * time.Millisecond)
	}
	if got := len(w.deliver[2]); got != 50 {
		t.Fatalf("recovered follower delivered %d entries, want the full 50-entry replay", got)
	}
}

func TestSetPeersQuorumChange(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	// Shrink to 2 members; quorum becomes 2 of 2.
	w.dead[2] = true
	for _, id := range []wire.NodeID{0, 1} {
		w.members[id].SetPeers([]wire.NodeID{0, 1})
	}
	w.members[0].Propose(&wire.Ping{From: 0, Seq: 9})
	w.pump()
	if len(w.deliver[1]) != 1 {
		t.Fatal("post-reconfiguration commit failed")
	}
}

// staleSuffixNet builds the state both stale-suffix tests start from: five
// members, leader 0 dead, member 1 holding three entries of term 1 that
// reached nobody else, and a new leader (one of 2, 3, 4) whose first
// AppendEntries to member 1 — the one that would truncate the suffix — is
// lost, so the first thing member 1 hears from it is the commit notice for
// the new term's barrier: PrevIndex 0, no entries.
func staleSuffixNet(t *testing.T) (w *net, leader wire.NodeID) {
	t.Helper()
	w = newNet(5, 0)
	w.pump()
	for _, id := range []wire.NodeID{2, 3, 4} {
		w.dead[id] = true
	}
	for s := uint64(1); s <= 3; s++ {
		w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
	}
	w.pump()
	if got := w.members[1].LastIndex(); got != 4 {
		t.Fatalf("member 1 holds %d entries, want 4 (barrier + 3); test premise broken", got)
	}
	w.dead[0] = true
	for _, id := range []wire.NodeID{2, 3, 4} {
		w.dead[id] = false
	}
	w.drop = func(e envelope) bool {
		a, ok := e.msg.(*wire.RaftAppend)
		return ok && e.to == 1 && len(a.Entries) > 0
	}
	leader = wire.NoNode
	for i := 0; i < 40 && leader == wire.NoNode; i++ {
		w.tickAll(5 * time.Millisecond)
		for _, id := range []wire.NodeID{2, 3, 4} {
			if r := w.members[id]; r.Role() == Leader && r.CommitIndex() == r.LastIndex() {
				leader = id
			}
		}
	}
	if leader == wire.NoNode {
		t.Fatal("no new leader committed its barrier; test premise broken")
	}
	w.drop = nil
	return w, leader
}

// TestAckCoversOnlyTheLeadersPrefix is the regression test for the panic
// the benchmark found (index out of range in termAt from advanceCommit):
// a follower used to acknowledge with its own LastIndex, so a follower
// with a stale suffix pushed the new leader's matchIndex past the end of
// the leader's log, and the next commit notice or append indexed there.
func TestAckCoversOnlyTheLeadersPrefix(t *testing.T) {
	w, leader := staleSuffixNet(t)
	l := w.members[leader]
	if m := l.matchIndex[1]; m > l.LastIndex() {
		t.Fatalf("leader %v has matchIndex[1]=%d beyond its own log (%d entries)", leader, m, l.LastIndex())
	}
	// Both of these indexed out of range before the fix.
	if err := l.Propose(&wire.Ping{From: leader, Seq: 100}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for i := 0; i < 10; i++ {
		w.tickAll(10 * time.Millisecond)
	}
	f := w.members[1]
	if f.LastIndex() != l.LastIndex() {
		t.Fatalf("member 1 has %d entries, leader %d: the stale suffix was never replaced", f.LastIndex(), l.LastIndex())
	}
	for idx := f.offset + 1; idx <= f.LastIndex(); idx++ {
		if f.termAt(idx) != l.termAt(idx) {
			t.Fatalf("member 1's entry %d has term %d, the leader's %d", idx, f.termAt(idx), l.termAt(idx))
		}
	}
	got := w.deliver[1]
	if len(got) == 0 || got[len(got)-1].(*wire.Ping).Seq != 100 {
		t.Fatalf("member 1 did not deliver the new leader's entry: %v", got)
	}
}

// TestStaleSuffixIsNeverCommitted pins the twin of the ack bug: the commit
// notice names the leader's commit index, and a follower that clamped it
// to its own LastIndex delivered whatever stale entries sat at those
// indexes — entries no other member ever delivers.
func TestStaleSuffixIsNeverCommitted(t *testing.T) {
	w, _ := staleSuffixNet(t)
	for i := 0; i < 10; i++ {
		w.tickAll(10 * time.Millisecond)
	}
	if got := w.deliver[1]; len(got) != 0 {
		t.Fatalf("member 1 delivered %d entries of the dead leader's uncommitted suffix (first: %+v)", len(got), got[0])
	}
}
