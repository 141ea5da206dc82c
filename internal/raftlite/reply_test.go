package raftlite

import (
	"fmt"
	"testing"
	"time"

	"canopus/internal/wire"
)

// heartbeat is the HeartbeatInterval newNet configures.
const heartbeat = 10 * time.Millisecond

// The tests below pin which AppendEntries a follower answers (see
// onAppend): appends with entries, heartbeats over an uncommitted suffix
// and rejections, as always; commit notices and idle heartbeats not.

// traffic counts what crossed the net since it was installed as w.drop.
type traffic struct {
	withEntries, empty int // AppendEntries by shape
	acks, rejects      int // replies by verdict
}

func (tr *traffic) observe(e envelope) bool {
	switch m := e.msg.(type) {
	case *wire.RaftAppend:
		if len(m.Entries) > 0 {
			tr.withEntries++
		} else {
			tr.empty++
		}
	case *wire.RaftAppendReply:
		if m.Success {
			tr.acks++
		} else {
			tr.rejects++
		}
	}
	return false
}

func forGroups(t *testing.T, fn func(t *testing.T, n int)) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("group%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func TestNoticeAndIdleHeartbeatGetNoReply(t *testing.T) {
	forGroups(t, func(t *testing.T, n int) {
		w := newNet(n, 0)
		w.pump()
		var tr traffic
		w.drop = tr.observe

		if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		w.pump()
		// One append with the entry per follower, answered, and one
		// unanswered notice per follower — none in a group of three,
		// whose followers commit on append.
		notices := n - 1
		if n <= 3 {
			notices = 0
		}
		if tr.withEntries != n-1 || tr.empty != notices || tr.acks != n-1 || tr.rejects != 0 {
			t.Fatalf("a broadcast: %+v, want %d appends, %d notices, %d acks", tr, n-1, notices, n-1)
		}
		for id, r := range w.members {
			if r.CommitIndex() != w.members[0].LastIndex() {
				t.Fatalf("member %v knows %d committed, the log ends at %d", id, r.CommitIndex(), w.members[0].LastIndex())
			}
			if len(w.deliver[id]) != 1 {
				t.Fatalf("member %v delivered %d entries, want 1", id, len(w.deliver[id]))
			}
		}

		tr = traffic{}
		w.tickAll(heartbeat)
		if tr.empty != n-1 || tr.withEntries != 0 || tr.acks != 0 || tr.rejects != 0 {
			t.Fatalf("an idle heartbeat round: %+v, want %d heartbeats and no reply", tr, n-1)
		}
	})
}

// TestLostAckIsRecoveredByTheNextHeartbeat: the only reply that can
// commit an entry is lost. The next heartbeat then has PrevIndex > Commit,
// so it is answered, and the entry commits one heartbeat interval late. A
// rule that suppressed every reply to an append without entries would
// leave it uncommitted for ever.
func TestLostAckIsRecoveredByTheNextHeartbeat(t *testing.T) {
	forGroups(t, func(t *testing.T, n int) {
		w := newNet(n, 0)
		w.pump()
		// Leave exactly a majority alive, so every live follower's ack is
		// needed.
		for id := n/2 + 1; id < n; id++ {
			w.dead[wire.NodeID(id)] = true
		}
		lossy := wire.NodeID(n / 2)
		lost := 0
		w.drop = func(e envelope) bool {
			if _, ok := e.msg.(*wire.RaftAppendReply); ok && e.from == lossy && lost == 0 {
				lost++
				return true
			}
			return false
		}
		l := w.members[0]
		if err := l.Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		w.pump()
		if lost != 1 {
			t.Fatalf("dropped %d replies, want 1; test premise broken", lost)
		}
		if l.CommitIndex() == l.LastIndex() {
			t.Fatal("the entry committed without the lost ack; test premise broken")
		}
		var tr traffic
		w.drop = tr.observe
		w.tickAll(heartbeat) // one HeartbeatInterval
		if l.CommitIndex() != l.LastIndex() {
			t.Fatalf("leader has %d of %d committed one heartbeat after the lost ack (%+v)", l.CommitIndex(), l.LastIndex(), tr)
		}
		if tr.acks == 0 {
			t.Fatalf("the heartbeat over the uncommitted suffix was not answered: %+v", tr)
		}
		for id := 0; id <= n/2; id++ {
			if got := len(w.deliver[wire.NodeID(id)]); got != 1 {
				t.Fatalf("member %d delivered %d entries, want 1", id, got)
			}
		}
	})
}

// TestEveryRejectionIsSent feeds a follower appends that carry no entries
// and whose Commit covers their PrevIndex — the shape that goes unanswered
// when accepted — and must be rejected: each rejection is sent.
func TestEveryRejectionIsSent(t *testing.T) {
	forGroups(t, func(t *testing.T, n int) {
		w := newNet(n, 0)
		w.pump()
		for s := uint64(1); s <= 3; s++ {
			w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
			w.pump()
		}
		f := w.members[1]
		last := f.LastIndex()
		for _, tc := range []struct {
			name string
			m    wire.RaftAppend
			hint uint64
		}{
			{"stale term", wire.RaftAppend{Term: 0, PrevIndex: last, PrevTerm: 1, Commit: last}, last},
			{"beyond the log", wire.RaftAppend{Term: 1, PrevIndex: last + 7, PrevTerm: 1, Commit: last + 7}, last},
			{"conflicting term", wire.RaftAppend{Term: 2, PrevIndex: last, PrevTerm: 2, Commit: last}, f.CommitIndex()},
		} {
			tc.m.Group, tc.m.Leader = 1, 0
			w.queue = nil
			f.Handle(0, &tc.m)
			if len(w.queue) != 1 {
				t.Fatalf("%s: follower sent %d messages, want the rejection", tc.name, len(w.queue))
			}
			r, ok := w.queue[0].msg.(*wire.RaftAppendReply)
			if !ok || r.Success || w.queue[0].to != 0 {
				t.Fatalf("%s: follower sent %+v to %v, want a rejection to the leader", tc.name, w.queue[0].msg, w.queue[0].to)
			}
			if r.Match != tc.hint {
				t.Fatalf("%s: rejection hints %d, want %d", tc.name, r.Match, tc.hint)
			}
		}
	})
}

// TestCatchUpPumpRunsToTheEnd: a follower that missed several chunks of
// entries is brought up to date by the reply-driven pump (onAppendReply ->
// sendAppend, maxAppendEntries at a time) within one heartbeat: every
// chunk's reply must be sent for the next chunk to follow.
func TestCatchUpPumpRunsToTheEnd(t *testing.T) {
	forGroups(t, func(t *testing.T, n int) {
		w := newNet(n, 0)
		w.pump()
		lag := wire.NodeID(n - 1)
		w.dead[lag] = true
		const entries = 3*maxAppendEntries + 5
		for s := uint64(1); s <= entries; s++ {
			w.members[0].Propose(&wire.Ping{From: 0, Seq: s})
			w.pump()
		}
		w.dead[lag] = false
		chunks := 0
		w.drop = func(e envelope) bool {
			if a, ok := e.msg.(*wire.RaftAppend); ok && e.to == lag && len(a.Entries) > 0 {
				chunks++
			}
			return false
		}
		w.tickAll(heartbeat)
		if got := len(w.deliver[lag]); got != entries {
			t.Fatalf("lagging follower delivered %d of %d entries after one heartbeat (%d chunks)", got, entries, chunks)
		}
		// The barrier entry rides the first chunk.
		if want := (entries + 1 + maxAppendEntries - 1) / maxAppendEntries; chunks != want {
			t.Fatalf("catch-up took %d chunks, want %d", chunks, want)
		}
		if m := w.members[0].matchIndex[lag]; m != w.members[0].LastIndex() {
			t.Fatalf("leader has matchIndex %d for the caught-up follower, log ends at %d", m, w.members[0].LastIndex())
		}
	})
}

// TestCompactionResumesWithTheNextAppend: a follower's ack is lost while
// the entry commits without it. The heartbeats that follow are idle
// (Commit covers PrevIndex) and go unanswered, so the leader's matchIndex
// for that follower — which bounds its compaction — stays one short; the
// first real append's reply brings it up to date.
func TestCompactionResumesWithTheNextAppend(t *testing.T) {
	forGroups(t, func(t *testing.T, n int) {
		w := newNet(n, 0)
		w.pump()
		l := w.members[0]
		seq := uint64(0)
		propose := func() {
			seq++
			if err := l.Propose(&wire.Ping{From: 0, Seq: seq}); err != nil {
				t.Fatal(err)
			}
			w.pump()
		}
		for i := 0; i < 3*compactionMargin; i++ {
			propose()
		}
		if l.offset != l.applied-compactionMargin {
			t.Fatalf("leader compacted to %d with %d applied; test premise broken", l.offset, l.applied)
		}
		slow := wire.NodeID(n - 1)
		w.drop = func(e envelope) bool {
			_, ok := e.msg.(*wire.RaftAppendReply)
			return ok && e.from == slow
		}
		propose()
		w.drop = nil
		if l.CommitIndex() != l.LastIndex() || l.matchIndex[slow] != l.LastIndex()-1 {
			t.Fatalf("commit %d, matchIndex[%v] %d, log ends at %d; test premise broken",
				l.CommitIndex(), slow, l.matchIndex[slow], l.LastIndex())
		}
		for i := 0; i < 5; i++ {
			w.tickAll(heartbeat)
		}
		if l.matchIndex[slow] != l.LastIndex()-1 {
			t.Fatalf("idle heartbeats moved matchIndex[%v] to %d: they were answered", slow, l.matchIndex[slow])
		}
		propose() // one real append
		if l.matchIndex[slow] != l.LastIndex() {
			t.Fatalf("matchIndex[%v] is %d after a real append, log ends at %d", slow, l.matchIndex[slow], l.LastIndex())
		}
		if l.offset != l.applied-compactionMargin {
			t.Fatalf("leader compacted to %d with %d applied: held back by the unanswered heartbeats", l.offset, l.applied)
		}
	})
}
