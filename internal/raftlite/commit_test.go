package raftlite

import (
	"testing"

	"canopus/internal/wire"
)

// The tests below pin when a follower commits on append (see the package
// comment): in a group bounded to three members, an append whose last
// entry is of the leader's term commits what it brought; any larger bound
// waits for the leader's commit notice.

// dropReplies loses every AppendEntries reply, so the leader never learns
// a majority holds the entry and never commits or notifies.
func dropReplies(e envelope) bool {
	_, ok := e.msg.(*wire.RaftAppendReply)
	return ok
}

func TestFollowerOfThreeDeliversOnAppend(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	w.drop = dropReplies
	l := w.members[0]
	if err := l.Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if l.CommitIndex() == l.LastIndex() {
		t.Fatal("the leader committed without a reply; test premise broken")
	}
	for _, id := range []wire.NodeID{1, 2} {
		if got := len(w.deliver[id]); got != 1 {
			t.Fatalf("follower %v delivered %d entries on append, want 1", id, got)
		}
		if c := w.members[id].CommitIndex(); c != l.LastIndex() {
			t.Fatalf("follower %v has %d committed, the append ended at %d", id, c, l.LastIndex())
		}
	}
}

func TestGroupOfFiveWaitsForTheNotice(t *testing.T) {
	w := newNet(5, 0)
	w.pump()
	w.drop = dropReplies
	if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for id := wire.NodeID(1); id < 5; id++ {
		if got := len(w.deliver[id]); got != 0 {
			t.Fatalf("follower %v of five delivered %d entries without the notice", id, got)
		}
	}
	w.drop = nil
	w.tickAll(heartbeat) // the heartbeat is answered, the leader commits and notifies
	for id := wire.NodeID(0); id < 5; id++ {
		if got := len(w.deliver[id]); got != 1 {
			t.Fatalf("member %v delivered %d entries after the notice, want 1", id, got)
		}
	}
}

// TestThreeSeatedOfFiveWaitsForTheNotice: the bound is the group's static
// size, not how many members are seated now. With three of five seats
// taken, the leader and one follower are not a majority of the five the
// group may yet hold.
func TestThreeSeatedOfFiveWaitsForTheNotice(t *testing.T) {
	w := newNet(3, 0)
	for _, r := range w.members {
		r.cfg.MaxPeers = 5
	}
	w.pump()
	w.drop = dropReplies
	if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for _, id := range []wire.NodeID{1, 2} {
		if got := len(w.deliver[id]); got != 0 {
			t.Fatalf("follower %v delivered %d entries on append with room for five", id, got)
		}
	}
	w.drop = nil
	w.tickAll(heartbeat)
	for id := wire.NodeID(0); id < 3; id++ {
		if got := len(w.deliver[id]); got != 1 {
			t.Fatalf("member %v delivered %d entries after the notice, want 1", id, got)
		}
	}
}

// TestOlderTermEntriesWaitForTheNextAppend: a takeover leader's append
// that carries only entries of an earlier term does not commit them —
// such an entry on two members may still be overwritten — and the next
// append, ending in an entry of the leader's term, does.
func TestOlderTermEntriesWaitForTheNextAppend(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	f := w.members[1]
	last := f.LastIndex()
	old := wire.RaftAppend{
		Group: 1, Term: 2, Leader: 2,
		PrevIndex: last, PrevTerm: f.termAt(last), Commit: f.CommitIndex(),
		Entries: []wire.RaftEntry{{Term: 1, Payload: &wire.Ping{From: 0, Seq: 1}}},
	}
	f.Handle(2, &old)
	if got := len(w.deliver[1]); got != 0 || f.CommitIndex() != last {
		t.Fatalf("an append of term-1 entries in term 2 delivered %d entries, commit %d (was %d)", got, f.CommitIndex(), last)
	}
	barrier := wire.RaftAppend{
		Group: 1, Term: 2, Leader: 2,
		PrevIndex: last + 1, PrevTerm: 1, Commit: f.CommitIndex(),
		Entries: []wire.RaftEntry{{Term: 2}},
	}
	f.Handle(2, &barrier)
	if got := len(w.deliver[1]); got != 1 || f.CommitIndex() != last+2 {
		t.Fatalf("the term-2 append delivered %d entries, commit %d, want 1 and %d", got, f.CommitIndex(), last+2)
	}
}

// TestTakeoverDeliversWhatOneFollowerDelivered: the origin's append
// reaches one follower, which delivers on append; the origin crashes
// before anything else leaves it. The follower without the entry cannot
// win the election, and the takeover hands the entry to it.
func TestTakeoverDeliversWhatOneFollowerDelivered(t *testing.T) {
	w := newNet(3, 0)
	w.pump()
	w.drop = func(e envelope) bool { return e.from == 0 && e.to == 2 }
	if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if len(w.deliver[1]) != 1 || len(w.deliver[2]) != 0 {
		t.Fatalf("deliveries %d and %d before the crash; test premise broken", len(w.deliver[1]), len(w.deliver[2]))
	}
	w.dead[0] = true
	w.drop = nil
	for i := 0; i < 30 && w.members[1].Role() != Leader; i++ {
		w.tickAll(heartbeat)
		if w.members[2].Role() == Leader {
			t.Fatal("the follower without the delivered entry won the election")
		}
	}
	if w.members[1].Role() != Leader {
		t.Fatal("no takeover after the origin crashed")
	}
	for _, id := range []wire.NodeID{1, 2} {
		got := w.deliver[id]
		if len(got) != 1 || got[0].(*wire.Ping).Seq != 1 {
			t.Fatalf("survivor %v delivered %v, want the origin's one entry once", id, got)
		}
	}
}
