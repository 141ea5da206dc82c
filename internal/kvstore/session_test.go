package kvstore

import (
	"reflect"
	"testing"

	"canopus/internal/wire"
)

const sid = 7 | wire.SessionIDBit

func TestSessionDedupBasics(t *testing.T) {
	tab := NewSessionTable()
	if _, v := tab.Begin(sid, 1, 5); v != SessionUnknown {
		t.Fatalf("unregistered session classified %v, want SessionUnknown", v)
	}
	tab.Register(sid, 3)
	if !tab.Has(sid) || tab.Occupancy() != 1 {
		t.Fatal("registration not recorded")
	}
	if _, v := tab.Begin(sid, 1, 5); v != SessionApply {
		t.Fatalf("first sight classified %v, want SessionApply", v)
	}
	tab.Record(sid, 1, []byte("r1"))
	if cached, v := tab.Begin(sid, 1, 6); v != SessionDuplicate || cached != nil {
		// seq 1 was contiguous with the floor, so its reply compacted
		// away; the duplicate still must not re-apply.
		t.Fatalf("retry classified %v (cached %q), want SessionDuplicate with compacted reply", v, cached)
	}
	// Out-of-order apply above a gap: seq 3 before seq 2.
	if _, v := tab.Begin(sid, 3, 7); v != SessionApply {
		t.Fatalf("gapped seq classified %v, want SessionApply", v)
	}
	tab.Record(sid, 3, []byte("r3"))
	if cached, v := tab.Begin(sid, 3, 8); v != SessionDuplicate || string(cached) != "r3" {
		t.Fatalf("gapped retry = %v/%q, want duplicate with cached r3", v, cached)
	}
	if _, v := tab.Begin(sid, 2, 9); v != SessionApply {
		t.Fatalf("gap filler classified %v, want SessionApply", v)
	}
	tab.Record(sid, 2, nil)
	// Floor advanced over 2 and 3; both still classify duplicate.
	for _, seq := range []uint64{1, 2, 3} {
		if _, v := tab.Begin(sid, seq, 10); v != SessionDuplicate {
			t.Fatalf("seq %d after compaction classified %v, want SessionDuplicate", seq, v)
		}
	}
	tab.Expire(sid)
	if _, v := tab.Begin(sid, 4, 11); v != SessionUnknown {
		t.Fatalf("expired session classified %v, want SessionUnknown", v)
	}
}

func TestSessionWindowForcesFloor(t *testing.T) {
	tab := NewSessionTable()
	tab.Register(sid, 1)
	// Leave seq 1 as a permanent gap, then push far past the window.
	for seq := uint64(2); seq < 2+2*SessionWindow; seq++ {
		if _, v := tab.Begin(sid, seq, seq); v != SessionApply {
			t.Fatalf("seq %d classified %v", seq, v)
		}
		tab.Record(sid, seq, nil)
	}
	e := tab.sessions[sid]
	if len(e.applied) > SessionWindow {
		t.Fatalf("window overflow: %d uncompacted entries", len(e.applied))
	}
	// The abandoned seq 1 is now below the forced floor: treated as
	// duplicate (the documented window semantics).
	if _, v := tab.Begin(sid, 1, 9999); v != SessionDuplicate {
		t.Fatalf("below-window seq classified %v, want SessionDuplicate", v)
	}
}

func TestSessionSnapshotRestore(t *testing.T) {
	tab := NewSessionTable()
	tab.Register(sid, 2)
	tab.Register(sid+1, 4)
	tab.Begin(sid, 1, 5)
	tab.Record(sid, 1, nil)
	tab.Begin(sid, 5, 6) // gap at 2..4
	tab.Record(sid, 5, []byte("v5"))

	snap := tab.Snapshot()
	restored := NewSessionTable()
	restored.Restore(snap)

	for _, id := range []uint64{sid, sid + 1} {
		if !restored.Has(id) {
			t.Fatalf("session %d lost in transfer", id)
		}
	}
	if _, v := restored.Begin(sid, 1, 7); v != SessionDuplicate {
		t.Fatal("compacted seq not duplicate after restore")
	}
	if cached, v := restored.Begin(sid, 5, 7); v != SessionDuplicate || string(cached) != "v5" {
		t.Fatalf("cached reply lost in transfer: %v/%q", v, cached)
	}
	if _, v := restored.Begin(sid, 2, 7); v != SessionApply {
		t.Fatal("gap seq not applicable after restore")
	}
	// Idle scan agrees with the transferred activity clocks (sid was
	// touched at cycle 6 by the transfer-source Begin, sid+1 at 4).
	if ids := restored.IdleBefore(5); len(ids) != 1 || ids[0] != sid+1 {
		t.Fatalf("IdleBefore(5) = %v, want [%d]", ids, sid+1)
	}
	if ids := restored.IdleBefore(7); len(ids) != 2 {
		t.Fatalf("IdleBefore(7) = %v, want both sessions", ids)
	}
}

// TestSessionRestoreKeepsTheTxnSlot pins Restore against its source: the
// latest-transaction slot is rebuilt as a slot, not filed as an applied
// seq that never compacts, so after the same later transaction both
// tables answer a retry of the superseded one, and render, alike.
func TestSessionRestoreKeepsTheTxnSlot(t *testing.T) {
	src := NewSessionTable()
	src.Register(sid, 1)
	src.Begin(sid, 1, 2)
	src.RecordTxn(sid, 1, []byte("v1"))
	for seq := uint64(2); seq <= 3; seq++ {
		src.Begin(sid, seq, 3)
		src.Record(sid, seq, nil)
	}
	restored := NewSessionTable()
	restored.Restore(src.Snapshot())
	if got := restored.CachedTxn(sid, 1); string(got) != "v1" {
		t.Fatalf("restored table answers txn 1 with %q, want v1", got)
	}
	for _, tab := range []*SessionTable{src, restored} {
		tab.Begin(sid, 4, 4)
		tab.RecordTxn(sid, 4, []byte("v4"))
	}
	for _, seq := range []uint64{1, 4} {
		if a, b := src.CachedTxn(sid, seq), restored.CachedTxn(sid, seq); string(a) != string(b) {
			t.Fatalf("retry of txn %d: source answers %q, restored table %q", seq, a, b)
		}
	}
	if a, b := src.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\nsource   %+v\nrestored %+v", a, b)
	}

	// A slot still among the applied seqs (a gap below it) survives the
	// restore too: once the gap fills, only the slot answers.
	src = NewSessionTable()
	src.Register(sid, 1)
	src.Begin(sid, 2, 2)
	src.RecordTxn(sid, 2, []byte("v2"))
	restored = NewSessionTable()
	restored.Restore(src.Snapshot())
	for _, tab := range []*SessionTable{src, restored} {
		tab.Begin(sid, 1, 3)
		tab.Record(sid, 1, nil)
	}
	if got := restored.CachedTxn(sid, 2); string(got) != "v2" {
		t.Fatalf("restored table answers txn 2 with %q after compaction, want v2", got)
	}
	if a, b := src.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\nsource   %+v\nrestored %+v", a, b)
	}
}
