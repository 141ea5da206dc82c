package kvstore

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"canopus/internal/wire"
)

func w(key uint64, val string) *wire.Request {
	return &wire.Request{Op: wire.OpWrite, Key: key, Val: []byte(val)}
}

func TestApplyAndRead(t *testing.T) {
	s := New()
	s.ApplyWrite(w(1, "a"))
	s.ApplyWrite(w(1, "b"))
	if got := string(s.Read(1)); got != "b" {
		t.Fatalf("Read = %q", got)
	}
	if s.Read(2) != nil {
		t.Fatal("missing key returned a value")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestValuesAreCopied(t *testing.T) {
	s := New()
	val := []byte("abc")
	s.ApplyWrite(&wire.Request{Op: wire.OpWrite, Key: 1, Val: val})
	val[0] = 'X'
	if got := string(s.Read(1)); got != "abc" {
		t.Fatalf("store aliased caller memory: %q", got)
	}
}

func TestLogDigestOrderSensitive(t *testing.T) {
	a, b := NewLogged(), NewLogged()
	a.ApplyWrite(w(1, "x"))
	a.ApplyWrite(w(2, "y"))
	b.ApplyWrite(w(2, "y"))
	b.ApplyWrite(w(1, "x"))
	if a.LogDigest() == b.LogDigest() {
		t.Fatal("log digest must be order-sensitive")
	}
	if a.LogLen() != 2 || b.LogLen() != 2 {
		t.Fatal("log length wrong")
	}
}

func TestStateDigestOrderInsensitive(t *testing.T) {
	a, b := New(), New()
	a.ApplyWrite(w(1, "x"))
	a.ApplyWrite(w(2, "y"))
	b.ApplyWrite(w(2, "y"))
	b.ApplyWrite(w(1, "x"))
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("state digest must depend only on contents")
	}
}

// TestSnapshotDoesNotAliasLiveValues is the regression test for the
// join-transfer corruption bug: the image handed out the live value
// slices, so a write after it was taken could rewrite the bytes of an
// in-flight state transfer. The image must be immutable once taken.
func TestSnapshotDoesNotAliasLiveValues(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewSharded(shards)
		s.ApplyWrite(w(1, "old-one"))
		s.ApplyWrite(w(2, "old-two"))
		img := s.SnapshotShards()
		s.ApplyWrite(w(1, "NEW-ONE"))
		s.ApplyWrite(&wire.Request{Op: wire.OpDelete, Key: 2})
		got := map[uint64]string{}
		for i := range img {
			for j, k := range img[i].Keys {
				got[k] = string(img[i].Vals[j])
			}
		}
		if got[1] != "old-one" || got[2] != "old-two" {
			t.Fatalf("shards=%d: image mutated by later writes: %v", shards, got)
		}
	}
}

// TestShardedReplicaDeterminism pins the replica-equality contract of
// the sharded store: replicas with equal shard counts applying the same
// write sequence agree on LogLen/LogDigest/StateDigest; reordering
// writes within one shard changes the log digest; and StateDigest is
// shard-count independent.
func TestShardedReplicaDeterminism(t *testing.T) {
	seq := make([]*wire.Request, 0, 512)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		k := rng.Uint64() % 64
		if i%5 == 4 {
			seq = append(seq, &wire.Request{Op: wire.OpDelete, Key: k})
			continue
		}
		seq = append(seq, w(k, string(rune('a'+i%26))+"v"))
	}
	build := func(shards int) *Store {
		s := NewShardedLogged(shards)
		for _, req := range seq {
			s.ApplyWrite(req)
		}
		return s
	}
	flat := build(1)
	for _, shards := range []int{2, 4, 8} {
		a, b := build(shards), build(shards)
		if a.NumShards() != shards {
			t.Fatalf("NumShards = %d, want %d", a.NumShards(), shards)
		}
		if a.LogDigest() != b.LogDigest() || a.LogLen() != b.LogLen() || a.StateDigest() != b.StateDigest() {
			t.Fatalf("shards=%d: identical sequences disagree", shards)
		}
		if a.StateDigest() != flat.StateDigest() {
			t.Fatalf("shards=%d: StateDigest depends on shard count", shards)
		}
		if a.LogLen() != flat.LogLen() {
			t.Fatalf("shards=%d: LogLen depends on shard count", shards)
		}
	}
	// In-shard reorder: swap two writes to the same key (same shard by
	// construction) — the combined digest must notice.
	reordered := NewShardedLogged(4)
	swapped := append([]*wire.Request(nil), seq...)
	var i, j = -1, -1
	for x := 0; x < len(swapped) && j < 0; x++ {
		if swapped[x].Op != wire.OpWrite {
			continue
		}
		for y := x + 1; y < len(swapped); y++ {
			if swapped[y].Op == wire.OpWrite && swapped[y].Key == swapped[x].Key &&
				string(swapped[y].Val) != string(swapped[x].Val) {
				i, j = x, y
				break
			}
		}
	}
	if j < 0 {
		t.Fatal("test sequence has no same-key write pair")
	}
	swapped[i], swapped[j] = swapped[j], swapped[i]
	for _, req := range swapped {
		reordered.ApplyWrite(req)
	}
	if reordered.LogDigest() == build(4).LogDigest() {
		t.Fatal("in-shard reorder not reflected in the combined log digest")
	}
}

// TestShardOfStable pins that shard routing is a pure function of the
// key and the shard count rounds up to a power of two.
func TestShardOfStable(t *testing.T) {
	s := NewSharded(5) // rounds to 8
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", s.NumShards())
	}
	for k := uint64(0); k < 1000; k++ {
		sh := s.ShardOf(k)
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, sh)
		}
		if s.ShardOf(k) != sh {
			t.Fatalf("ShardOf(%d) unstable", k)
		}
	}
}

// Property: a store's image, through its encoding, rebuilds a store with
// the same contents and the same apply-log chains, for any write
// sequence.
func TestQuickSnapshotRebuild(t *testing.T) {
	f := func(keys []uint64, vals []uint16) bool {
		s := NewShardedLogged(4)
		for i, k := range keys {
			v := "v"
			if i < len(vals) {
				v = string(rune('a'+vals[i]%26)) + "x"
			}
			s.ApplyWriteAt(w(k%32, v), uint64(i+1), k%3)
		}
		img := s.SnapshotShards()
		for i := range img {
			st, err := DecodeShard(AppendShard(nil, &img[i]), true)
			if err != nil || !reflect.DeepEqual(st, img[i]) {
				return false
			}
			img[i] = st
		}
		r := NewShardedLogged(4)
		if err := r.RestoreShards(img); err != nil {
			return false
		}
		for _, k := range keys {
			if r.ModCycle(k%32) != s.ModCycle(k%32) || r.OwnerOf(k%32) != s.OwnerOf(k%32) {
				return false
			}
		}
		return r.StateDigest() == s.StateDigest() && r.Len() == s.Len() &&
			r.LogLen() == s.LogLen() && r.LogDigest() == s.LogDigest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionImageKeepsNilApartFromEmpty pins the session image: a nil
// cached reply (a write's ack) and an empty one (a read of an empty value)
// decode as they were encoded.
func TestSessionImageKeepsNilApartFromEmpty(t *testing.T) {
	in := []wire.SessionState{{ID: 7, Low: 2, LastActive: 9, Applied: []wire.SessionReply{
		{Seq: 2}, {Seq: 3, Val: []byte{}}, {Seq: 4, Val: []byte("v")},
	}}, {ID: 8, Low: 1}}
	out, err := DecodeSessions(AppendSessions(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Applied[0].Val != nil || out[0].Applied[1].Val == nil || string(out[0].Applied[2].Val) != "v" {
		t.Fatalf("decoded replies %+v", out[0].Applied)
	}
	out[1].Applied = nil // decoded as an empty list
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if _, err := DecodeSessions(AppendSessions(nil, in)[:20]); err == nil {
		t.Fatal("a truncated image decoded")
	}
}
