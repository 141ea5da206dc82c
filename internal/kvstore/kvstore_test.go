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
// join-transfer corruption bug: Snapshot used to hand out the live value
// slices, so a post-snapshot ApplyWrite to an existing key could rewrite
// the bytes of an in-flight state transfer. The script must be immutable
// once taken.
func TestSnapshotDoesNotAliasLiveValues(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewSharded(shards)
		s.ApplyWrite(w(1, "old-one"))
		s.ApplyWrite(w(2, "old-two"))
		snap := s.Snapshot()
		s.ApplyWrite(w(1, "NEW-ONE"))
		s.ApplyWrite(&wire.Request{Op: wire.OpDelete, Key: 2})
		got := map[uint64]string{}
		for i := range snap {
			got[snap[i].Key] = string(snap[i].Val)
		}
		if got[1] != "old-one" || got[2] != "old-two" {
			t.Fatalf("shards=%d: snapshot mutated by post-snapshot writes: %v", shards, got)
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
		if !reflect.DeepEqual(a.Snapshot(), flat.Snapshot()) {
			t.Fatalf("shards=%d: Snapshot depends on shard count", shards)
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

// Property: Snapshot rebuilds a state-digest-identical store for any
// write sequence.
func TestQuickSnapshotRebuild(t *testing.T) {
	f := func(keys []uint64, vals []uint16) bool {
		s := New()
		for i, k := range keys {
			v := "v"
			if i < len(vals) {
				v = string(rune('a'+vals[i]%26)) + "x"
			}
			s.ApplyWrite(w(k%32, v))
		}
		r := New()
		for _, req := range s.Snapshot() {
			req := req
			r.ApplyWrite(&req)
		}
		return r.StateDigest() == s.StateDigest() && r.Len() == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
