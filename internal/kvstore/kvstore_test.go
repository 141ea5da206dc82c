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
	s := New()
	s.ApplyWrite(w(1, "old-one"))
	s.ApplyWrite(w(2, "old-two"))
	img := s.Image().Contents
	s.ApplyWrite(w(1, "NEW-ONE"))
	s.ApplyWrite(&wire.Request{Op: wire.OpDelete, Key: 2})
	got := map[uint64]string{}
	for j, k := range img.Keys {
		got[k] = string(img.Vals[j])
	}
	if got[1] != "old-one" || got[2] != "old-two" {
		t.Fatalf("image mutated by later writes: %v", got)
	}
}

// TestReplicaDeterminism pins the replica-equality contract: replicas
// applying the same write sequence agree on LogLen/LogDigest/StateDigest,
// and swapping two writes to one key changes the log digest.
func TestReplicaDeterminism(t *testing.T) {
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
	build := func(seq []*wire.Request) *Store {
		s := NewLogged()
		for _, req := range seq {
			s.ApplyWrite(req)
		}
		return s
	}
	a, b := build(seq), build(seq)
	if a.LogDigest() != b.LogDigest() || a.LogLen() != b.LogLen() || a.StateDigest() != b.StateDigest() {
		t.Fatal("identical sequences disagree")
	}
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
	if build(swapped).LogDigest() == a.LogDigest() {
		t.Fatal("a same-key reorder is not reflected in the log digest")
	}
}

// Property: a store's image, through its encoding, rebuilds a store with
// the same contents, key metadata and apply-log chain, for any write
// sequence.
func TestQuickSnapshotRebuild(t *testing.T) {
	f := func(keys []uint64, vals []uint16) bool {
		s := NewLogged()
		for i, k := range keys {
			v := "v"
			if i < len(vals) {
				v = string(rune('a'+vals[i]%26)) + "x"
			}
			s.ApplyWriteAt(w(k%32, v), uint64(i+1), k%3)
		}
		img := s.Image()
		c, err := DecodeContents(AppendContents(nil, &img.Contents))
		if err != nil || !reflect.DeepEqual(c, img.Contents) {
			return false
		}
		img.Contents = c
		r := NewLogged()
		r.RestoreImage(img)
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
