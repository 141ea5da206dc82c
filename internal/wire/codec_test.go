package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// exemplars returns one exemplar of every message type with explicit
// (encodable) content; TestRoundTripAllKinds checks that every kind Decode
// accepts has one.
func exemplars() []Encodable {
	b := &Batch{
		Origin: 3,
		Reqs: []Request{
			{Client: 1, Seq: 2, Op: OpWrite, Key: 9, Val: []byte("hi")},
			{Client: 1, Seq: 3, Op: OpRead, Key: 9},
		},
		NumRead: 1, NumWrite: 1,
		Samples: []ArrivalSample{{At: 123, Count: 2, Read: true}},
	}
	return []Encodable{
		&Proposal{Cycle: 7, Round: 2, VNode: "1.2", Origin: 4, Num: 99,
			Batches:  []*Batch{b},
			Updates:  []MemberUpdate{{Node: 5, Leave: true}},
			Sessions: []SessionUpdate{{ID: 21 | SessionIDBit}, {ID: 9 | SessionIDBit, Expire: true}}},
		&ProposalRequest{Cycle: 7, Round: 2, VNode: "1.3", From: 1},
		&SeqForward{Epoch: 9<<32 | 1, Origin: 2, OSeq: 3<<32 | 7, Match: 5,
			Payload: &ProposalRequest{Cycle: 1, VNode: "1"}},
		&SeqAppend{Epoch: 9<<32 | 1, Seq: 5, PrevEpoch: 8<<32 | 2, Commit: 4, Trim: 2,
			Entries: []SeqEntry{{Epoch: 9<<32 | 1, Origin: 2, OSeq: 7, Payload: &ProposalRequest{Cycle: 1, VNode: "1"}},
				{Epoch: 9<<32 | 1, Origin: 2, OSeq: 8}}},
		&SeqAck{Epoch: 9<<32 | 1, From: 2, Inc: 3, Match: 6, Reject: true},
		&SeqEpoch{Epoch: 10<<32 | 2, From: 1, Commit: 4, Seq: 5, PrevEpoch: 9<<32 | 1,
			Entries:   []SeqEntry{{Epoch: 9<<32 | 1, Origin: 1, Payload: &GroupClosed{Origin: 0, Inc: 2}}},
			Delivered: []OriginSeq{{Origin: 0, OSeq: 2<<32 | 5}, {Origin: 2, OSeq: 3}}},
		&GroupClosed{Origin: 5},
		&JoinRequest{From: 4, Nonce: 0x5eed},
		&JoinReply{From: 2, Nonce: 0x5eed, StartCycle: 12, Alive: []NodeID{0, 1, 2},
			Incarnations: []uint32{0, 1, 0}, Seats: []uint64{0, 16, 0},
			Contents: []byte("contents"), Sessions: []byte("sessions"),
			MaxInFlight: 4, LeafTimeout: 250 * time.Millisecond, SessionIdleCycles: -1},
		&LeafSeal{Cycle: 11, VNode: "1.2", Initiator: 3},
		&EvictQuery{Cycle: 11, VNode: "1.3", From: 4},
		&EvictPromise{Cycle: 11, VNode: "1.3", From: 5},
		&Evicted{From: 6},
	}
}

// reservedKinds are the kind bytes no message has any more: the EPaxos
// and Zab baselines' (7–16), whose messages have no encoding, and a
// retired broadcast flavour's heartbeat and envelope (17, 21).
var reservedKinds = []byte{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 21}

// TestKindValuesAreStable pins the byte of every kind: WAL records and
// frames written by earlier builds decode only if no kind moves. A
// reserved byte decodes as an unknown kind.
func TestKindValuesAreStable(t *testing.T) {
	for k, want := range map[Kind]uint8{
		KindProposal: 1, KindProposalRequest: 2,
		KindSeqForward: 3, KindSeqAppend: 4, KindSeqAck: 5, KindSeqEpoch: 6,
		KindGroupClosed: 18, KindJoinRequest: 19, KindJoinReply: 20,
		KindLeafSeal: 22, KindEvictQuery: 23, KindEvictPromise: 24, KindEvicted: 25,
	} {
		if uint8(k) != want {
			t.Errorf("%v is %d, want %d", k, uint8(k), want)
		}
	}
	for _, reserved := range reservedKinds {
		if _, _, err := Decode([]byte{reserved, 0, 0, 0, 0}); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("reserved kind %d decoded with %v, want ErrUnknownKind", reserved, err)
		}
	}
}

// TestRoundTripAllKinds round-trips every exemplar, and fails when a kind
// byte Decode accepts has no exemplar, so no kind ships untested.
func TestRoundTripAllKinds(t *testing.T) {
	var covered [256]bool
	for _, m := range exemplars() {
		buf := m.AppendTo(nil)
		covered[buf[0]] = true
		if got, want := len(buf), m.WireSize(); got != want {
			t.Errorf("%T: encoded %d bytes, WireSize says %d", m, got, want)
		}
		dec, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d bytes", m, n, len(buf))
		}
		if !reflect.DeepEqual(m, dec) {
			t.Errorf("%T: round trip mismatch:\n in: %#v\nout: %#v", m, m, dec)
		}
	}
	for k := range covered {
		if _, _, err := Decode([]byte{byte(k)}); !errors.Is(err, ErrUnknownKind) && !covered[k] {
			t.Errorf("Decode accepts kind %v (%d), which has no exemplar", Kind(k), k)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, m := range exemplars() {
		buf := m.AppendTo(nil)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := Decode(buf[:cut]); err == nil {
				// Truncation may still decode if the cut removed only
				// trailing slice payloads whose counts shrank... it must
				// not: counts are length-prefixed, so any cut must fail.
				t.Fatalf("%T: decoding %d/%d bytes succeeded", m, cut, len(buf))
			}
		}
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	if _, _, err := Decode([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer decoded")
	}
}

// goldenProposal has two batches, a Leave, a join carrying the retired
// flag bit 1 (MemberUpdate.legacy) and a session registration.
// goldenProposalHex is the encoding commit b4e6680 produced for it, when
// proposals still carried a write-lease section (empty, as on every
// proposal a default node sent). Equal bytes prove the reserved word kept
// the format: WAL segments written then still replay, and simulated
// message sizes are unchanged.
func goldenProposal() *Proposal {
	return &Proposal{Cycle: 12, Round: 2, VNode: "1.2", Origin: NoNode, Num: 77,
		Batches: []*Batch{
			{Origin: 0, Reqs: []Request{
				{Client: 5 | SessionIDBit, Seq: 1, Op: OpWrite, Key: 3, Val: []byte("ab")},
				{Client: 5 | SessionIDBit, Seq: 2, Op: OpDelete, Key: 4},
			}, NumRead: 2, NumWrite: 2},
			{Origin: 1, Reqs: []Request{{Client: 6, Seq: 9, Op: OpWrite, Key: 8, Val: []byte("z")}},
				NumWrite: 1, Samples: []ArrivalSample{{At: 1000, Count: 1}}},
		},
		Updates:  []MemberUpdate{{Node: 2, Leave: true}, {Node: 7, legacy: true}},
		Sessions: []SessionUpdate{{ID: 5 | SessionIDBit}},
	}
}

const goldenProposalHex = "010c00000000000000820300312e32ffffffff4d00000000000000020000000000000001020000000500000000000080010000000000000001030000000000000002000000616205000000000000800200000000000000020400000000000000000000000200000002000000000000000000000001000000010100000006000000000000000900000000000000010800000000000000010000007a00000000010000000000000001000000e803000000000000010000000002000000020000000107000000020000000001000000050000000000008000"

// TestLegacyJoinFlagDecodes: a WAL record an older build wrote with flag
// bit 1 on a join (goldenProposalHex) decodes to a plain join, and the
// join this build writes carries no such bit.
func TestLegacyJoinFlagDecodes(t *testing.T) {
	old, err := hex.DecodeString(goldenProposalHex)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Proposal).Updates
	if len(got) != 2 || got[1].Node != 7 || got[1].Leave {
		t.Fatalf("decoded updates %+v, want a Leave of 2 and a join of 7", got)
	}
	fresh := goldenProposal()
	fresh.Updates[1] = MemberUpdate{Node: 7}
	enc := fresh.AppendTo(nil)
	flag := bytes.Index(enc, []byte{7, 0, 0, 0}) + 4
	if enc[flag] != 0 || old[flag] != memberLegacyFlag || !bytes.Equal(enc[:flag], old[:flag]) || !bytes.Equal(enc[flag+1:], old[flag+1:]) {
		t.Fatalf("a fresh join encodes flag %#x at %d (old record %#x); the rest must match", enc[flag], flag, old[flag])
	}
	bad := bytes.Clone(old)
	bad[flag] = 0x04
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadBool) {
		t.Fatalf("decode with unknown member flag 0x04: %v, want %v", err, ErrBadBool)
	}
}

func TestProposalGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenProposalHex)
	if err != nil {
		t.Fatal(err)
	}
	p := goldenProposal()
	if enc := p.AppendTo(nil); !bytes.Equal(enc, want) {
		t.Fatalf("encoded\n%x\nwant\n%x", enc, want)
	}
	if p.WireSize() != len(want) {
		t.Fatalf("WireSize %d, golden %d bytes", p.WireSize(), len(want))
	}
	got, n, err := Decode(want)
	if err != nil || n != len(want) {
		t.Fatalf("decode: %v (consumed %d of %d)", err, n, len(want))
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("decoded\n%#v\nwant\n%#v", got, p)
	}
}

// TestProposalReservedWordRejected: a proposal whose reserved word is not
// 0 does not decode. The corruption is the one an old lease-carrying
// proposal had: count 1 and a 13-byte lease entry (key, node, release)
// after it.
func TestProposalReservedWordRejected(t *testing.T) {
	p := goldenProposal()
	enc := p.AppendTo(nil)
	off := len(enc) - (4 + 9*len(p.Sessions)) - 4 // the word before the sessions section
	if w := binary.LittleEndian.Uint32(enc[off:]); w != 0 {
		t.Fatalf("reserved word at %d is %d, want 0", off, w)
	}
	lease := binary.LittleEndian.AppendUint32(nil, 1)
	lease = binary.LittleEndian.AppendUint64(lease, 3)
	lease = binary.LittleEndian.AppendUint32(lease, 0)
	lease = append(lease, 0)
	bad := append(append(append([]byte(nil), enc[:off]...), lease...), enc[off+4:]...)
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadBool) {
		t.Fatalf("decode with reserved word 1: %v, want %v", err, ErrBadBool)
	}
}

// TestQuickProposalRoundTrip is the property-based version: random
// proposals survive encode/decode bit-exactly.
func TestQuickProposalRoundTrip(t *testing.T) {
	f := func(cycle uint64, round uint8, vnode string, origin int32, num uint64,
		keys []uint64, vals [][]byte, updates []int32) bool {
		if len(vnode) > 1000 {
			vnode = vnode[:1000]
		}
		// Round's domain is 1..LOT height (single digits); the codec
		// reserves the top two bits for the optional sessions section
		// and the eviction Resolve flag.
		round &= 0x3f
		p := &Proposal{Cycle: cycle, Round: round, VNode: vnode, Origin: NodeID(origin), Num: num}
		b := &Batch{Origin: NodeID(origin)}
		b.Reqs = []Request{}
		for i, k := range keys {
			var v []byte
			if i < len(vals) && len(vals[i]) > 0 {
				v = vals[i]
			}
			b.Reqs = append(b.Reqs, Request{Client: k % 7, Seq: uint64(i), Op: OpWrite, Key: k, Val: v})
			b.NumWrite++
		}
		p.Batches = []*Batch{b}
		for _, u := range updates {
			p.Updates = append(p.Updates, MemberUpdate{Node: NodeID(u), Leave: u%2 == 0})
			p.Sessions = append(p.Sessions, SessionUpdate{ID: uint64(u) | SessionIDBit, Expire: u%2 == 0})
		}
		buf := p.AppendTo(nil)
		if len(buf) != p.WireSize() {
			return false
		}
		dec, n, err := Decode(buf)
		return err == nil && n == len(buf) && reflect.DeepEqual(p, dec)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFluidBatchWireSizeCountsModeledBytes(t *testing.T) {
	fluid := &Batch{Origin: 1, NumRead: 10, NumWrite: 5, ByteSize: 500}
	explicit := &Batch{Origin: 1, Reqs: []Request{}, NumRead: 10}
	if fluid.WireSize() <= explicit.WireSize() {
		t.Fatalf("fluid batch must charge its modeled bytes: %d vs %d",
			fluid.WireSize(), explicit.WireSize())
	}
	if got := fluid.PayloadBytes(); got != 500 {
		t.Fatalf("fluid payload = %d, want 500", got)
	}
}
