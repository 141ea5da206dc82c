package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestDecoderReusesScratch pins what the Decoder is for: in steady state
// the leaf broadcast's control traffic decodes without allocating, and a
// vnode ID seen before is not allocated again.
func TestDecoderReusesScratch(t *testing.T) {
	frames := [][]byte{
		(&SeqAppend{Epoch: 2<<32 | 1, Seq: 3, PrevEpoch: 2<<32 | 1, Commit: 2, Trim: 1,
			Entries: []SeqEntry{{Epoch: 2<<32 | 1, Origin: 1}, {Epoch: 2<<32 | 1, Origin: 2}}}).AppendTo(nil),
		(&SeqAck{Epoch: 2<<32 | 1, From: 1, Match: 3}).AppendTo(nil),
		(&SeqForward{Epoch: 2<<32 | 1, Origin: 2, OSeq: 9, Match: 4}).AppendTo(nil),
		(&ProposalRequest{Cycle: 7, Round: 2, VNode: "1.2", From: 5}).AppendTo(nil),
	}
	var d Decoder
	turn := func() {
		for _, f := range frames {
			if _, _, err := d.Decode(f); err != nil {
				t.Fatal(err)
			}
		}
		d.Reset()
	}
	turn() // grows the scratch, interns the vnode
	if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
		t.Fatalf("a turn of control traffic allocates %v objects, want 0", allocs)
	}

	a, _, _ := d.Decode(frames[3])
	b, _, _ := d.Decode(frames[3])
	va, vb := a.(*ProposalRequest).VNode, b.(*ProposalRequest).VNode
	if va != "1.2" || unsafe.StringData(va) != unsafe.StringData(vb) {
		t.Fatalf("vnode IDs %q and %q are not one interned string", va, vb)
	}
}

// TestDecoderMessagesAreIndependent: messages decoded between two Resets
// each have their own slot, Entries cannot be appended into a
// neighbour's, and entry payloads survive the Reset that recycles the
// entries themselves.
func TestDecoderMessagesAreIndependent(t *testing.T) {
	first := &SeqAppend{Epoch: 1 << 32, Seq: 2,
		Entries: []SeqEntry{{Epoch: 1 << 32, Payload: &JoinRequest{From: 3, Nonce: 4}}}}
	second := &SeqAppend{Epoch: 2 << 32, Seq: 10,
		Entries: []SeqEntry{{Epoch: 2 << 32, Payload: &JoinRequest{From: 5, Nonce: 6}}}}
	var d Decoder
	m1, _, err := d.Decode(first.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := d.Decode(second.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := m1.(*SeqAppend), m2.(*SeqAppend)
	if a1 == a2 {
		t.Fatal("two messages of one turn share a slot")
	}
	a1.Entries = append(a1.Entries, SeqEntry{Epoch: 99})
	if !bytes.Equal(a2.AppendTo(nil), second.AppendTo(nil)) {
		t.Fatal("appending to the first message's Entries changed the second message")
	}
	kept := a2.Entries[0] // by value, as the broadcast log does
	d.Reset()
	if _, _, err := d.Decode(first.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if p, ok := kept.Payload.(*JoinRequest); !ok || p.Nonce != 6 {
		t.Fatalf("an entry kept by value lost its payload to scratch reuse: %+v", kept)
	}
}

// TestProposalDecodeAllocations pins what a proposal costs to decode,
// however many batches and requests it carries: the proposal with its
// batches, one slice of requests, one of values — and nothing for the
// vnode ID a Decoder has seen before. The batch counts cover the two boxes
// and the path beyond them (see newProposal).
func TestProposalDecodeAllocations(t *testing.T) {
	for _, tc := range []struct{ batches, want int }{{0, 1}, {1, 3}, {3, 3}, {4, 3}, {9, 5}} {
		p := &Proposal{Cycle: 7, Round: 2, VNode: "1.2", Origin: NoNode, Num: 42}
		for b := 0; b < tc.batches; b++ {
			bt := &Batch{Origin: NodeID(b), NumWrite: 4}
			for i := 0; i < 4; i++ {
				bt.Reqs = append(bt.Reqs, Request{Client: 1, Seq: uint64(i), Op: OpWrite, Key: uint64(i),
					Val: bytes.Repeat([]byte{byte(b)}, 16+i)})
			}
			p.Batches = append(p.Batches, bt)
		}
		frame := (&SeqAppend{Epoch: 1 << 32, Seq: 5, PrevEpoch: 1 << 32, Commit: 4,
			Entries: []SeqEntry{{Epoch: 1 << 32, Origin: 1, OSeq: 5, Payload: p}}}).AppendTo(nil)
		var d Decoder
		var got *Proposal
		decode := func() {
			m, _, err := d.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			got = m.(*SeqAppend).Entries[0].Payload.(*Proposal)
			d.Reset()
		}
		decode() // grows the scratch, interns the vnode
		if allocs := testing.AllocsPerRun(100, decode); int(allocs) != tc.want {
			t.Errorf("%d batches: decoding allocates %v objects, want %d", tc.batches, allocs, tc.want)
		}
		if !bytes.Equal(got.AppendTo(nil), p.AppendTo(nil)) {
			t.Errorf("%d batches: decoded proposal re-encodes differently", tc.batches)
		}
		for b, bt := range got.Batches {
			if len(bt.Reqs) != 4 || cap(bt.Reqs) != 4 {
				t.Errorf("batch %d of %d has len %d cap %d requests: appending to one would write into the next",
					b, tc.batches, len(bt.Reqs), cap(bt.Reqs))
			}
		}
	}
}

// BenchmarkDecodeSeqAppend decodes the append that carries one round-1
// proposal (a batch of 8 writes of 128 B — write_9n's shape) the way a
// transport reader does: Decoder, then Reset. allocs/append is what is
// left once the header and the entry slice are scratch: the payload.
func BenchmarkDecodeSeqAppend(b *testing.B) {
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Client: 1, Seq: uint64(i), Op: OpWrite, Key: uint64(i), Val: bytes.Repeat([]byte{'v'}, 128)}
	}
	frame := (&SeqAppend{Epoch: 1 << 32, Seq: 42, PrevEpoch: 1 << 32, Commit: 41, Trim: 2,
		Entries: []SeqEntry{{Epoch: 1 << 32, Origin: 1, OSeq: 42, Payload: &Proposal{Cycle: 42, Round: 1, Num: 7,
			Batches: []*Batch{{Reqs: reqs, NumWrite: uint32(len(reqs))}}}}},
	}).AppendTo(nil)
	var d Decoder
	decode := func() {
		if _, _, err := d.Decode(frame); err != nil {
			b.Fatal(err)
		}
		d.Reset()
	}
	decode()
	allocs := testing.AllocsPerRun(100, decode)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.ReportMetric(allocs, "allocs/append")
}
