package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestDecoderReusesScratch pins what the Decoder is for: in steady state
// Raft control traffic decodes without allocating, and a vnode ID seen
// before is not allocated again.
func TestDecoderReusesScratch(t *testing.T) {
	frames := [][]byte{
		(&RaftAppend{Group: 1, Term: 2, Leader: 0, PrevIndex: 3, PrevTerm: 1, Commit: 2, Base: 1,
			Entries: []RaftEntry{{Term: 2}, {Term: 2}}}).AppendTo(nil),
		(&RaftAppendReply{Group: 1, Term: 2, From: 1, Success: true, Match: 3}).AppendTo(nil),
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

	a, _, _ := d.Decode(frames[2])
	b, _, _ := d.Decode(frames[2])
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
	first := &RaftAppend{Group: 1, Term: 1, PrevIndex: 1,
		Entries: []RaftEntry{{Term: 1, Payload: &Ping{From: 3, Seq: 4}}}}
	second := &RaftAppend{Group: 2, Term: 1, PrevIndex: 9,
		Entries: []RaftEntry{{Term: 1, Payload: &Ping{From: 5, Seq: 6}}}}
	var d Decoder
	m1, _, err := d.Decode(first.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := d.Decode(second.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := m1.(*RaftAppend), m2.(*RaftAppend)
	if a1 == a2 {
		t.Fatal("two messages of one turn share a slot")
	}
	a1.Entries = append(a1.Entries, RaftEntry{Term: 99})
	if !bytes.Equal(a2.AppendTo(nil), second.AppendTo(nil)) {
		t.Fatal("appending to the first message's Entries changed the second message")
	}
	kept := a2.Entries[0] // by value, as raftlite's log does
	d.Reset()
	if _, _, err := d.Decode(first.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if p, ok := kept.Payload.(*Ping); !ok || p.Seq != 6 {
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
		frame := (&RaftAppend{Group: 1, Term: 1, PrevIndex: 4, PrevTerm: 1, Commit: 4,
			Entries: []RaftEntry{{Term: 1, Payload: p}}}).AppendTo(nil)
		var d Decoder
		var got *Proposal
		decode := func() {
			m, _, err := d.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			got = m.(*RaftAppend).Entries[0].Payload.(*Proposal)
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

// BenchmarkDecodeRaftAppend decodes the AppendEntries that carries one
// round-1 proposal (a batch of 8 writes of 128 B — write_9n's shape) the
// way a transport reader does: Decoder, then Reset. allocs/append is what
// is left once the header and the entry slice are scratch: the payload.
func BenchmarkDecodeRaftAppend(b *testing.B) {
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Client: 1, Seq: uint64(i), Op: OpWrite, Key: uint64(i), Val: bytes.Repeat([]byte{'v'}, 128)}
	}
	frame := (&RaftAppend{Group: 1, Term: 1, Leader: 0, PrevIndex: 41, PrevTerm: 1, Commit: 41, Base: 2,
		Entries: []RaftEntry{{Term: 1, Payload: &Proposal{Cycle: 42, Round: 1, Num: 7,
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
