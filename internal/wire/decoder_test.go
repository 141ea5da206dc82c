package wire

import (
	"bytes"
	"runtime"
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

// TestProposalDecodeAllocations bounds what a proposal costs to decode
// through a Decoder, however many batches and requests it carries: a share
// of the Decoder's box, request and value chunks — their own allocations
// once the box holds more than four batches or the requests and values
// outgrow a quarter of a chunk, here the nine batches of 36 requests — and
// nothing for the vnode ID a Decoder has seen before. The batch counts
// cover the two boxes and the path beyond them (see newProposal).
func TestProposalDecodeAllocations(t *testing.T) {
	for _, tc := range []struct {
		batches int
		ceil    float64
	}{{0, 0.07}, {1, 0.1}, {3, 0.18}, {4, 0.21}, {9, 4.1}} {
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
		if allocs := objectsPerRun(1000, decode); allocs > tc.ceil {
			t.Errorf("%d batches: decoding allocates %.2f objects, ceiling %v", tc.batches, allocs, tc.ceil)
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

// TestKeptProposalPinsOnlyItsChunks: what a Decoder carves a proposal from
// lives as long as that proposal and pins no dropped neighbour's own
// allocations. Proposals decoded through one Decoder are all dropped but
// the last two, and after a collection the live heap holds those two plus
// at most a few chunks. Each "big" proposal carries 64 KiB of values and
// has allocations of its own, its box included; each "small" one has eight
// short requests from the chunks and its box from a chunk of boxes, which
// a kept one pins whole, with neighbours that point only at chunks. Were a
// big proposal's box chunked, a kept proposal would pin dropped big
// neighbours; were a big proposal's requests in the request chunk, a kept
// small proposal would pin the values of the big ones beside it.
func TestKeptProposalPinsOnlyItsChunks(t *testing.T) {
	const (
		decoded = 255 // not a multiple of any chunk size: a neighbour shares the kept ones' chunk
		kept    = 2
		big     = 64 << 10
	)
	frame := func(val int) []byte {
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = Request{Client: 1, Seq: uint64(i), Op: OpWrite, Key: uint64(i), Val: bytes.Repeat([]byte{'v'}, 100)}
		}
		reqs[0].Val = bytes.Repeat([]byte{'v'}, val)
		return (&Proposal{Cycle: 9, Round: 1, Origin: 1, Num: 3,
			Batches: []*Batch{{Origin: 1, Reqs: reqs, NumWrite: uint32(len(reqs))}}}).AppendTo(nil)
	}
	bigFrame, smallFrame := frame(big), frame(100)
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, tc := range []struct {
		name string
		big  func(i int) bool
	}{
		{"big", func(int) bool { return true }},
		{"alternating", func(i int) bool { return i%2 == 1 }},
		{"small", func(int) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			var last [kept]*Proposal
			base := live()
			for i := 0; i < decoded; i++ {
				f := smallFrame
				if tc.big(i) {
					f = bigFrame
				}
				m, _, err := d.Decode(f)
				if err != nil {
					t.Fatal(err)
				}
				last[i%kept] = m.(*Proposal)
				d.Reset()
			}
			used := int64(live()) - int64(base)
			// Each kept proposal is its values plus under a KiB; the chunks
			// are the request chunk it lies in and the one after, and a
			// value chunk.
			reqChunkBytes := reqChunk * int64(unsafe.Sizeof(Request{}))
			bound := kept*(big+1<<10) + 2*reqChunkBytes + valChunk
			if used > bound {
				t.Fatalf("%d kept proposals of %d decoded leave %d live bytes, bound %d", kept, decoded, used, bound)
			}
			for _, p := range last {
				if p == nil || len(p.Batches[0].Reqs) != 8 {
					t.Fatal("a kept proposal lost its requests")
				}
			}
		})
	}
	runtime.KeepAlive(bigFrame)
	runtime.KeepAlive(smallFrame)
}

// objectsPerRun is testing.AllocsPerRun without the truncation to an
// integer: a chunk shared by several decodes counts by its share.
func objectsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// BenchmarkDecodeSeqAppend decodes the append that carries one round-1
// proposal (a batch of 8 writes of 128 B — write_9n's shape) the way a
// transport reader does: Decoder, then Reset. allocs/append is what is
// left once the header and the entry slice are scratch: a sixteenth each
// of a box chunk, a request chunk and a value chunk (1.125 while the box
// was an allocation of the payload's own, 3 while the requests and the
// values were too).
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
	allocs := objectsPerRun(256, decode)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.ReportMetric(allocs, "allocs/append")
}
