package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds is one representative message per kind, so the fuzzer starts
// from every decoder's happy path.
func fuzzSeeds() []Message {
	batch := &Batch{
		Origin:   1,
		Reqs:     []Request{{Client: 1, Seq: 2, Op: OpWrite, Key: 3, Val: []byte("12345678")}},
		NumWrite: 1,
		Samples:  []ArrivalSample{{At: 99, Count: 1}},
	}
	fluid := &Batch{Origin: 2, NumRead: 10, NumWrite: 5, ByteSize: 300,
		Samples: []ArrivalSample{{At: 7, Count: 15, Read: true}}}
	return []Message{
		&Proposal{Cycle: 7, Round: 2, VNode: "1.2", Origin: 3, Num: 42,
			Batches: []*Batch{batch, fluid},
			Updates: []MemberUpdate{{Node: 4, Leave: true}}},
		// One batch and five: the single-allocation boxes and the path
		// beyond them (see newProposal).
		&Proposal{Cycle: 8, Round: 1, Origin: 1, Num: 43, Batches: []*Batch{batch}},
		&Proposal{Cycle: 9, Round: 2, VNode: "1", Origin: NoNode, Num: 44,
			Batches: []*Batch{batch, fluid, batch, {Origin: 3, Reqs: []Request{}}, fluid}},
		&ProposalRequest{Cycle: 7, Round: 2, VNode: "1.2", From: 5},
		&RaftAppend{Group: 1, Term: 2, Leader: 0, PrevIndex: 3, PrevTerm: 1, Commit: 2, Base: 1,
			Entries: []RaftEntry{{Term: 2, Payload: &Ping{From: 1, Seq: 9}}, {Term: 2}}},
		&RaftAppendReply{Group: 1, Term: 2, From: 1, Success: true, Match: 3},
		&RaftVote{Group: 1, Term: 3, Candidate: 2, LastIndex: 5, LastTerm: 2},
		&RaftVoteReply{Group: 1, Term: 3, From: 0, Granted: true},
		&PreAccept{Replica: 1, Instance: 2, Ballot: 3, Batch: batch, Seq: 4,
			Deps: []InstanceRef{{Replica: 0, Instance: 1}}},
		&PreAcceptReply{Replica: 1, Instance: 2, Ballot: 3, From: 2, OK: true, Seq: 4,
			Deps: []InstanceRef{{Replica: 2, Instance: 9}}},
		&Accept{Replica: 1, Instance: 2, Ballot: 3, Seq: 4},
		&AcceptReply{Replica: 1, Instance: 2, Ballot: 3, From: 0, OK: false},
		&Commit{Replica: 1, Instance: 2, Batch: fluid, Seq: 3},
		&ZabForward{From: 2, Batch: batch},
		&ZabPropose{Epoch: 1, Zxid: 2, Batch: fluid},
		&ZabAck{Epoch: 1, Zxid: 2, From: 3},
		&ZabCommit{Epoch: 1, Zxid: 2},
		&ZabInform{Epoch: 1, Zxid: 2, Batch: batch},
		&Ping{From: 1, Seq: 2},
		&GroupClosed{Origin: 3},
		&JoinRequest{From: 4},
		&JoinReply{From: 1, StartCycle: 9, Alive: []NodeID{0, 1, 2}, Incarnations: []uint32{0, 1, 0},
			Shards: [][]byte{[]byte("image")}, MaxInFlight: 8},
		&Envelope{Origin: 2, Payload: &Ping{From: 2, Seq: 5}},
		&Proposal{Cycle: 11, Round: 3, VNode: "1", Origin: NoNode, Num: 0, Resolve: true,
			Updates: []MemberUpdate{{Node: 6, Leave: true}, {Node: 7, Leave: true}}},
		&LeafSeal{Cycle: 11, VNode: "1.2", Initiator: 3},
		&EvictQuery{Cycle: 11, VNode: "1.2", From: 4},
		&EvictPromise{Cycle: 11, VNode: "1.2", From: 5},
		&Evicted{From: 6},
	}
}

// FuzzCodec exercises the wire codec against arbitrary bytes: decoding
// must never panic or over-read, and any successfully decoded message
// must re-encode to exactly the bytes consumed (the codec is canonical),
// then decode again to the same encoding (round-trip fixed point).
func FuzzCodec(f *testing.F) {
	for _, m := range fuzzSeeds() {
		f.Add(m.AppendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		// The scratch-backed Decoder is the same codec: same verdict, same
		// length, same message.
		var d Decoder
		dm, dn, derr := d.Decode(data)
		if (derr == nil) != (err == nil) || dn != n {
			t.Fatalf("Decoder: (%d, %v), Decode: (%d, %v)", dn, derr, n, err)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		enc := m.AppendTo(nil)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n consumed %x\n re-enc   %x", data[:n], enc)
		}
		if denc := dm.AppendTo(nil); !bytes.Equal(denc, enc) {
			t.Fatalf("Decoder's message re-encodes differently:\n Decode  %x\n Decoder %x", enc, denc)
		}
		m2, n2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if enc2 := m2.AppendTo(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point")
		}
	})
}

// FuzzClientCodec does the same for the client protocol frames: decoding
// arbitrary payloads must never panic, and every successfully decoded
// frame must re-encode canonically.
func FuzzClientCodec(f *testing.F) {
	for _, c := range goldenRequests {
		f.Add(AppendClientRequestV3(nil, &c.q)[4:], true)
	}
	for _, c := range goldenResponses {
		f.Add(AppendClientResponseV3(nil, &c.resp)[4:], false)
	}
	f.Fuzz(func(t *testing.T, payload []byte, asRequest bool) {
		if asRequest {
			var q ClientRequestV2
			if err := ParseClientRequestV3Into(payload, &q, nil); err != nil {
				return
			}
			if frame := AppendClientRequestV3(nil, &q); !bytes.Equal(frame[4:], payload) {
				t.Fatalf("request re-encode mismatch")
			}
			return
		}
		resp, err := ParseClientResponseV3(payload)
		if err != nil {
			return
		}
		if frame := AppendClientResponseV3(nil, &resp); !bytes.Equal(frame[4:], payload) {
			t.Fatalf("response re-encode mismatch")
		}
	})
}

// TestCodecRoundTripSeeds pins the round-trip property for every seed
// message even when the fuzzer is not running (go test -run).
func TestCodecRoundTripSeeds(t *testing.T) {
	for _, m := range fuzzSeeds() {
		enc := m.AppendTo(nil)
		if got := m.WireSize(); got != wireLessFluid(m, len(enc)) {
			// WireSize includes modeled fluid bytes that are not encoded;
			// wireLessFluid adjusts, so any other mismatch is a bug.
			t.Errorf("%T: WireSize %d, encoded %d", m, m.WireSize(), len(enc))
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if n != len(enc) {
			t.Fatalf("%T: consumed %d of %d", m, n, len(enc))
		}
		if enc2 := got.AppendTo(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: round trip changed encoding", m)
		}
	}
}

// wireLessFluid returns what WireSize should report for m given its
// encoded length: encoded bytes plus the modeled ByteSize of any fluid
// batches (which contribute wire cost but no encoded bytes).
func wireLessFluid(m Message, encoded int) int {
	fluid := 0
	var walk func(b *Batch)
	walk = func(b *Batch) {
		if b != nil && b.Reqs == nil {
			fluid += int(b.ByteSize)
		}
	}
	switch v := m.(type) {
	case *Proposal:
		for _, b := range v.Batches {
			walk(b)
		}
	case *PreAccept:
		walk(v.Batch)
	case *Commit:
		walk(v.Batch)
	case *ZabForward:
		walk(v.Batch)
	case *ZabPropose:
		walk(v.Batch)
	case *ZabInform:
		walk(v.Batch)
	}
	return encoded + fluid
}
