package epaxos

import (
	"testing"

	"canopus/internal/wire"
)

// explicitBatch and fluidBatch are the batches the size tables use: three
// requests with 11 value bytes, and 100 fluid requests standing for 1,600
// payload bytes.
func explicitBatch() *wire.Batch {
	return &wire.Batch{Origin: 2, Reqs: []wire.Request{
		{Client: 1, Seq: 1, Op: wire.OpWrite, Key: 7, Val: []byte("12345678")},
		{Client: 1, Seq: 2, Op: wire.OpWrite, Key: 8, Val: []byte("abc")},
		{Client: 2, Seq: 1, Op: wire.OpRead, Key: 7},
	}, NumRead: 1, NumWrite: 2}
}

func fluidBatch() *wire.Batch {
	return &wire.Batch{Origin: 3, NumRead: 10, NumWrite: 90, ByteSize: 1600,
		Samples: []wire.ArrivalSample{{At: 5, Count: 60}, {At: 9, Count: 40, Read: true}}}
}

// TestWireSizesAreUnchanged pins the modeled size of every EPaxos message.
// The numbers are what WireSize returned when the messages still had an
// encoding (then equal to the encoded length for an explicit or absent
// batch): the simulator charges links and CPU by them, so a change here
// moves the paper's EPaxos figures.
func TestWireSizesAreUnchanged(t *testing.T) {
	if got := explicitBatch().WireSize(); got != 123 {
		t.Fatalf("explicit batch WireSize = %d, want 123", got)
	}
	if got := fluidBatch().WireSize(); got != 1647 {
		t.Fatalf("fluid batch WireSize = %d, want 1647", got)
	}
	deps := []InstanceRef{{Replica: 1, Instance: 4}, {Replica: 2, Instance: 9}}
	for _, c := range []struct {
		name string
		m    wire.Message
		want int
	}{
		{"PreAccept explicit", &PreAccept{Replica: 1, Instance: 3, Ballot: 2, Batch: explicitBatch(), Seq: 5, Deps: deps}, 181},
		{"PreAccept fluid", &PreAccept{Replica: 1, Instance: 3, Ballot: 2, Batch: fluidBatch(), Seq: 5, Deps: deps}, 1705},
		{"PreAccept no batch", &PreAccept{Replica: 1, Instance: 3, Ballot: 2, Seq: 5}, 34},
		{"PreAcceptReply", &PreAcceptReply{Replica: 1, Instance: 3, Ballot: 2, From: 4, OK: true, Seq: 5, Deps: deps}, 62},
		{"PreAcceptReply no deps", &PreAcceptReply{Replica: 1, Instance: 3}, 38},
		{"Accept", &Accept{Replica: 1, Instance: 3, Ballot: 2, Seq: 5, Deps: deps}, 57},
		{"Accept no deps", &Accept{Replica: 1, Instance: 3}, 33},
		{"AcceptReply", &AcceptReply{Replica: 1, Instance: 3, Ballot: 2, From: 4, OK: true}, 26},
		{"Commit explicit", &Commit{Replica: 1, Instance: 3, Batch: explicitBatch(), Seq: 5, Deps: deps}, 173},
		{"Commit fluid", &Commit{Replica: 1, Instance: 3, Batch: fluidBatch(), Seq: 5, Deps: deps}, 1697},
		{"Commit no batch", &Commit{Replica: 1, Instance: 3, Seq: 5}, 26},
	} {
		if got := c.m.WireSize(); got != c.want {
			t.Errorf("%s: WireSize = %d, want %d", c.name, got, c.want)
		}
	}
}
