package zab

import (
	"testing"

	"canopus/internal/wire"
)

// explicitBatch and fluidBatch are the batches the size table uses: three
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

// TestWireSizesAreUnchanged pins the modeled size of every Zab message.
// The numbers are what WireSize returned when the messages still had an
// encoding (then equal to the encoded length for an explicit or absent
// batch): the simulator charges links and CPU by them, so a change here
// moves the paper's ZooKeeper figure.
func TestWireSizesAreUnchanged(t *testing.T) {
	for _, c := range []struct {
		name string
		m    wire.Message
		want int
	}{
		{"ZabForward explicit", &ZabForward{From: 2, Batch: explicitBatch()}, 129},
		{"ZabForward fluid", &ZabForward{From: 2, Batch: fluidBatch()}, 1653},
		{"ZabForward no batch", &ZabForward{From: 2}, 6},
		{"ZabPropose explicit", &ZabPropose{Epoch: 1, Zxid: 7, Batch: explicitBatch()}, 141},
		{"ZabPropose fluid", &ZabPropose{Epoch: 1, Zxid: 7, Batch: fluidBatch()}, 1665},
		{"ZabPropose no batch", &ZabPropose{Epoch: 1, Zxid: 7}, 18},
		{"ZabAck", &ZabAck{Epoch: 1, Zxid: 7, From: 3}, 21},
		{"ZabCommit", &ZabCommit{Epoch: 1, Zxid: 7}, 17},
		{"ZabInform explicit", &ZabInform{Epoch: 1, Zxid: 7, Batch: explicitBatch()}, 141},
		{"ZabInform fluid", &ZabInform{Epoch: 1, Zxid: 7, Batch: fluidBatch()}, 1665},
		{"ZabInform no batch", &ZabInform{Epoch: 1, Zxid: 7}, 18},
	} {
		if got := c.m.WireSize(); got != c.want {
			t.Errorf("%s: WireSize = %d, want %d", c.name, got, c.want)
		}
	}
}
