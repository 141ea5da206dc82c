package zab

import "canopus/internal/wire"

// The Zab messages run on the simulator only, which reads nothing of a
// message but its size: they have no encoding. WireSize models the one
// they had: a kind byte, little-endian fixed-width fields (4-byte node
// IDs, 8-byte counters) and an optional batch behind a presence byte.

// ZabForward carries a client write batch from a follower/observer to the
// Zab leader.
type ZabForward struct {
	From  wire.NodeID
	Batch *wire.Batch
}

// ZabPropose is the leader's proposal to voting followers.
type ZabPropose struct {
	Epoch uint64
	Zxid  uint64
	Batch *wire.Batch
}

// ZabAck acknowledges a proposal.
type ZabAck struct {
	Epoch uint64
	Zxid  uint64
	From  wire.NodeID
}

// ZabCommit commits a proposal on voting followers.
type ZabCommit struct {
	Epoch uint64
	Zxid  uint64
}

// ZabInform delivers a committed transaction to observers, which do not
// vote (paper §8.1.2: ZooKeeper configured with 5 followers + observers).
type ZabInform struct {
	Epoch uint64
	Zxid  uint64
	Batch *wire.Batch
}

func optBatchSize(b *wire.Batch) int {
	if b == nil {
		return 1
	}
	return 1 + b.WireSize()
}

func batchRequests(b *wire.Batch) int {
	if b == nil {
		return 0
	}
	return b.Requests()
}

func (m *ZabForward) WireSize() int { return 1 + 4 + optBatchSize(m.Batch) }
func (m *ZabPropose) WireSize() int { return 1 + 8 + 8 + optBatchSize(m.Batch) }
func (m *ZabAck) WireSize() int     { return 1 + 8 + 8 + 4 }
func (m *ZabCommit) WireSize() int  { return 1 + 8 + 8 }
func (m *ZabInform) WireSize() int  { return 1 + 8 + 8 + optBatchSize(m.Batch) }

// Requests reports the client requests a batch-carrying message holds,
// which the simulator charges per-request CPU for (netsim.RequestCarrier).
func (m *ZabForward) Requests() int { return batchRequests(m.Batch) }
func (m *ZabPropose) Requests() int { return batchRequests(m.Batch) }
func (m *ZabInform) Requests() int  { return batchRequests(m.Batch) }
