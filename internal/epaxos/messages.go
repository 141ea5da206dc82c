package epaxos

import "canopus/internal/wire"

// The EPaxos messages run on the simulator only, which reads nothing of a
// message but its size: they have no encoding. WireSize models the one
// they had: a kind byte, little-endian fixed-width fields (4-byte node
// IDs, 8-byte counters, 1-byte bools), a u32-counted dependency list and
// an optional batch behind a presence byte.

// PreAccept is the EPaxos fast-path proposal for one instance.
type PreAccept struct {
	Replica  wire.NodeID // command leader
	Instance uint64
	Ballot   uint64
	Batch    *wire.Batch
	Seq      uint64
	Deps     []InstanceRef
}

// InstanceRef names an EPaxos instance (replica, slot).
type InstanceRef struct {
	Replica  wire.NodeID
	Instance uint64
}

// PreAcceptReply is the fast-path acknowledgement.
type PreAcceptReply struct {
	Replica  wire.NodeID
	Instance uint64
	Ballot   uint64
	From     wire.NodeID
	OK       bool
	Seq      uint64
	Deps     []InstanceRef
}

// Accept is the EPaxos slow-path round (used when fast-path replies
// disagree; with zero command interference it never fires, but it is
// implemented and tested).
type Accept struct {
	Replica  wire.NodeID
	Instance uint64
	Ballot   uint64
	Seq      uint64
	Deps     []InstanceRef
}

// AcceptReply acknowledges Accept.
type AcceptReply struct {
	Replica  wire.NodeID
	Instance uint64
	Ballot   uint64
	From     wire.NodeID
	OK       bool
}

// Commit announces a committed EPaxos instance.
type Commit struct {
	Replica  wire.NodeID
	Instance uint64
	Batch    *wire.Batch
	Seq      uint64
	Deps     []InstanceRef
}

func depsSize(d []InstanceRef) int { return 4 + 12*len(d) }

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

func (m *PreAccept) WireSize() int {
	return 1 + 4 + 8 + 8 + optBatchSize(m.Batch) + 8 + depsSize(m.Deps)
}
func (m *PreAcceptReply) WireSize() int { return 1 + 4 + 8 + 8 + 4 + 1 + 8 + depsSize(m.Deps) }
func (m *Accept) WireSize() int         { return 1 + 4 + 8 + 8 + 8 + depsSize(m.Deps) }
func (m *AcceptReply) WireSize() int    { return 1 + 4 + 8 + 8 + 4 + 1 }
func (m *Commit) WireSize() int         { return 1 + 4 + 8 + optBatchSize(m.Batch) + 8 + depsSize(m.Deps) }

// Requests reports the client requests a batch-carrying message holds,
// which the simulator charges per-request CPU for (netsim.RequestCarrier).
func (m *PreAccept) Requests() int { return batchRequests(m.Batch) }
func (m *Commit) Requests() int    { return batchRequests(m.Batch) }
