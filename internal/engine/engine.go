// Package engine defines the execution contract shared by every protocol
// implementation in this repository.
//
// Protocol engines (Canopus, EPaxos, Zab) are deterministic
// event-driven state machines: they react to messages and timers and emit
// messages and timers through an Env. The same machine code runs under
// two drivers:
//
//   - internal/netsim.Runner: virtual time, single goroutine, fully
//     deterministic — used by tests and the benchmark harness.
//   - internal/transport.Runner: wall-clock time, one goroutine per node,
//     real TCP — used by cmd/canopus-server and the live examples.
//
// A Machine must never block, sleep, or consult the wall clock directly;
// all time flows through Env.
package engine

import (
	"math/rand"
	"time"

	"canopus/internal/wire"
)

// NodeID aliases wire.NodeID so protocol packages can use a short name.
type NodeID = wire.NodeID

// TimerTag identifies a pending timer. Machines pack whatever routing
// information they need into the tag; tags are opaque to drivers.
type TimerTag uint64

// Env is the world a protocol machine runs in. All methods must be called
// only from within the machine's event handlers (drivers serialize all
// handler invocations per node).
type Env interface {
	// ID returns the node this environment belongs to.
	ID() NodeID
	// Now returns the current time. Under the simulator this is virtual
	// time since simulation start; under the live runner it is wall time
	// since process start. Only differences are meaningful.
	Now() time.Duration
	// Send delivers m to node to. Delivery is asynchronous, unordered
	// across destinations, FIFO per (src,dst) pair, and reliable while
	// both endpoints are alive (paper assumption A2: messages are
	// eventually delivered to a live receiver, and nodes fail by
	// crashing). m belongs to the driver from here on and must never be
	// modified again: the simulator delivers the pointer itself, later,
	// and the live runner encodes a message handed to Send several times
	// in a row only once. Sending one message to several nodes is fine.
	// The simulator reads only m's WireSize; the live runner must encode
	// m, so there it must be a wire.Encodable (anything else panics).
	Send(to NodeID, m wire.Message)
	// Multicast delivers m to every node in to, under Send's rules for m;
	// to is lent for the call. Under the simulator this models
	// switch-assisted replication: the sender serializes the message once
	// and the fabric fans it out (the hardware-assisted broadcast of §4.3,
	// broadcast.Config.Multicast). The live runner sends to each in turn.
	Multicast(to []NodeID, m wire.Message)
	// After schedules a timer that fires tag on this machine after d.
	// Timers are one-shot and cannot be canceled; machines discard stale
	// tags themselves.
	After(d time.Duration, tag TimerTag)
	// Rand returns the node's deterministic random source (seeded by the
	// driver). Canopus draws proposal numbers from it.
	Rand() *rand.Rand
}

// Spawner is optionally implemented by an Env that runs on wall-clock time
// with real goroutines (transport.Runner does). The simulator does not:
// virtual time has one goroutine, and a machine that finds no Spawner does
// all of its work inside its turns, which keeps a replay bit-identical.
type Spawner interface {
	// Go runs fn on a goroutine of its own, beside the machine's turns. A
	// machine uses it for work that must not hold a turn — core's apply
	// stage waits for fsyncs there. fn must not call Env methods, and the
	// machine owns the goroutine's lifetime: it stops it and waits for it.
	Go(fn func())
}

// Machine is an event-driven protocol participant.
type Machine interface {
	// Init is called exactly once before any other method, with the
	// environment the machine will run in.
	Init(env Env)
	// Recv handles one message from another node.
	//
	// Ownership: m is lent, read-only, for the duration of the call. The
	// simulator hands the same pointer to every recipient; the live
	// runner decodes the leaf broadcast's control traffic (SeqForward,
	// SeqAppend — including its Entries slice —, SeqAck) and
	// ProposalRequest into per-connection scratch it reuses once the turn
	// is over. A machine that needs any of it later copies what it keeps,
	// by value, before returning (the broadcast copies log entries; core
	// keeps a request's VNode string, which is never scratch). Payloads
	// and every other message kind are immutable heap objects and may be
	// retained as they are — that is how a delivered Proposal lives on in
	// the broadcast log and the cycle state without a copy.
	//
	// The live runner calls Recv once per frame, in arrival order, for
	// all frames one socket read returned, inside a single turn: sends
	// made by any of those calls are flushed together when the last one
	// returns.
	Recv(from NodeID, m wire.Message)
	// Timer handles a timer previously scheduled with Env.After.
	Timer(tag TimerTag)
}

// Tag packs a timer kind and a payload value into a TimerTag. Kinds are
// per-machine namespaces; payloads are typically cycle numbers or retry
// counters.
func Tag(kind uint8, payload uint64) TimerTag {
	return TimerTag(uint64(kind)<<56 | payload&((1<<56)-1))
}

// TagKind extracts the kind from a timer tag.
func TagKind(t TimerTag) uint8 { return uint8(uint64(t) >> 56) }

// TagPayload extracts the payload from a timer tag.
func TagPayload(t TimerTag) uint64 { return uint64(t) & ((1 << 56) - 1) }
