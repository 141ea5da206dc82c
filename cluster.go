package canopus

import (
	"canopus/internal/livecluster"
)

// Cluster is the backend-independent handle on a running Canopus
// deployment: the simulator (*SimCluster, after Serve) and the live
// loopback-TCP deployment (*LiveCluster) both implement it, so
// workloads, harnesses and applications written against this interface
// run unmodified on either.
//
// Submit is the in-process path: one keyed operation, executed at the
// chosen node's replica, completed through a callback. Endpoint exposes
// the node's client-port address for network clients (canopus/client);
// backends without sockets return "".
type Cluster interface {
	// NumNodes returns the deployment size.
	NumNodes() int
	// Submit asynchronously executes one keyed operation at node's
	// replica. done is invoked from the backend's execution context (the
	// simulator's event loop, or a live node's apply stage) —
	// it must not block — with the read value (nil for mutations and
	// misses) and whether the operation was served; ok=false means the
	// node is stalled, draining or crashed. The value bytes are only
	// valid during the callback.
	Submit(node int, op Op, key uint64, val []byte, done func(val []byte, ok bool))
	// Endpoint returns node's client-port address, or "" when the
	// backend is not reachable over the network.
	Endpoint(node int) string
	// Close tears the deployment down.
	Close() error
}

// SessionCluster extends Cluster with replicated client sessions — the
// exactly-once mutation surface. RegisterSession commits a session ID
// through a consensus cycle; SubmitSession executes one keyed operation
// under that session with a caller-chosen per-session sequence number.
// Re-submitting a mutation with a (session, seq) that already committed
// (the reply-loss retry) completes with the cached committed result
// instead of applying twice — at any node, because the dedup table is
// part of every replica's state machine. Both backends implement it;
// network clients get the same guarantee transparently through
// canopus/client.
type SessionCluster interface {
	Cluster
	// RegisterSession commits a fresh session through node's replica.
	// done runs from the backend's execution context (it must not block)
	// with the replicated session ID; ok=false means the node could not
	// commit it (stalled, crashed, draining, or closed).
	RegisterSession(node int, done func(id uint64, ok bool))
	// SubmitSession executes one operation under (session, seq). done
	// follows the Submit contract; additionally ok=false is returned for
	// an expired or never-registered session (the mutation was NOT
	// applied). Mutations of one session must use distinct seqs;
	// re-using a seq marks a retry of the same operation. Reads carry no
	// dedup identity.
	SubmitSession(node int, session, seq uint64, op Op, key uint64, val []byte, done func(val []byte, ok bool))
}

// EventCluster extends SessionCluster with the event plane: guarded
// multi-op transactions and ordered change watches. Both backends
// implement it; canopus/recipes builds its coordination primitives
// (mutex, election, counters, barriers) on this surface, so the same
// recipe code runs on the simulator and on a live deployment.
type EventCluster interface {
	SessionCluster
	// SubmitTxn executes one encoded transaction (AppendTxn) at node's
	// replica. done follows the Submit contract and receives the encoded
	// TxnResult (ParseTxnResult). A non-zero session makes the txn
	// exactly-once across retries; session 0 submits at-most-once.
	SubmitTxn(node int, session, seq uint64, body []byte, done func(val []byte, ok bool))
	// Watch registers a change watch on node's event hub. The sink runs
	// on the backend's execution context and must not block; see
	// events.Hub.Watch for the resume and overflow contract.
	Watch(node int, spec WatchSpec, sink WatchSink) (uint64, error)
	// Unwatch cancels a watch registered through Watch.
	Unwatch(node int, id uint64)
}

// Interface conformance: both backends stay behind the one API.
var (
	_ Cluster        = (*SimCluster)(nil)
	_ Cluster        = (*LiveCluster)(nil)
	_ SessionCluster = (*SimCluster)(nil)
	_ SessionCluster = (*LiveCluster)(nil)
	_ EventCluster   = (*SimCluster)(nil)
	_ EventCluster   = (*LiveCluster)(nil)
)

// LiveOptions shapes a live loopback deployment (see
// internal/livecluster.Config: node count or explicit super-leaves, a
// per-node protocol Config template, seed and log sink).
type LiveOptions = livecluster.Config

// LiveCluster is a running live deployment: real TCP sockets on
// loopback, the same engines and client ports cmd/canopus-server runs.
// Connect a canopus/client.Client to its Endpoint addresses, or drive
// it in-process through the Cluster interface.
type LiveCluster = livecluster.Cluster

// StartLiveCluster boots a live loopback deployment: listeners first
// (so every node knows every address), then nodes, then client ports.
func StartLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	return livecluster.Start(opts)
}
