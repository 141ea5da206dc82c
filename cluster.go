package canopus

import (
	"canopus/internal/livecluster"
)

// LiveOptions shapes a live loopback deployment (see
// internal/livecluster.Config: node count or explicit super-leaves, a
// per-node protocol Config template, seed and log sink).
type LiveOptions = livecluster.Config

// LiveCluster is a running live deployment: real TCP sockets on
// loopback, the same engines and client ports cmd/canopus-server runs.
// Connect a canopus/client.Client to its ClientAddr addresses.
type LiveCluster = livecluster.Cluster

// StartLiveCluster boots a live loopback deployment: listeners first
// (so every node knows every address), then nodes, then client ports.
func StartLiveCluster(opts LiveOptions) (*LiveCluster, error) {
	return livecluster.Start(opts)
}
