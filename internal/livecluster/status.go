package livecluster

import (
	"fmt"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/transport"
	"canopus/internal/wal"
)

// DigestSource builds the (committed cycle, state digest, log digest)
// source of one node: it reads the replica on the node's apply stage, so
// the digest is a consistent cut at a cycle boundary.
func DigestSource(node *core.Node, st *kvstore.Store) func() (uint64, uint64, uint64) {
	return func() (cycle, state, logd uint64) {
		node.InspectApplied(func() {
			cycle = node.Committed()
			state = st.StateDigest()
			logd = st.LogDigest()
		})
		return
	}
}

// StatusSource builds the admin gateway's /status document source for
// one node, layered over the same quiesced read DigestSource uses so the
// (applied, digest) pair is a consistent cut. Membership and cycle
// watermarks are read inside a machine turn, where the view is stable.
// dur may be nil (no WAL), hub may be nil (no event plane).
// Cluster.Start and canopus-server share it.
func StatusSource(runner *transport.Runner, node *core.Node, st *kvstore.Store, dur *wal.Manager, hub *events.Hub) func() admin.Status {
	digest := DigestSource(node, st)
	return func() admin.Status {
		var s admin.Status
		cycle, state, logd := digest()
		s.Applied = cycle
		s.StateDigest = fmt.Sprintf("%016x", state)
		s.LogDigest = fmt.Sprintf("%016x", logd)
		if hub != nil {
			s.Watchers = hub.Active()
		}
		runner.Invoke(func() {
			s.Node = int32(node.ID())
			s.Started = node.Started()
			s.Ordered = node.Ordered()
			s.Stalled = node.Stalled()
			if node.StallSuspected() {
				s.Degraded = "stalled"
			}
			// A restarted joiner has no view until its join completes —
			// report membership without per-leaf liveness until then.
			view := node.View()
			for _, h := range node.LeafHealth() {
				sl := admin.SuperLeaf{
					Index:     h.SL,
					Failed:    h.Failed,
					Evicted:   h.Evicted,
					EvictedAt: h.EvictedAt,
				}
				for _, m := range h.Members {
					sl.Members = append(sl.Members, int32(m))
					if view != nil && view.Alive(m) {
						sl.Alive = append(sl.Alive, int32(m))
					}
				}
				s.Membership = append(s.Membership, sl)
			}
		})
		if dur != nil {
			ds := dur.Stats()
			s.Durability = &admin.Durability{
				DurableCycle:  ds.DurableCycle,
				Syncs:         ds.Syncs,
				SyncedRecords: ds.SyncedRecords,
				LastBatch:     ds.LastBatch,
				Snapshots:     ds.Snapshots,
			}
		}
		return s
	}
}
