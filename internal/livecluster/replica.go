package livecluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"canopus/admin"
	"canopus/internal/adminsrv"
	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/metrics"
	"canopus/internal/transport"
	"canopus/internal/wal"
)

// ReplicaConfig is what one live replica is built from. Every field is a
// value that a canopus-server flag or a Config field sets.
type ReplicaConfig struct {
	// Runner is the replica's transport; the node's Self is its ID. The
	// caller attaches the node to it, serves it and closes it.
	Runner *transport.Runner
	// Node is the protocol configuration; Tree must be set.
	Node core.Config
	// Join enters through the join protocol (§4.6) instead of
	// participating from cycle 1 — how an evicted node re-enters.
	Join bool
	// Disk, when set, makes the replica durable: a group-commit WAL plus
	// snapshots on it, recovered from by Boot. A joiner never has one.
	Disk wal.FS
	// SnapshotCycles is the snapshot cadence (wal.Options.SnapshotCycles).
	SnapshotCycles int
	// LoggedStore gives the replica an apply-order-logging store
	// (kvstore.NewLogged; Config.LoggedStores).
	LoggedStore bool
	// ClientAddr is the client port's listen address; "" runs without one.
	ClientAddr string
	// AdminAddr is the admin gateway's listen address; "" runs without one.
	AdminAddr string
	// Registry, when set, receives the replica's instruments, labeled
	// node="<id>".
	Registry *metrics.Registry
}

// Replica is one live node — protocol node, store, event hub, WAL,
// client port and admin gateway — built around one transport runner.
// canopus-server runs one; Cluster runs one per node. When the cluster
// drops its node, the replica rejoins in place (restart).
type Replica struct {
	cfg   ReplicaConfig
	port  *ClientPort      // nil without ClientAddr
	admin *adminsrv.Server // nil without AdminAddr

	// mu guards the node, its store, its hub and the WAL, which restart
	// swaps or drops while everything else persists, and closed.
	mu     sync.Mutex
	node   *core.Node
	store  *kvstore.Store
	hub    *events.Hub
	mgr    *wal.Manager // nil without Disk, and after a restart
	closed bool         // Close or Crash ran: no eviction restarts the node
}

// Boot builds a replica in one fixed order: store and WAL, client port,
// event hub, node, metrics, admin gateway, recovery; then it binds the
// port to the recovered node. Both listeners are bound when Boot returns,
// but until Start the port accepts no client and /healthz answers 503
// "recovering": a restarting node owns its advertised endpoints at once
// and never shows a client mid-recovery state. Recovery precedes the
// node's Attach, which the caller does before or after Start. A joiner
// with a disk, or a Node config core.Config.Validate rejects, is refused
// before anything is opened.
func Boot(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Join && cfg.Disk != nil {
		// An evicted node's Leave is committed; recovering its old disk
		// would resurrect pre-eviction state the cluster has moved past.
		return nil, errors.New("livecluster: a joiner re-enters state-less and never opens a disk")
	}
	if err := cfg.Node.Validate(); err != nil {
		return nil, fmt.Errorf("livecluster: %w", err)
	}
	self := cfg.Runner.ID()
	cfg.Node.Self = self
	r := &Replica{cfg: cfg, store: newStore(cfg.LoggedStore)}
	if err := r.boot(); err != nil {
		r.Close()
		return nil, fmt.Errorf("livecluster: node %d: %w", self, err)
	}
	return r, nil
}

func (r *Replica) boot() (err error) {
	if r.cfg.Disk != nil {
		r.mgr, err = wal.Open(wal.Options{FS: r.cfg.Disk, Store: r.store, SnapshotCycles: r.cfg.SnapshotCycles})
		if err != nil {
			return err
		}
		r.cfg.Node.Durability = r.mgr
	}
	if r.cfg.ClientAddr != "" {
		if r.port, err = newClientPort(r.cfg.Runner, r.cfg.ClientAddr); err != nil {
			return err
		}
	}
	r.hub = events.NewHub(events.Options{})
	r.node = r.newNode(r.cfg.Join, r.store, r.hub)
	self := r.cfg.Node.Self
	r.registerNode(r.node, r.hub)
	if reg := r.cfg.Registry; reg != nil {
		label := r.label()
		r.cfg.Runner.RegisterMetrics(reg, label)
		if r.port != nil {
			r.port.RegisterMetrics(reg, label)
		}
		if r.mgr != nil {
			r.mgr.RegisterMetrics(reg, label)
		}
	}
	if r.cfg.AdminAddr != "" {
		acfg := adminsrv.Config{
			Registry: r.cfg.Registry,
			Node:     int32(self),
			Status:   r.status,
			Degraded: r.degraded,
		}
		if r.mgr != nil {
			acfg.Snapshot = r.snapshot
		}
		if r.admin, err = adminsrv.Listen(r.cfg.AdminAddr, acfg); err != nil {
			return err
		}
	}
	if r.mgr != nil {
		info, err := r.mgr.Recover(r.node)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		if info.Durable > 0 {
			r.cfg.Runner.Logf("node %v: recovered to cycle %d (snapshot at cycle %d, %d WAL records replayed)",
				self, info.Durable, info.SnapshotCycle, info.Replayed)
		}
	}
	if r.port != nil {
		r.port.SetNode(r.node, r.hub)
	}
	return nil
}

// newStore builds one replica's empty store.
func newStore(logged bool) *kvstore.Store {
	if logged {
		return kvstore.NewLogged()
	}
	return kvstore.New()
}

// label is the node="<id>" label every series of the replica carries.
func (r *Replica) label() metrics.Label {
	return metrics.Label{Key: "node", Value: strconv.Itoa(int(r.cfg.Node.Self))}
}

// registerNode points the node's and the hub's series at node and hub:
// at boot, and again after a restart, so /metrics follows the serving
// incarnation (registering a series again replaces its sampling func).
func (r *Replica) registerNode(node *core.Node, hub *events.Hub) {
	if reg := r.cfg.Registry; reg != nil {
		node.RegisterMetrics(reg, r.label())
		hub.RegisterMetrics(reg, r.label())
	}
}

// newNode builds the protocol node (a joiner when join) over st. The hub
// and then the client port consume its committed stream, so a cycle's
// events are published before its replies go out. Its eviction notice
// restarts the replica off the machine turn.
func (r *Replica) newNode(join bool, st *kvstore.Store, hub *events.Hub) *core.Node {
	var node *core.Node
	cbs := core.Callbacks{
		Consumers: []core.Consumer{hub},
		OnEvicted: func() { go r.restart(node) },
	}
	if r.port != nil {
		cbs.Consumers = append(cbs.Consumers, r.port)
	}
	if join {
		node = core.NewJoiner(r.cfg.Node, st, cbs)
	} else {
		node = core.NewNode(r.cfg.Node, st, cbs)
	}
	return node
}

// Start opens the booted replica to the world: the client port accepts
// and /healthz reports "ok".
func (r *Replica) Start() {
	if r.port != nil {
		r.port.AcceptClients()
	}
	if r.admin != nil {
		r.admin.SetPhase("ok")
	}
}

// Node returns the current protocol node (a fresh joiner after restart).
func (r *Replica) Node() *core.Node { node, _, _ := r.current(); return node }

// Port returns the client port, nil without ClientAddr.
func (r *Replica) Port() *ClientPort { return r.port }

// current returns the node, store and hub as one consistent triple.
func (r *Replica) current() (*core.Node, *kvstore.Store, *events.Hub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node, r.store, r.hub
}

// restart answers old's eviction notice (§4.6): the committed view
// dropped old, so it can never make progress again. A fresh joiner on an
// empty store and hub replaces it in place and re-enters the running
// cluster through the join protocol, as if the process had restarted
// with an empty disk. A durable replica closes its WAL and goes on
// without a disk: the committed Leave voids the disk's claim, the rule
// Boot applies to every joiner. The runner, client port and admin
// gateway persist. A notice from a replaced incarnation, or one after
// Close or Crash, starts nothing; mu is held to the end, so a Close
// that comes meanwhile waits and closes the joiner.
func (r *Replica) restart(old *core.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.node != old {
		return
	}
	r.cfg.Runner.Logf("node %v: dropped from the cluster's view; rejoining in place", r.cfg.Node.Self)
	mgr := r.mgr
	r.cfg.Node.Durability, r.mgr = nil, nil
	r.store, r.hub = newStore(r.cfg.LoggedStore), events.NewHub(events.Options{})
	r.node = r.newNode(true, r.store, r.hub)
	r.registerNode(r.node, r.hub)
	// Swap the client port first so no request reaches the dying node,
	// then attach the joiner (Init sends its JoinRequest through the
	// runner; the old node's armed timers die with it — transport drops
	// timers whose arming machine was replaced). The WAL closes after
	// the old node's apply stage, which flushes its last batch.
	if r.port != nil {
		r.port.SetNode(r.node, r.hub)
	}
	r.cfg.Runner.Attach(r.node)
	old.Close()
	closeWAL(r.cfg.Runner, mgr)
}

// closeWAL closes mgr, when there is one, and logs a failure.
func closeWAL(runner *transport.Runner, mgr *wal.Manager) {
	if mgr == nil {
		return
	}
	if err := mgr.Close(); err != nil {
		runner.Logf("node %v: wal close: %v", runner.ID(), err)
	}
}

// halt marks the replica closed, so no later eviction notice restarts
// it, and stops its node's apply stage. It returns the WAL, which the
// caller closes or, to model a crash, leaves as the process left it.
func (r *Replica) halt() *wal.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.node != nil {
		r.node.Close()
	}
	return r.mgr
}

// Close stops the admin gateway, the client port's listener and the
// node, then the WAL, whose last durability batch the node's apply stage
// flushes first. Draining the port and closing the runner are the
// caller's.
func (r *Replica) Close() {
	if r.admin != nil {
		r.admin.Close()
	}
	if r.port != nil {
		r.port.ln.Close()
	}
	closeWAL(r.cfg.Runner, r.halt())
}

// durability returns the WAL, nil without a disk or after a restart.
func (r *Replica) durability() *wal.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr
}

// snapshot is the gateway's POST /snapshot verb.
func (r *Replica) snapshot() error {
	mgr := r.durability()
	if mgr == nil {
		return errors.New("no durable storage: the node rejoined without its disk")
	}
	mgr.RequestSnapshot()
	return nil
}

// digest reads (committed cycle, state digest, log digest) on the node's
// apply stage, so the digests are a consistent cut at a cycle boundary.
func digest(node *core.Node, st *kvstore.Store) (cycle, state, logd uint64) {
	node.InspectApplied(func() {
		cycle = node.Committed()
		state = st.StateDigest()
		logd = st.LogDigest()
	})
	return
}

// status is the gateway's /status document: the digest cut of the
// current node, with membership and cycle watermarks read inside a
// machine turn, where the view is stable.
func (r *Replica) status() admin.Status {
	node, st, hub := r.current()
	mgr := r.durability()
	cycle, state, logd := digest(node, st)
	s := admin.Status{
		Applied:     cycle,
		StateDigest: fmt.Sprintf("%016x", state),
		LogDigest:   fmt.Sprintf("%016x", logd),
		Watchers:    hub.Active(),
	}
	r.cfg.Runner.Invoke(func() {
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
	if mgr != nil {
		ds := mgr.Stats()
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

// degraded is the gateway's liveness hook: "stalled" while the current
// node's stall detector is raised (no commit for 4 × FetchTimeout with
// cycles outstanding) or the node has hard-halted.
func (r *Replica) degraded() string {
	if r.Node().StallSuspected() {
		return "stalled"
	}
	return ""
}
