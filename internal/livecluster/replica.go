package livecluster

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

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
	// (kvstore.NewShardedLogged; Config.LoggedStores).
	LoggedStore bool
	// ClientAddr is the client port's listen address; "" runs without one.
	ClientAddr string
	// AdminAddr is the admin gateway's listen address; "" runs without one.
	AdminAddr string
	// FaultVerbs arms the gateway's POST /chaos with drop-replies,
	// serve-replies and kill (canopus-server -admin-chaos).
	FaultVerbs bool
	// Registry, when set, receives the replica's instruments, labeled
	// node="<id>".
	Registry *metrics.Registry
	// OnEvicted fires from the machine turn when the rest of the cluster
	// evicts this node (core.Callbacks.OnEvicted).
	OnEvicted func()
}

// Replica is one live node — protocol node, store, event hub, WAL,
// client port and admin gateway — built around one transport runner.
// canopus-server runs one; Cluster runs one per node.
type Replica struct {
	cfg   ReplicaConfig
	port  *ClientPort      // nil without ClientAddr
	mgr   *wal.Manager     // nil without Disk
	admin *adminsrv.Server // nil without AdminAddr

	// mu guards the node, its store and its hub, which restart swaps
	// while everything else persists.
	mu    sync.Mutex
	node  *core.Node
	store *kvstore.Store
	hub   *events.Hub
}

// storeShards is the partition count of every live replica's kvstore. A
// constant: the snapshot format records it, and a data directory whose
// snapshot was written with another count is refused at recovery.
const storeShards = 8

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
	if reg := r.cfg.Registry; reg != nil {
		label := metrics.Label{Key: "node", Value: strconv.Itoa(int(self))}
		r.node.RegisterMetrics(reg, label)
		r.cfg.Runner.RegisterMetrics(reg, label)
		r.hub.RegisterMetrics(reg, label)
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
			acfg.Snapshot = func() error { r.mgr.RequestSnapshot(); return nil }
		}
		if r.cfg.FaultVerbs {
			acfg.Chaos = r.faultVerb
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
		return kvstore.NewShardedLogged(storeShards)
	}
	return kvstore.NewSharded(storeShards)
}

// newNode builds the protocol node (a joiner when join) over st. The hub
// and then the client port consume its committed stream, so a cycle's
// events are published before its replies go out.
func (r *Replica) newNode(join bool, st *kvstore.Store, hub *events.Hub) *core.Node {
	cbs := core.Callbacks{Consumers: []core.Consumer{hub}, OnEvicted: r.cfg.OnEvicted}
	if r.port != nil {
		cbs.Consumers = append(cbs.Consumers, r.port)
	}
	if join {
		return core.NewJoiner(r.cfg.Node, st, cbs)
	}
	return core.NewNode(r.cfg.Node, st, cbs)
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

// restart replaces the protocol node in place: a fresh joiner on an empty
// store and hub re-enters the running cluster through the §4.6 join
// protocol, exactly as if the process had restarted with an empty disk.
// The runner, client port and admin gateway persist. Not supported with
// durability: the WAL is bound to the original node's apply stage.
func (r *Replica) restart() error {
	if r.mgr != nil {
		return errors.New("not supported with durability")
	}
	st, hub := newStore(r.cfg.LoggedStore), events.NewHub(events.Options{})
	node := r.newNode(true, st, hub)
	r.mu.Lock()
	old := r.node
	r.node, r.store, r.hub = node, st, hub
	r.mu.Unlock()
	// Swap the client port first so no request reaches the dying node,
	// then attach the joiner (Init sends its JoinRequest through the
	// runner; the old node's armed timers die with it — transport drops
	// timers whose arming machine was replaced).
	if r.port != nil {
		r.port.SetNode(node, hub)
	}
	r.cfg.Runner.Attach(node)
	old.Close()
	return nil
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
	if node := r.Node(); node != nil {
		node.Close()
	}
	if r.mgr != nil {
		if err := r.mgr.Close(); err != nil {
			r.cfg.Runner.Logf("node %v: wal close: %v", r.cfg.Runner.ID(), err)
		}
	}
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
	if r.mgr != nil {
		ds := r.mgr.Stats()
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
// node's stall detector (core.Config.StallThreshold) is raised.
func (r *Replica) degraded() string {
	if r.Node().StallSuspected() {
		return "stalled"
	}
	return ""
}

// faultVerb is POST /chaos under FaultVerbs: drop-replies opens the
// committed-but-unacknowledged reply-loss window, serve-replies closes
// it, and kill crash-stops the process (exit 137, as SIGKILL would)
// after a short delay so the HTTP response gets out first.
func (r *Replica) faultVerb(action string) error {
	switch action {
	case "drop-replies", "serve-replies":
		if r.port == nil {
			return errors.New("no client port")
		}
		r.port.SetDropReplies(action == "drop-replies")
	case "kill":
		r.cfg.Runner.Logf("node %v: chaos kill requested", r.cfg.Runner.ID())
		time.AfterFunc(100*time.Millisecond, func() { os.Exit(137) })
	default:
		return fmt.Errorf("unknown chaos action %q (want drop-replies, serve-replies or kill)", action)
	}
	return nil
}
