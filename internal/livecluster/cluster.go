// Package livecluster boots real Canopus deployments in-process: N nodes
// on loopback TCP behind internal/transport runners (the same sockets
// cmd/canopus-server uses — not the simulator), each with a client port
// speaking the client protocol. The benchmark harness
// uses it to measure the live path; tests use it to exercise end-to-end
// client traffic and graceful shutdown.
package livecluster

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"canopus/admin"
	"canopus/internal/adminsrv"
	"canopus/internal/chaosnet"
	"canopus/internal/core"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/metrics"
	"canopus/internal/transport"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// Config shapes a loopback deployment.
type Config struct {
	// Nodes is the deployment size (required unless SuperLeaves is set).
	Nodes int
	// SuperLeaves groups node IDs into super-leaves; default is all
	// nodes in one super-leaf.
	SuperLeaves [][]wire.NodeID
	// Node is the per-node protocol configuration template (Tree and
	// Self are set by the cluster).
	Node core.Config
	// Seed randomizes proposal numbers per node.
	Seed int64
	// LoggedStores gives every node an apply-order-logging store
	// (kvstore.NewShardedLogged) so tests can assert replica equality and
	// exactly-once application; off by default — the digest costs a hash
	// per mutation on the benchmarked hot path.
	LoggedStores bool
	// Logf receives transport log lines; default discards them (loopback
	// teardown noise is not interesting).
	Logf func(format string, args ...interface{})
	// DataDir, when set, gives every node a durable storage engine
	// (internal/wal): a group-commit WAL plus periodic snapshots under
	// DataDir/node-<id>, recovered from at Start before the node joins
	// consensus or accepts clients.
	DataDir string
	// DataFS overrides the per-node durability filesystem (tests use
	// wal.MemFS to model a disk surviving a restart without touching the
	// host). Non-nil enables durability even with an empty DataDir.
	DataFS func(i int) wal.FS
	// SnapshotCycles is the snapshot cadence in committed cycles
	// (wal.Options.SnapshotCycles; 0 selects the wal default).
	SnapshotCycles int
	// Metrics, when set, receives every node's instruments (labeled
	// node="<i>") — core watermarks, transport counters, WAL durability,
	// client-port traffic. The bench harness reads it to attribute
	// throughput to a pipeline stage.
	Metrics *metrics.Registry
	// Admin gives every node an HTTP admin gateway on a loopback
	// ephemeral port (see AdminAddr), serving the shared Metrics registry
	// (or a private one when Metrics is nil) plus /status and /healthz.
	Admin bool
	// Chaos routes every inter-node transport connection through a
	// chaosnet fabric: one TCP proxy per directed peer pair, so
	// partitions, WAN latency, resets and throttles can be injected at
	// runtime on real sockets (Cluster.Chaos). Client ports are not
	// proxied — chaos hits the replication path, not the client edge.
	Chaos bool
	// AdminChaos arms the gateways' POST /chaos verb (requires Admin)
	// with the chaosnet action grammar. Without Chaos the verb exists
	// but every action answers 409 Conflict.
	AdminChaos bool
	// OnEvicted, when set, fires from node i's machine turn when the
	// rest of the cluster evicts it (core.Callbacks.OnEvicted). It must
	// not block and must not call RestartNode inline — hand off to a
	// goroutine (RestartNode re-enters the runner's serialization lock).
	OnEvicted func(i int)
}

// storeShards is the partition count of every live replica's kvstore. A
// constant: the snapshot format records it, and a data directory whose
// snapshot was written with another count is refused at recovery.
const storeShards = 8

// NewStore builds the empty store of one live replica; canopus-server and
// Start share it.
func NewStore() *kvstore.Store { return kvstore.NewSharded(storeShards) }

// Cluster is a running loopback deployment.
type Cluster struct {
	Tree    *lot.Tree
	cfg     Config // normalized by Start (defaults resolved); RestartNode rebuilds from it
	runners []*transport.Runner
	ports   []*ClientPort
	reg     *metrics.Registry
	admins  []*adminsrv.Server // nil (or nil entries) when Admin is off
	chaos   *chaosnet.Net      // nil without Config.Chaos

	// mu guards the per-node slices below: RestartNode swaps entries
	// while the deployment is live (the runner, port, gateway and chaos
	// links persist across a restart; the protocol node does not).
	mu     sync.Mutex
	nodes  []*core.Node
	stores []*kvstore.Store
	hubs   []*events.Hub
	mgrs   []*wal.Manager // nil entries when durability is off
}

// Start boots the deployment: listeners first (so every node knows every
// address), then nodes, then client ports.
func Start(cfg Config) (*Cluster, error) {
	sls := cfg.SuperLeaves
	if sls == nil {
		if cfg.Nodes <= 0 {
			return nil, fmt.Errorf("livecluster: Nodes or SuperLeaves required")
		}
		all := make([]wire.NodeID, cfg.Nodes)
		for i := range all {
			all[i] = wire.NodeID(i)
		}
		sls = [][]wire.NodeID{all}
	}
	n := 0
	for _, sl := range sls {
		n += len(sl)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls})
	if err != nil {
		return nil, fmt.Errorf("livecluster: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	cfg.SuperLeaves = sls
	cfg.Logf = logf
	c := &Cluster{Tree: tree, cfg: cfg, reg: cfg.Metrics}
	if c.reg == nil && cfg.Admin {
		// Gateways without a caller-supplied registry still serve a
		// fully-instrumented /metrics.
		c.reg = metrics.NewRegistry()
	}
	if cfg.Chaos {
		c.chaos = chaosnet.New(chaosnet.Config{Logf: logf, Seed: cfg.Seed})
	}
	// Each runner gets its OWN peer table: with chaos, node i's entry for
	// j is the i→j proxy's address, which is necessarily different per
	// direction. Tables are filled once every listener is bound (and
	// before RegisterMetrics — the per-peer gauges enumerate the table at
	// registration).
	peersFor := make([]map[wire.NodeID]string, n)
	for i := 0; i < n; i++ {
		peersFor[i] = make(map[wire.NodeID]string, n)
		r, err := transport.NewRunner(wire.NodeID(i), "127.0.0.1:0", peersFor[i], cfg.Seed)
		if err != nil {
			c.kill()
			return nil, err
		}
		r.Logf = logf
		c.runners = append(c.runners, r)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			addr := c.runners[j].Addr().String()
			if c.chaos != nil && i != j {
				var err error
				if addr, err = c.chaos.AddLink(wire.NodeID(i), wire.NodeID(j), addr); err != nil {
					c.kill()
					return nil, fmt.Errorf("livecluster: %w", err)
				}
			}
			peersFor[i][wire.NodeID(j)] = addr
		}
	}
	durable := cfg.DataDir != "" || cfg.DataFS != nil
	for i := 0; i < n; i++ {
		nodeCfg := cfg.Node
		nodeCfg.Tree = tree
		nodeCfg.Self = wire.NodeID(i)
		st := c.newStore()
		var mgr *wal.Manager
		if durable {
			opts := wal.Options{Store: st, SnapshotCycles: cfg.SnapshotCycles}
			if cfg.DataFS != nil {
				opts.FS = cfg.DataFS(i)
			} else {
				opts.Dir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i))
			}
			var err error
			if mgr, err = wal.Open(opts); err != nil {
				c.kill()
				return nil, fmt.Errorf("livecluster: node %d durability: %w", i, err)
			}
			nodeCfg.Durability = mgr
		}
		port, err := NewClientPort(c.runners[i], "127.0.0.1:0")
		if err != nil {
			c.kill()
			return nil, err
		}
		c.ports = append(c.ports, port)
		hub := events.NewHub(events.Options{})
		node := core.NewNode(nodeCfg, st, c.nodeCallbacks(i, hub, port))
		c.stores = append(c.stores, st)
		c.nodes = append(c.nodes, node)
		c.mgrs = append(c.mgrs, mgr)
		c.hubs = append(c.hubs, hub)
		if mgr != nil {
			// Recover before Attach (Init) and before the port accepts:
			// the node rejoins consensus and serves clients only from its
			// replayed state.
			if info, err := mgr.Recover(node); err != nil {
				c.kill()
				return nil, fmt.Errorf("livecluster: node %d recovery: %w", i, err)
			} else if info.Durable > 0 {
				logf("livecluster: node %d recovered to cycle %d (snapshot %d + %d replayed)",
					i, info.Durable, info.SnapshotCycle, info.Replayed)
			}
		}
		port.SetNode(node, hub)
		if c.reg != nil {
			nodeLabel := metrics.Label{Key: "node", Value: strconv.Itoa(i)}
			node.RegisterMetrics(c.reg, nodeLabel)
			c.runners[i].RegisterMetrics(c.reg, nodeLabel)
			port.RegisterMetrics(c.reg, nodeLabel)
			hub.RegisterMetrics(c.reg, nodeLabel)
			if mgr != nil {
				mgr.RegisterMetrics(c.reg, nodeLabel)
			}
		}
		if cfg.Admin {
			srv, err := adminsrv.Listen("127.0.0.1:0", adminsrv.Config{
				Registry: c.reg,
				Node:     int32(i),
				Status:   c.statusSource(i),
				Snapshot: snapshotVerb(mgr),
				Chaos:    c.chaosVerb(),
				Degraded: c.degradedSource(i),
			})
			if err != nil {
				c.kill()
				return nil, fmt.Errorf("livecluster: node %d admin: %w", i, err)
			}
			c.admins = append(c.admins, srv)
		}
	}
	// Attach only after every node is built and bound to its port — and
	// synchronously, so Submit works the moment Start returns (the
	// canopus.Cluster contract).
	for i := 0; i < n; i++ {
		c.runners[i].Attach(c.nodes[i])
	}
	for i := 0; i < n; i++ {
		go c.runners[i].Serve(nil)
		c.ports[i].AcceptClients()
	}
	for _, srv := range c.admins {
		srv.SetPhase("ok")
	}
	return c, nil
}

// newStore builds one replica's empty store.
func (c *Cluster) newStore() *kvstore.Store {
	if c.cfg.LoggedStores {
		return kvstore.NewShardedLogged(storeShards)
	}
	return NewStore()
}

// snapshotVerb adapts an optional WAL manager to the gateway's POST
// /snapshot hook (nil manager disables the verb).
func snapshotVerb(mgr *wal.Manager) func() error {
	if mgr == nil {
		return nil
	}
	return func() error {
		mgr.RequestSnapshot()
		return nil
	}
}

// nodeCallbacks builds node i's core callbacks: its event hub and client
// port consume the committed stream — the hub first, so a cycle's events
// are published before its replies go out — and the cluster config's
// eviction hook.
func (c *Cluster) nodeCallbacks(i int, hub *events.Hub, port *ClientPort) core.Callbacks {
	cbs := core.Callbacks{Consumers: []core.Consumer{hub, port}}
	if c.cfg.OnEvicted != nil {
		cbs.OnEvicted = func() { c.cfg.OnEvicted(i) }
	}
	return cbs
}

// statusSource builds node i's /status source, resolving the current
// node, store, WAL and hub on every call so an in-place restart
// (RestartNode) is picked up without rewiring the gateway.
func (c *Cluster) statusSource(i int) func() admin.Status {
	return func() admin.Status {
		c.mu.Lock()
		node, st, mgr, hub := c.nodes[i], c.stores[i], c.mgrs[i], c.hubs[i]
		c.mu.Unlock()
		return StatusSource(c.runners[i], node, st, mgr, hub)()
	}
}

// degradedSource backs node i's gateway liveness hook: "stalled" while
// the node's stall detector (core.Config.StallThreshold) or hard-halt
// flag is raised, "" otherwise.
func (c *Cluster) degradedSource(i int) func() string {
	return func() string {
		c.mu.Lock()
		node := c.nodes[i]
		c.mu.Unlock()
		if node.StallSuspected() {
			return "stalled"
		}
		return ""
	}
}

// chaosVerb adapts the fabric to the gateways' POST /chaos. Nil (verb
// answers 403) unless AdminChaos; with the verb armed but no fabric,
// every action answers ErrChaosUnavailable (409) — the surface exists,
// this deployment cannot honor it.
func (c *Cluster) chaosVerb() func(string) error {
	if !c.cfg.AdminChaos {
		return nil
	}
	return func(action string) error {
		if c.chaos == nil {
			return fmt.Errorf("%w: cluster started without Config.Chaos", adminsrv.ErrChaosUnavailable)
		}
		return c.chaos.Apply(action)
	}
}

// Chaos returns the fault-injection fabric, nil without Config.Chaos.
func (c *Cluster) Chaos() *chaosnet.Net { return c.chaos }

// RestartNode replaces protocol node i in place: the old node is
// detached and closed, and a fresh joiner (core.NewJoiner) re-enters the
// running cluster through the §4.6 join protocol — state fetch, view
// adoption, readmission if the node was evicted. The transport runner,
// client port, admin gateway and chaos links all persist; only the
// protocol node, store and event hub are rebuilt, exactly as if the
// process had restarted with an empty disk. Not supported with
// durability (the WAL manager is bound to the original node's apply
// pipeline); restart durable nodes as real processes instead.
//
// Must not be called from a node callback or machine turn (it re-enters
// the runner's serialization lock via Attach).
func (c *Cluster) RestartNode(i int) error {
	c.mu.Lock()
	if c.mgrs[i] != nil {
		c.mu.Unlock()
		return fmt.Errorf("livecluster: RestartNode(%d): not supported with durability", i)
	}
	old := c.nodes[i]
	c.mu.Unlock()

	nodeCfg := c.cfg.Node
	nodeCfg.Tree = c.Tree
	nodeCfg.Self = wire.NodeID(i)
	st := c.newStore()
	hub := events.NewHub(events.Options{})
	node := core.NewJoiner(nodeCfg, st, c.nodeCallbacks(i, hub, c.ports[i]))

	c.mu.Lock()
	c.nodes[i], c.stores[i], c.hubs[i] = node, st, hub
	c.mu.Unlock()
	// Swap the client port first so no request reaches the dying node,
	// then attach the joiner (Init sends its JoinRequest through the
	// runner; the old node's armed timers die with it — transport drops
	// timers whose arming machine was replaced).
	c.ports[i].SetNode(node, hub)
	c.runners[i].Attach(node)
	old.Close()
	return nil
}

// NumNodes returns the deployment size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// ClientAddr returns node i's client-port address.
func (c *Cluster) ClientAddr(i int) string { return c.ports[i].Addr() }

// Node returns protocol node i (for tests and tooling) — the current
// one, after any RestartNode.
func (c *Cluster) Node(i int) *core.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Store returns node i's local replica state (for tests and tooling).
// The node's apply stage owns the store; foreign reads are only coherent
// through InspectStore.
func (c *Cluster) Store(i int) *kvstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores[i]
}

// InspectStore runs fn against node i's replica state on the node's apply
// stage: every cycle ordered at the time of the call has been applied,
// and no apply runs concurrently with fn. Tests use it to assert replica
// equality and exactly-once application. fn must not submit operations
// or block on cluster progress.
func (c *Cluster) InspectStore(i int, fn func(st *kvstore.Store)) {
	c.mu.Lock()
	node, st := c.nodes[i], c.stores[i]
	c.mu.Unlock()
	node.InspectApplied(func() { fn(st) })
}

// Port returns node i's client port.
func (c *Cluster) Port(i int) *ClientPort { return c.ports[i] }

// Durability returns node i's storage engine (nil when the cluster runs
// without DataDir/DataFS).
func (c *Cluster) Durability(i int) *wal.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgrs[i]
}

// Runner returns node i's transport runner.
func (c *Cluster) Runner(i int) *transport.Runner { return c.runners[i] }

// AdminAddr returns node i's admin-gateway address, or "" when the
// cluster was started without Config.Admin.
func (c *Cluster) AdminAddr(i int) string {
	if len(c.admins) == 0 {
		return ""
	}
	return c.admins[i].Addr()
}

// Registry returns the cluster's metrics registry: Config.Metrics when
// one was supplied, the private gateway registry under Config.Admin, nil
// otherwise.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Submit asynchronously executes one keyed operation at node's replica,
// implementing the canopus.Cluster interface over the same reply fan-out
// the socket clients use. done runs on the node's apply stage and must
// not block; it receives the read value (nil for
// mutations and misses) and whether the operation was served; ok=false
// means the node is draining, stalled or crashed.
func (c *Cluster) Submit(node int, op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	c.ports[node].SubmitLocal(op, key, val, done)
}

// Endpoint returns node's client-port address, implementing the
// canopus.Cluster interface: a canopus/client.Client pointed at the
// endpoints drives this deployment over real sockets.
func (c *Cluster) Endpoint(node int) string { return c.ports[node].Addr() }

// RegisterSession commits a fresh replicated client session through
// node, implementing the canopus.SessionCluster interface. done runs
// from the node's machine turn (it must not block) with the session ID
// every replica now knows; ok=false means the node could not commit it.
func (c *Cluster) RegisterSession(node int, done func(id uint64, ok bool)) {
	c.ports[node].RegisterLocal(done)
}

// SubmitSession executes one session-scoped operation at node's replica,
// implementing the canopus.SessionCluster interface: a mutation carrying
// a (session, seq) that already committed — a retry after a lost reply —
// completes with the cached result instead of applying twice. done runs
// on the node's apply stage (see Submit); ok=false means the
// node is draining, stalled, crashed, or the session has expired.
func (c *Cluster) SubmitSession(node int, session, seq uint64, op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	c.ports[node].SubmitSessionLocal(session, seq, op, key, val, done)
}

// SubmitTxn executes one multi-op transaction at node's replica,
// implementing the canopus.EventCluster interface. body is the encoded
// transaction (wire.AppendTxn); done receives the encoded
// wire.TxnResult. A non-zero session makes the txn exactly-once across
// retries via the replicated (session, seq) identity; session 0 submits
// at-most-once. done runs on the node's apply stage (see Submit) and must
// not block.
func (c *Cluster) SubmitTxn(node int, session, seq uint64, body []byte, done func(val []byte, ok bool)) {
	c.ports[node].SubmitSessionLocal(session, seq, wire.OpTxn, 0, body, done)
}

// Hub returns node i's event hub (the current one, after any
// RestartNode).
func (c *Cluster) Hub(i int) *events.Hub {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hubs[i]
}

// Watch registers a watch on node's event hub, implementing the
// canopus.EventCluster interface. The sink runs on the node's apply
// stage and must not block; see events.Hub.Watch for the resume and
// overflow contract.
func (c *Cluster) Watch(node int, spec events.Spec, sink events.Sink) (uint64, error) {
	return c.Hub(node).Watch(spec, sink)
}

// Unwatch cancels a watch registered through Watch.
func (c *Cluster) Unwatch(node int, id uint64) {
	c.Hub(node).Cancel(id)
}

// Close implements the canopus.Cluster lifecycle: a bounded graceful
// stop (see Stop for the drain semantics).
func (c *Cluster) Close() error {
	c.Stop(5 * time.Second)
	return nil
}

// Crash fails node i crash-stop: its client port drops every connection
// without draining and its transport closes. The rest of the deployment
// keeps running (and keeps committing while the super-leaf retains a
// broadcast majority); clients connected to the node observe a broken
// connection, exactly as if the process died.
func (c *Cluster) Crash(i int) {
	c.ports[i].Abort()
	c.runners[i].Close()
	// The transport is closed (no further machine turns); stop the node's
	// apply stage. Queued cycles finish applying first, so a post-mortem
	// Store inspection still sees everything ordered here.
	c.Node(i).Close()
}

// Stop shuts the deployment down gracefully: drain every client port
// (answer in-flight requests), flush transports, then close. It reports
// whether all ports drained inside the per-port timeout.
func (c *Cluster) Stop(drain time.Duration) bool {
	drained := true
	for _, p := range c.ports {
		if !p.Stop(drain) {
			drained = false
		}
	}
	for _, r := range c.runners {
		r.Drain(time.Second)
	}
	c.kill()
	return drained
}

func (c *Cluster) kill() {
	for _, srv := range c.admins {
		srv.Close()
	}
	for _, r := range c.runners {
		r.Close()
	}
	if c.chaos != nil {
		c.chaos.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.Close()
	}
	// Node.Close stopped each apply stage (flushing its durability
	// batch), so the managers can close their segments cleanly.
	for _, m := range c.mgrs {
		if m != nil {
			m.Close()
		}
	}
}
