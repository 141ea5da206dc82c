// Package livecluster boots live Canopus nodes on real sockets, not the
// simulator. Boot builds one replica — protocol node, store, WAL, event
// hub, client port speaking the client protocol, admin gateway — around
// one internal/transport runner; cmd/canopus-server runs one per process,
// and Start runs N of them on loopback in-process. The benchmark uses
// Start to measure the live path; tests use it to exercise end-to-end
// client traffic, faults and graceful shutdown.
package livecluster

import (
	"fmt"
	"time"

	"canopus/internal/chaosnet"
	"canopus/internal/core"
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
	// (kvstore.NewLogged) so tests can assert replica equality and
	// exactly-once application; off by default — the digest costs a hash
	// per mutation on the benchmarked hot path.
	LoggedStores bool
	// Logf receives transport log lines; default discards them (loopback
	// teardown noise is not interesting).
	Logf func(format string, args ...interface{})
	// DataFS, when set, gives node i a durable storage engine
	// (internal/wal) on DataFS(i): a group-commit WAL plus periodic
	// snapshots, recovered from at Start before the node joins consensus
	// or accepts clients. wal.DirFS is a real disk; tests use wal.MemFS
	// to model a disk surviving a restart without touching the host.
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
}

// Cluster is a running loopback deployment: one Replica per node, booted
// by the same Boot canopus-server runs. A node the rest of the cluster
// drops rejoins in place as its replica's joiner.
type Cluster struct {
	Tree     *lot.Tree
	reg      *metrics.Registry
	chaos    *chaosnet.Net // nil without Config.Chaos
	replicas []*Replica
}

// Start boots the deployment: every runner's listener first (so every
// node knows every address, through its chaos links when Chaos is set),
// then one Boot per node, then Attach, Serve and Start on each.
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
	c := &Cluster{Tree: tree, reg: cfg.Metrics}
	if c.reg == nil && cfg.Admin {
		// Gateways without a caller-supplied registry still serve a
		// fully-instrumented /metrics.
		c.reg = metrics.NewRegistry()
	}
	if cfg.Chaos {
		c.chaos = chaosnet.New(chaosnet.Config{Logf: logf, Seed: cfg.Seed})
	}
	runners := make([]*transport.Runner, 0, n)
	fail := func(err error) (*Cluster, error) {
		for _, r := range runners {
			r.Close()
		}
		c.kill()
		return nil, err
	}
	// Each runner gets its OWN peer table: with chaos, node i's entry for
	// j is the i→j proxy's address, which is necessarily different per
	// direction. Tables are filled once every listener is bound (and
	// before Boot registers metrics — the per-peer gauges enumerate the
	// table at registration).
	peersFor := make([]map[wire.NodeID]string, n)
	for i := 0; i < n; i++ {
		peersFor[i] = make(map[wire.NodeID]string, n)
		r, err := transport.NewRunner(wire.NodeID(i), "127.0.0.1:0", peersFor[i], cfg.Seed)
		if err != nil {
			return fail(err)
		}
		r.Logf = logf
		runners = append(runners, r)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			addr := runners[j].Addr().String()
			if c.chaos != nil && i != j {
				var err error
				if addr, err = c.chaos.AddLink(wire.NodeID(i), wire.NodeID(j), addr); err != nil {
					return fail(fmt.Errorf("livecluster: %w", err))
				}
			}
			peersFor[i][wire.NodeID(j)] = addr
		}
	}
	adminAddr := ""
	if cfg.Admin {
		adminAddr = "127.0.0.1:0"
	}
	for i, runner := range runners {
		rc := ReplicaConfig{
			Runner:         runner,
			Node:           cfg.Node,
			SnapshotCycles: cfg.SnapshotCycles,
			LoggedStore:    cfg.LoggedStores,
			ClientAddr:     "127.0.0.1:0",
			AdminAddr:      adminAddr,
			Registry:       c.reg,
		}
		rc.Node.Tree = tree
		if cfg.DataFS != nil {
			rc.Disk = cfg.DataFS(i)
		}
		r, err := Boot(rc)
		if err != nil {
			return fail(err)
		}
		c.replicas = append(c.replicas, r)
	}
	// Attach only after every node is built and bound to its port — and
	// synchronously, so Submit works the moment Start returns.
	for _, r := range c.replicas {
		r.cfg.Runner.Attach(r.Node())
	}
	for _, r := range c.replicas {
		go r.cfg.Runner.Serve(nil)
		r.Start()
	}
	return c, nil
}

// Chaos returns the fault-injection fabric, nil without Config.Chaos.
func (c *Cluster) Chaos() *chaosnet.Net { return c.chaos }

// NumNodes returns the deployment size.
func (c *Cluster) NumNodes() int { return len(c.replicas) }

// ClientAddr returns node i's client-port address.
func (c *Cluster) ClientAddr(i int) string { return c.replicas[i].port.Addr() }

// Node returns protocol node i (for tests and tooling) — the current
// one, a joiner after a rejoin.
func (c *Cluster) Node(i int) *core.Node { return c.replicas[i].Node() }

// Store returns node i's local replica state (for tests and tooling).
// The node's apply stage owns the store; foreign reads are only coherent
// through InspectStore.
func (c *Cluster) Store(i int) *kvstore.Store {
	_, st, _ := c.replicas[i].current()
	return st
}

// InspectStore runs fn against node i's replica state on the node's apply
// stage: every cycle ordered at the time of the call has been applied,
// and no apply runs concurrently with fn. Tests use it to assert replica
// equality and exactly-once application. fn must not submit operations
// or block on cluster progress.
func (c *Cluster) InspectStore(i int, fn func(st *kvstore.Store)) {
	node, st, _ := c.replicas[i].current()
	node.InspectApplied(func() { fn(st) })
}

// Port returns node i's client port.
func (c *Cluster) Port(i int) *ClientPort { return c.replicas[i].port }

// Durability returns node i's storage engine (nil when the cluster runs
// without DataFS, and after node i rejoined without its disk).
func (c *Cluster) Durability(i int) *wal.Manager { return c.replicas[i].durability() }

// Runner returns node i's transport runner.
func (c *Cluster) Runner(i int) *transport.Runner { return c.replicas[i].cfg.Runner }

// AdminAddr returns node i's admin-gateway address, or "" when the
// cluster was started without Config.Admin.
func (c *Cluster) AdminAddr(i int) string {
	if adm := c.replicas[i].admin; adm != nil {
		return adm.Addr()
	}
	return ""
}

// Registry returns the cluster's metrics registry: Config.Metrics when
// one was supplied, the private gateway registry under Config.Admin, nil
// otherwise.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Submit asynchronously executes one keyed operation at node's replica
// without a socket, over the same reply fan-out the socket clients use
// (ClientPort.SubmitLocal). benchmark/ drives its probes and read load
// through it; applications use canopus/client against ClientAddr. done
// runs on the node's apply stage and must not block; it receives the
// read value (nil for mutations and misses) and whether the operation
// was served; ok=false means the node is draining, stalled or crashed.
func (c *Cluster) Submit(node int, op wire.Op, key uint64, val []byte, done func(val []byte, ok bool)) {
	c.Port(node).SubmitLocal(op, key, val, done)
}

// Close is Stop with a five-second drain.
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
	r := c.replicas[i]
	r.port.Abort()
	r.cfg.Runner.Close()
	// The transport is closed (no further machine turns); stop the node's
	// apply stage, and any rejoin with it. Queued cycles finish applying
	// first, so a post-mortem Store inspection still sees everything
	// ordered here. The WAL stays as the crash left it.
	r.halt()
}

// Stop shuts the deployment down gracefully: drain every client port
// (answer in-flight requests), flush transports, then close. It reports
// whether all ports drained inside the per-port timeout.
func (c *Cluster) Stop(drain time.Duration) bool {
	drained := true
	for _, r := range c.replicas {
		if !r.port.Stop(drain) {
			drained = false
		}
	}
	for _, r := range c.replicas {
		r.cfg.Runner.Drain(time.Second)
	}
	c.kill()
	return drained
}

func (c *Cluster) kill() {
	for _, r := range c.replicas {
		r.cfg.Runner.Close()
	}
	if c.chaos != nil {
		c.chaos.Close()
	}
	for _, r := range c.replicas {
		r.Close()
	}
}
