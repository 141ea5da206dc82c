// Package harness assembles simulated deployments of Canopus, EPaxos
// and Zab/ZooKeeper, drives them with the paper's workloads, and
// regenerates each table and figure of the evaluation section (§8).
// cmd/canopus-bench is its CLI. livechaos.go holds the live chaos
// campaigns, which TestLiveChaosCampaigns runs on in-process clusters
// and cmd/chaos-smoke on canopus-server processes.
package harness

import (
	"time"

	"canopus/internal/core"
	"canopus/internal/engine"
	"canopus/internal/epaxos"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
	"canopus/internal/workload"
	"canopus/internal/zab"
)

// System selects the protocol under test.
type System uint8

const (
	// Canopus is the paper's contribution.
	Canopus System = iota
	// CanopusFlat is the topology-oblivious ablation: every node in one
	// super-leaf, i.e. dissemination degenerates to all-to-all reliable
	// broadcast with no tree aggregation.
	CanopusFlat
	// EPaxos is the decentralized baseline.
	EPaxos
	// Zab is the ZooKeeper baseline (leader + voters + observers).
	Zab
	// ZKCanopus is ZooKeeper with Zab replaced by Canopus (§8.1.2),
	// modeled as Canopus with the znode-tree apply cost.
	ZKCanopus
)

func (s System) String() string {
	switch s {
	case Canopus:
		return "Canopus"
	case CanopusFlat:
		return "Canopus-flat"
	case EPaxos:
		return "EPaxos"
	case Zab:
		return "ZooKeeper"
	case ZKCanopus:
		return "ZKCanopus"
	}
	return "?"
}

// Spec describes one deployment + workload combination.
type Spec struct {
	System System

	// Topology: MultiDC picks the WAN testbed (DCs × PerGroup nodes,
	// Table 1 delays); otherwise a single datacenter with Racks ×
	// PerGroup nodes (the paper's 3-rack cluster).
	MultiDC  bool
	Groups   int // racks or datacenters
	PerGroup int
	WANRTT   [][]time.Duration // inter-DC round trips (Table 1); nil = paper's

	WriteRatio float64

	// Canopus knobs.
	CycleInterval time.Duration // 0 = self-clocked
	MaxInFlight   int
	FetchTimeout  time.Duration
	NumReps       int
	SwitchBcast   bool // hardware-assisted broadcast ablation

	// EPaxos knobs.
	EPaxosBatch time.Duration

	// Zab knobs.
	ZabVoters int
	ZabBatch  time.Duration

	// Cost model; zero-valued fields take per-system defaults.
	Costs     netsim.CostParams
	ClientCPU time.Duration

	// Faults is the deterministic fault schedule injected into the run
	// (empty = failure-free, the paper's setting). Canopus-family nodes
	// with a RestartAt come back through the §4.6 join protocol; the
	// baselines' crashed nodes stay down.
	Faults netsim.FaultPlan

	Seed    int64
	Warmup  time.Duration
	Measure time.Duration
}

func (s *Spec) fill() {
	if s.Groups == 0 {
		s.Groups = 3
	}
	if s.PerGroup == 0 {
		s.PerGroup = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Warmup == 0 {
		if s.MultiDC {
			s.Warmup = 2 * time.Second
		} else {
			s.Warmup = 500 * time.Millisecond
		}
	}
	if s.Measure == 0 {
		if s.MultiDC {
			s.Measure = 3 * time.Second
		} else {
			s.Measure = 2 * time.Second
		}
	}
	if s.EPaxosBatch == 0 {
		s.EPaxosBatch = 5 * time.Millisecond
	}
	if s.ZabVoters == 0 {
		s.ZabVoters = 5
	}
	if s.ZabBatch == 0 {
		s.ZabBatch = 2 * time.Millisecond
	}
	if s.MaxInFlight == 0 {
		if s.MultiDC {
			// Deep pipeline: ~RTT/cycle plus slack (§7.1).
			s.MaxInFlight = 512
		} else {
			// Shallow pipeline: keeps queueing delay at saturation well
			// under the paper's 10ms completion-time criterion. Throughput
			// is unaffected: batches grow with load, not the cycle rate.
			s.MaxInFlight = 4
		}
	}
	if s.CycleInterval == 0 {
		if s.MultiDC {
			s.CycleInterval = 5 * time.Millisecond // the paper's setting
		} else {
			s.CycleInterval = time.Millisecond
		}
	}
	if s.FetchTimeout == 0 {
		if s.MultiDC {
			s.FetchTimeout = 800 * time.Millisecond
		} else {
			s.FetchTimeout = 25 * time.Millisecond
		}
	}
	if s.ClientCPU == 0 {
		s.ClientCPU = 2 * time.Microsecond
	}
	if s.Costs == (netsim.CostParams{}) {
		s.Costs = SystemCosts(s.System)
	}
}

// SystemCosts returns the per-system CPU cost calibration. The common
// terms model network-stack and batch-handling path lengths; PerReqRecv
// captures what each implementation does per command inside a received
// message: Canopus merges into an ordered list (cheap); EPaxos maintains
// per-command dependency state; ZooKeeper runs its transaction pipeline
// on every write at every replica that processes it.
func SystemCosts(s System) netsim.CostParams {
	c := netsim.CostParams{
		PerMsgSend:  3 * time.Microsecond,
		PerMsgRecv:  5 * time.Microsecond,
		PerByteSend: time.Nanosecond,
		PerByteRecv: time.Nanosecond,
		PerTimer:    time.Microsecond,
	}
	switch s {
	case EPaxos:
		c.PerReqRecv = 500 * time.Nanosecond
	case Zab:
		// ZooKeeper's full transaction pipeline runs per write wherever
		// the txn is processed (leader, follower, observer).
		c.PerReqRecv = 20 * time.Microsecond
	case ZKCanopus:
		// znode-tree apply is heavier than raw KV merging but avoids the
		// ZooKeeper pipeline.
		c.PerReqRecv = 250 * time.Nanosecond
	default:
		c.PerReqRecv = 150 * time.Nanosecond
	}
	return c
}

// Result is one measured run.
type Result struct {
	Offered    float64 // requests/second offered
	Throughput float64 // requests/second completed in the window
	Median     time.Duration
	P95        time.Duration
	P99        time.Duration
	MedianRead,
	MedianWrite time.Duration
	Events uint64 // simulation events executed (cost indicator)
}

// target adapters.

type canopusTarget struct{ n *core.Node }

func (t canopusTarget) Offer(reads, writes, readBytes, writeBytes uint32, samples []wire.ArrivalSample) {
	// Canopus never puts reads on the wire: readBytes is dropped.
	t.n.SubmitFluid(reads, writes, writeBytes, samples)
}

type epaxosTarget struct{ r *epaxos.Replica }

func (t epaxosTarget) Offer(reads, writes, readBytes, writeBytes uint32, samples []wire.ArrivalSample) {
	// EPaxos replicates reads too.
	t.r.SubmitFluid(reads, writes, readBytes+writeBytes, samples)
}

type zabTarget struct{ n *zab.Node }

func (t zabTarget) Offer(reads, writes, readBytes, writeBytes uint32, samples []wire.ArrivalSample) {
	// Reads never reach Zab (workload.LocalReads); only write samples
	// remain in samples.
	t.n.SubmitFluid(writes, writeBytes, samples)
}

// Run executes one deployment at one offered rate and reports measured
// completion times.
func Run(spec Spec, rate float64) Result {
	spec.fill()
	sim := netsim.NewSim()
	topo := buildTopo(spec)
	runner := netsim.NewRunner(sim, topo, spec.Costs, spec.Seed)

	end := spec.Warmup + spec.Measure
	rec := &workload.Recorder{WarmFrom: spec.Warmup, ArriveUntil: end}

	targets, restart := buildSystem(spec, sim, topo, runner, rec)
	if !spec.Faults.Empty() {
		runner.InstallFaults(spec.Faults, restart)
	}

	wcfg := workload.Config{
		Rate:       rate,
		WriteRatio: spec.WriteRatio,
		ClientCPU:  spec.ClientCPU,
		LocalReads: spec.System == Zab,
		Seed:       spec.Seed + 7,
	}
	gen := workload.NewGenerator(wcfg, sim, runner, targets, rec)
	gen.Start(end)

	// Run past the end of generation so requests in flight at the
	// window's close drain and are counted (arrival-time filtering).
	drain := spec.Warmup
	if drain < time.Second && spec.MultiDC {
		drain = time.Second
	}
	sim.RunUntil(end + drain)

	all := rec.All()
	res := Result{
		Offered:    rate,
		Throughput: float64(all.Count()) / spec.Measure.Seconds(),
		Median:     all.Median(),
		P95:        all.Quantile(0.95),
		P99:        all.Quantile(0.99),
		Events:     sim.Steps(),
	}
	res.MedianRead = rec.Reads.Median()
	res.MedianWrite = rec.Writes.Median()
	return res
}

func buildTopo(spec Spec) *netsim.Topology {
	if !spec.MultiDC {
		return netsim.SingleDC(spec.Groups, spec.PerGroup, netsim.Params{})
	}
	rtt := spec.WANRTT
	if rtt == nil {
		rtt = Table1RTT(spec.Groups)
	}
	oneway := make([][]time.Duration, spec.Groups)
	for i := range oneway {
		oneway[i] = make([]time.Duration, spec.Groups)
		for j := range oneway[i] {
			if i != j {
				oneway[i][j] = rtt[i][j] / 2
			}
		}
	}
	return netsim.MultiDC(spec.Groups, spec.PerGroup, netsim.Params{WANDelay: oneway})
}

// buildSystem instantiates the protocol nodes and returns one workload
// target per node, plus a restart factory for fault plans (nil for
// systems without a modeled join protocol).
func buildSystem(spec Spec, sim *netsim.Sim, topo *netsim.Topology, runner *netsim.Runner, rec *workload.Recorder) ([]workload.Target, func(wire.NodeID) engine.Machine) {
	n := topo.NumNodes()
	targets := make([]workload.Target, n)
	switch spec.System {
	case Canopus, CanopusFlat, ZKCanopus:
		var sls [][]wire.NodeID
		if spec.System == CanopusFlat {
			all := make([]wire.NodeID, n)
			for i := range all {
				all[i] = wire.NodeID(i)
			}
			sls = [][]wire.NodeID{all}
		} else {
			for g := 0; g < spec.Groups; g++ {
				sls = append(sls, topo.RackMembers(g))
			}
		}
		tree, err := lot.New(lot.Config{SuperLeaves: sls})
		if err != nil {
			panic(err)
		}
		makeNode := func(id wire.NodeID, joiner bool) *core.Node {
			cfg := core.Config{
				Tree:          tree,
				Self:          id,
				CycleInterval: spec.CycleInterval,
				MaxInFlight:   spec.MaxInFlight,
				FetchTimeout:  spec.FetchTimeout,
				NumReps:       spec.NumReps,
			}
			if spec.SwitchBcast {
				cfg.Broadcast = core.BroadcastSwitch
			}
			cbs := core.Callbacks{Consumers: []core.Consumer{core.ConsumerFunc(func(c *core.Commit) {
				now := sim.Now()
				for _, b := range c.Order {
					if b.Origin == id {
						rec.RecordBatch(now, b)
					}
				}
			})}}
			if joiner {
				return core.NewJoiner(cfg, nil, cbs)
			}
			return core.NewNode(cfg, nil, cbs)
		}
		for i := 0; i < n; i++ {
			id := wire.NodeID(i)
			node := makeNode(id, false)
			runner.Register(id, node)
			targets[i] = canopusTarget{n: node}
		}
		return targets, func(id wire.NodeID) engine.Machine {
			node := makeNode(id, true)
			targets[id] = canopusTarget{n: node}
			return node
		}
	case EPaxos:
		peers := make([]wire.NodeID, n)
		for i := range peers {
			peers[i] = wire.NodeID(i)
		}
		for i := 0; i < n; i++ {
			id := wire.NodeID(i)
			rep := epaxos.New(epaxos.Config{
				Self: id, Peers: peers, BatchDuration: spec.EPaxosBatch,
			}, nil, epaxos.Callbacks{
				OnCommit: func(ref wire.InstanceRef, b *wire.Batch) {
					rec.RecordBatch(sim.Now(), b)
				},
			})
			runner.Register(id, rep)
			targets[i] = epaxosTarget{r: rep}
		}
		return targets, nil
	case Zab:
		voters := spec.ZabVoters
		if voters > n {
			voters = n
		}
		all := make([]wire.NodeID, n)
		for i := range all {
			all[i] = wire.NodeID(i)
		}
		for i := 0; i < n; i++ {
			id := wire.NodeID(i)
			node := zab.New(zab.Config{
				Self: id, Leader: 0, Voters: all[:voters], All: all,
				BatchDuration: spec.ZabBatch,
			}, nil, zab.Callbacks{
				OnDeliver: func(zxid uint64, b *wire.Batch) {
					if b.Origin == id {
						rec.RecordBatch(sim.Now(), b)
					}
				},
			})
			runner.Register(id, node)
			targets[i] = zabTarget{n: node}
		}
	}
	return targets, nil
}
