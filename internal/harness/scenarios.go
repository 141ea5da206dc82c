package harness

import (
	"time"

	"canopus/internal/core"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Scenario catalog: the named chaos experiments the repo regression-
// tests. The paper evaluates only failure-free executions and itself
// concedes Canopus stalls when a whole super-leaf fails (§6); these
// scenarios pin down exactly what the implementation does under the
// failures RCanopus (arXiv:1810.09300) was written to address, within
// this repo's crash-stop model. Each Scenario function below documents
// its fault and the outcome it expects. The leaf-eviction scenarios
// (ScenarioLeaf…, ScenarioGeoLeafEvictReadmit) run with Node.LeafTimeout
// set, replacing the stall-forever answer with the RCanopus-style
// degraded mode (internal/core leaf.go); the rest run in stock mode.
//
// Every scenario's history must check out linearizable, every live
// replica must end at one cycle with one state, and replaying the same
// seed + plan must reproduce the commit log bit-identically.

// Scenario is one named chaos experiment.
type Scenario struct {
	Name string
	Spec ChaosSpec
}

// ids is a convenience for fault-plan node sets.
func ids(ns ...int) []wire.NodeID {
	out := make([]wire.NodeID, len(ns))
	for i, n := range ns {
		out[i] = wire.NodeID(n)
	}
	return out
}

// ScenarioMinorityCrash crashes one member of super-leaf 1 (of three
// racks) with no restart. The failure cut must commit its Leave and
// service must continue on the survivors.
func ScenarioMinorityCrash(seed int64) Scenario {
	return Scenario{
		Name: "minority-crash",
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Duration: 5 * time.Second,
			FaultAt:  1500 * time.Millisecond,
			Faults: netsim.FaultPlan{
				Crashes: []netsim.CrashFault{{At: 1500 * time.Millisecond, Node: 4}},
			},
		},
	}
}

// ScenarioRepresentativeCrashMidCycle kills node 0 — as the lowest ID
// it is always a representative of super-leaf 0 — under continuous load,
// so cycles are guaranteed to be in flight at the crash. A latency fault
// straddling the crash keeps the victim's remote fetch unresolved when
// it dies, forcing the surviving representatives' takeover path.
func ScenarioRepresentativeCrashMidCycle(seed int64) Scenario {
	rack0, rack1 := ids(0, 1, 2), ids(3, 4, 5)
	return Scenario{
		Name: "representative-crash-mid-cycle",
		Spec: ChaosSpec{
			Groups: 2, PerGroup: 3, Seed: seed,
			Duration: 5 * time.Second,
			FaultAt:  1200 * time.Millisecond,
			Node:     core.Config{FetchTimeout: 100 * time.Millisecond},
			Faults: netsim.FaultPlan{
				Latencies: []netsim.LatencyFault{
					{At: 1100 * time.Millisecond, Until: 1600 * time.Millisecond,
						From: rack0, To: rack1, Extra: 150 * time.Millisecond},
					{At: 1100 * time.Millisecond, Until: 1600 * time.Millisecond,
						From: rack1, To: rack0, Extra: 150 * time.Millisecond},
				},
				Crashes: []netsim.CrashFault{{At: 1200 * time.Millisecond, Node: 0}},
			},
		},
	}
}

// ScenarioWANPartitionHeal cuts datacenter 0 off from the other two for
// one second. No super-leaf loses quorum, so nothing stalls permanently;
// commits pause during the cut (remote branch states are unreachable)
// and resume after the heal.
func ScenarioWANPartitionHeal(seed int64) Scenario {
	dc0, rest := ids(0, 1, 2), ids(3, 4, 5, 6, 7, 8)
	return Scenario{
		Name: "wan-partition-heal",
		Spec: ChaosSpec{
			MultiDC: true, Groups: 3, PerGroup: 3, Seed: seed,
			Duration:  6 * time.Second,
			FaultAt:   2500 * time.Millisecond, // the heal: recovery is measured from here
			OpTimeout: 2 * time.Second,
			Node: core.Config{
				CycleInterval: 5 * time.Millisecond,
				FetchTimeout:  300 * time.Millisecond,
			},
			Faults: netsim.FaultPlan{
				Partitions: []netsim.PartitionFault{{
					At: 1500 * time.Millisecond, Heal: 2500 * time.Millisecond,
					A: dc0, B: rest,
				}},
			},
		},
	}
}

// ScenarioFlappingLink repeatedly degrades the rack0↔rack1 path: five
// 250ms windows of +20ms latency and 30% packet loss, 500ms apart.
// Intra-super-leaf traffic is untouched, so failure detectors stay
// quiet; cross-leaf fetch retries absorb the loss.
func ScenarioFlappingLink(seed int64) Scenario {
	rack0, rack1 := ids(0, 1, 2), ids(3, 4, 5)
	plan := netsim.FaultPlan{}
	for k := 0; k < 5; k++ {
		at := time.Duration(1000+500*k) * time.Millisecond
		until := at + 250*time.Millisecond
		plan.Latencies = append(plan.Latencies,
			netsim.LatencyFault{At: at, Until: until, From: rack0, To: rack1, Extra: 20 * time.Millisecond},
			netsim.LatencyFault{At: at, Until: until, From: rack1, To: rack0, Extra: 20 * time.Millisecond},
		)
		plan.Drops = append(plan.Drops,
			netsim.DropFault{At: at, Until: until, From: rack0, To: rack1, Prob: 0.3},
			netsim.DropFault{At: at, Until: until, From: rack1, To: rack0, Prob: 0.3},
		)
	}
	return Scenario{
		Name: "flapping-link",
		Spec: ChaosSpec{
			Groups: 2, PerGroup: 3, Seed: seed,
			Duration: 5 * time.Second,
			Node:     core.Config{FetchTimeout: 50 * time.Millisecond},
			Faults:   plan,
		},
	}
}

// ScenarioRollingRestarts crashes two nodes in different super-leaves,
// each with total state loss, and restarts them through the join
// protocol before the next one goes down.
func ScenarioRollingRestarts(seed int64) Scenario {
	return Scenario{
		Name: "rolling-restarts",
		Spec: ChaosSpec{
			Groups: 2, PerGroup: 3, Seed: seed,
			Duration: 8 * time.Second,
			FaultAt:  time.Second,
			Faults: netsim.FaultPlan{
				Crashes: []netsim.CrashFault{
					{At: time.Second, Node: 1, RestartAt: 3 * time.Second},
					{At: 4 * time.Second, Node: 4, RestartAt: 6 * time.Second},
				},
			},
		},
	}
}

// ScenarioPowerLoss crashes all six nodes at the same instant — a
// full-cluster power loss — and restarts them from their per-node
// durable disks, slightly staggered so replicas come back at different
// WAL watermarks and exercise root catch-up. The tight snapshot cadence
// makes each restart recover a snapshot baseline plus a WAL tail rather
// than pure replay. Commits must resume after the outage and the
// completed-operation history must stay linearizable across it.
func ScenarioPowerLoss(seed int64) Scenario {
	plan := netsim.FaultPlan{}
	for i := 0; i < 6; i++ {
		plan.Crashes = append(plan.Crashes, netsim.CrashFault{
			At: 2 * time.Second, Node: wire.NodeID(i),
			RestartAt: time.Duration(3500+100*i) * time.Millisecond,
		})
	}
	return Scenario{
		Name: "power-loss-durable",
		Spec: ChaosSpec{
			Groups: 2, PerGroup: 3, Seed: seed,
			Duration:       8 * time.Second,
			FaultAt:        2 * time.Second,
			Durable:        true,
			SnapshotCycles: 8,
			Node:           core.Config{FetchTimeout: 50 * time.Millisecond},
			Faults:         plan,
		},
	}
}

// ScenarioMemberCut partitions one member of super-leaf 1 (nodes 3–5 of
// three racks) from the other eight for 600 ms in stock mode, well past
// the broadcast's failure detection (100 ms at the 1 ms chaos tick). Its
// leaf-mates cut it and commit its Leave; after the heal a peer answers
// it with the Evicted notice, and it restarts as a joiner and converges.
// Victim 3 is the leaf's sequencer (the lowest member opens the first
// epoch), 4 a follower.
func ScenarioMemberCut(seed int64, victim int) Scenario {
	name, rest := "member-cut-follower", ids(0, 1, 2, 3, 5, 6, 7, 8)
	if victim == 3 {
		name, rest = "member-cut-sequencer", ids(0, 1, 2, 4, 5, 6, 7, 8)
	}
	return Scenario{
		Name: name,
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Duration: 5 * time.Second,
			FaultAt:  1500 * time.Millisecond,
			Faults: netsim.FaultPlan{Partitions: []netsim.PartitionFault{
				{At: 1500 * time.Millisecond, Heal: 2100 * time.Millisecond, A: ids(victim), B: rest},
			}},
		},
	}
}

// evictionNode is the protocol tuning the leaf scenarios share: leaf
// eviction armed at 600ms (multiples of the broadcast failure-detection
// settle time at the chaos default 1ms tick), fetch retries fast enough
// to notice the dead leaf well inside that.
func evictionNode() core.Config {
	return core.Config{
		LeafTimeout:  600 * time.Millisecond,
		FetchTimeout: 100 * time.Millisecond,
	}
}

// ScenarioLeafPartitionEvict cuts super-leaf 2 (of three racks) off for
// two seconds. Commits stall when the cut leaf's branch state becomes
// unreachable, resume once the survivors evict it (~LeafTimeout after
// the cut), and return to full strength after the heal: the partitioned
// nodes learn of their eviction from the dead-sender gate, restart as
// joiners, and re-admit the leaf.
func ScenarioLeafPartitionEvict(seed int64) Scenario {
	leaf2, rest := ids(6, 7, 8), ids(0, 1, 2, 3, 4, 5)
	return Scenario{
		Name: "leaf-partition-evict",
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Duration: 7 * time.Second,
			FaultAt:  1500 * time.Millisecond,
			Node:     evictionNode(),
			Faults: netsim.FaultPlan{
				Partitions: []netsim.PartitionFault{
					netsim.LeafPartition(1500*time.Millisecond, 3500*time.Millisecond, leaf2, rest),
				},
			},
		},
	}
}

// ScenarioLeafMajorityCrash crash-stops two of super-leaf 2's three
// members: the leaf loses its reliable-broadcast quorum, so even the
// surviving member can make no progress. The survivors' eviction round
// commits the whole leaf's Leaves; the stalled survivor is told it was
// evicted and bounces into a joiner, the crashed pair restart as joiners
// at 4s, and the leaf is re-admitted.
func ScenarioLeafMajorityCrash(seed int64) Scenario {
	return Scenario{
		Name: "leaf-majority-crash",
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Duration: 8 * time.Second,
			FaultAt:  1500 * time.Millisecond,
			Node:     evictionNode(),
			Faults: netsim.FaultPlan{
				Crashes: netsim.LeafMajorityCrash(1500*time.Millisecond, ids(6, 7, 8), 4*time.Second),
			},
		},
	}
}

// ScenarioLeafPowerLossDurable kills a whole rack's power in a Durable
// deployment. The cluster evicts the dark leaf and keeps committing, so
// by the time the rack's nodes restart and recover their disks their
// Leaves are long committed — the single-node cold-start recovery claim
// no longer holds. They must discover the eviction (dead-sender gate),
// discard the recovered state, and re-enter through the join protocol.
func ScenarioLeafPowerLossDurable(seed int64) Scenario {
	return Scenario{
		Name: "leaf-power-loss-durable",
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Duration:       8 * time.Second,
			FaultAt:        2 * time.Second,
			Durable:        true,
			SnapshotCycles: 8,
			Node:           evictionNode(),
			Faults: netsim.FaultPlan{
				Crashes: netsim.LeafPowerLoss(2*time.Second, ids(6, 7, 8), 4*time.Second),
			},
		},
	}
}

// ScenarioGeoLeafEvictReadmit is the geo-scale campaign: five
// datacenters spanning the WAN latency classes (metro neighbor up to a
// transoceanic site), one super-leaf each. The farthest DC is cut off
// for three seconds; eviction quorum, tombstone resolution and
// readmission all ride real continental round trips, so the timeout and
// retry budgets are exercised at geo scale rather than LAN scale.
func ScenarioGeoLeafEvictReadmit(seed int64) Scenario {
	// GeoWANDelay yields one-way delays; doubling the class values makes
	// the same max-of-classes construction yield the RTT matrix WANRTT
	// expects (buildTopo halves it back).
	rtt := netsim.GeoWANDelay([]time.Duration{
		2 * netsim.MetroOneWay,
		2 * netsim.MetroOneWay,
		2 * netsim.RegionalOneWay,
		2 * netsim.ContinentalOneWay,
		2 * netsim.IntercontinentalOneWay,
	})
	dc4, rest := ids(12, 13, 14), ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	return Scenario{
		Name: "geo-leaf-evict-readmit",
		Spec: ChaosSpec{
			MultiDC: true, Groups: 5, PerGroup: 3, Seed: seed,
			WANRTT:    rtt,
			Duration:  12 * time.Second,
			FaultAt:   2 * time.Second,
			OpTimeout: 2 * time.Second,
			// Timeout budgets scale with the intercontinental RTT
			// (150ms): a pipelined cycle's commit latency is a few WAN
			// round trips, so LeafTimeout must sit well above that or
			// healthy-but-slow leaves get spuriously evicted, and
			// FetchTimeout must exceed the worst RTT or fetch retries
			// churn without ever being answerable.
			Node: core.Config{
				CycleInterval: 20 * time.Millisecond,
				LeafTimeout:   2 * time.Second,
				FetchTimeout:  600 * time.Millisecond,
			},
			Faults: netsim.FaultPlan{
				Partitions: []netsim.PartitionFault{
					netsim.LeafPartition(2*time.Second, 6*time.Second, dc4, rest),
				},
			},
		},
	}
}

// ScenarioConnectionReset resets every client link three times under
// load in stock mode — 3 × 3, eight clients per node, cycles 20 ms apart,
// so a reset finds about half the clients waiting — as a middlebox would:
// the nodes keep running, and each client fails what it had in flight
// over once, under its (session, seq) identity. The simulator's twin of
// the live client.TestAsyncOkConnectionResetMidLoad.
func ScenarioConnectionReset(seed int64) Scenario {
	return Scenario{
		Name: "connection-reset",
		Spec: ChaosSpec{
			Groups: 3, PerGroup: 3, Seed: seed,
			Clients: 8, Keys: 256,
			Duration: 4 * time.Second,
			Node:     core.Config{CycleInterval: 20 * time.Millisecond},
			Resets:   []time.Duration{time.Second, 2 * time.Second, 3 * time.Second},
		},
	}
}

// Scenarios returns the full catalog at one seed.
func Scenarios(seed int64) []Scenario {
	return []Scenario{
		ScenarioMinorityCrash(seed),
		ScenarioRepresentativeCrashMidCycle(seed),
		ScenarioWANPartitionHeal(seed),
		ScenarioFlappingLink(seed),
		ScenarioRollingRestarts(seed),
		ScenarioPowerLoss(seed),
		ScenarioMemberCut(seed, 4),
		ScenarioMemberCut(seed, 3),
		ScenarioLeafPartitionEvict(seed),
		ScenarioLeafMajorityCrash(seed),
		ScenarioLeafPowerLossDurable(seed),
		ScenarioGeoLeafEvictReadmit(seed),
		ScenarioConnectionReset(seed),
	}
}

// QuickScenarios is the -short subset: one fast representative of each
// fault family (a crash, a WAN partition, a member cut — with either
// victim — a leaf eviction and client connection resets), chosen for
// low virtual duration and small topologies. Tests that run the catalog under -short take this
// slice instead of maintaining their own hard-coded subsets, so new
// catalog entries get smoke coverage by updating one place.
func QuickScenarios(seed int64) []Scenario {
	return []Scenario{
		ScenarioMinorityCrash(seed),
		ScenarioWANPartitionHeal(seed),
		ScenarioMemberCut(seed, 4),
		ScenarioMemberCut(seed, 3),
		ScenarioLeafPartitionEvict(seed),
		ScenarioConnectionReset(seed),
	}
}
