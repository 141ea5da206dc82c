package core

import (
	"math/rand"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Stall-detection tests: the liveness detector, always on, must flag a
// partitioned minority as degraded once its oldest uncommitted cycle has
// gone stuckAfter (4 × FetchTimeout) without a commit, clear itself on
// heal, and change nothing about protocol behavior: it sends nothing and
// arms nothing.

// runStallScenario drives a 2-leaf cluster through a partition window
// [300ms, 2s) with traffic before, during and after, probing
// StallSuspected at the interesting instants. With two super-leaves no
// eviction quorum exists even when LeafTimeout is armed, so a partition
// stalls everyone — the scenario the detector is for.
func runStallScenario(t *testing.T) *testCluster {
	t.Helper()
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 2,
		cfg: Config{FetchTimeout: 50 * time.Millisecond}})
	leafA := []wire.NodeID{0, 1}
	leafB := []wire.NodeID{2, 3}

	// Pre-partition traffic commits normally.
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 10, 1))
	tc.submitAt(time.Millisecond, 2, wr(2, 1, 20, 1))
	tc.runner.InstallFaults(netsim.FaultPlan{
		Partitions: []netsim.PartitionFault{
			netsim.LeafPartition(300*time.Millisecond, 2*time.Second, leafB, leafA),
		},
	}, nil)
	// Traffic during the partition starts cycles that cannot commit.
	tc.submitAt(400*time.Millisecond, 0, wr(1, 2, 11, 2))
	tc.submitAt(400*time.Millisecond, 2, wr(2, 2, 21, 2))
	// Post-heal traffic proves recovery.
	tc.submitAt(2500*time.Millisecond, 0, wr(1, 3, 12, 3))

	probe := func(at time.Duration, want bool, label string) {
		tc.sim.At(at, func() {
			for _, n := range tc.nodes {
				if got := n.StallSuspected(); got != want {
					t.Errorf("%s: node %v StallSuspected=%v, want %v (committed=%d started=%d)",
						label, n.ID(), got, want, n.committed, n.started)
				}
			}
		})
	}
	// 350ms: partitioned, but nothing outstanding — not degraded.
	probe(350*time.Millisecond, false, "pre-start")
	// 550ms: the wedged cycles started at ≈400ms, within 4 × 50ms.
	probe(550*time.Millisecond, false, "pre-bound")
	// 1.5s: well past start(≈400ms)+200ms — every node degraded.
	probe(1500*time.Millisecond, true, "mid-partition")
	// 3.5s: healed and committing again — flag cleared everywhere.
	probe(3500*time.Millisecond, false, "post-heal")
	tc.run(4 * time.Second)
	tc.requireAgreement()
	for _, n := range tc.nodes {
		if n.Stalled() {
			t.Fatalf("node %v hard-stalled; detector must never halt the protocol", n.ID())
		}
		if n.Committed() < 3 {
			t.Fatalf("node %v committed only %d cycles after heal", n.ID(), n.Committed())
		}
	}
	return tc
}

func TestStallThresholdDetectsPartitionAndClearsOnHeal(t *testing.T) {
	tc := runStallScenario(t)
	for _, n := range tc.nodes {
		if n.stats.stallsDetected.Load() == 0 {
			t.Errorf("node %v never tripped the detector", n.ID())
		}
	}
}

// countingEnv is an engine.Env on a hand-set clock that counts what the
// machine asks of the world and delivers nothing.
type countingEnv struct {
	now           time.Duration
	sends, timers int
	rng           *rand.Rand
}

func (e *countingEnv) ID() wire.NodeID                       { return 0 }
func (e *countingEnv) Now() time.Duration                    { return e.now }
func (e *countingEnv) Rand() *rand.Rand                      { return e.rng }
func (e *countingEnv) Send(wire.NodeID, wire.Message)        { e.sends++ }
func (e *countingEnv) Multicast([]wire.NodeID, wire.Message) { e.sends++ }
func (e *countingEnv) After(time.Duration, engine.TimerTag)  { e.timers++ }

// TestStallDetectorOnlyObserves trips the detector on a node whose leaf-
// mates never answer and checks that the trip sent no message and armed
// no timer: detection may not perturb the protocol or a replay.
func TestStallDetectorOnlyObserves(t *testing.T) {
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	env := &countingEnv{rng: rand.New(rand.NewSource(1))}
	n := NewNode(Config{Tree: tree, Self: 0}, cycleSM{kvstore.NewSessionTable()}, Callbacks{})
	n.Init(env)
	n.Submit(wr(1, 1, 10, 1)) // self-clocked: starts cycle 1 at once
	if n.started <= n.committed {
		t.Fatalf("no cycle outstanding (started=%d committed=%d)", n.started, n.committed)
	}
	for _, step := range []struct {
		at   time.Duration
		want bool
	}{
		{n.cfg.stuckAfter(), false},
		{n.cfg.stuckAfter() + time.Millisecond, true},
	} {
		env.now = step.at
		env.sends, env.timers = 0, 0
		n.checkStall()
		if got := n.StallSuspected(); got != step.want {
			t.Fatalf("at %v: StallSuspected=%v, want %v", step.at, got, step.want)
		}
		if env.sends != 0 || env.timers != 0 {
			t.Fatalf("at %v: the detector sent %d messages and armed %d timers", step.at, env.sends, env.timers)
		}
	}
	if got := n.stats.stallsDetected.Load(); got != 1 {
		t.Fatalf("stallsDetected = %d, want 1", got)
	}
}
