package netsim

import (
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// pingAt schedules a unicast message from a's env at virtual time at.
func pingAt(sim *Sim, m *echoMachine, at time.Duration, to wire.NodeID) {
	sim.At(at, func() { m.env.Send(to, &wire.JoinRequest{From: m.env.ID()}) })
}

func faultPair(t *testing.T) (*Sim, *Runner, *echoMachine, *echoMachine) {
	t.Helper()
	sim := NewSim()
	topo := SingleDC(2, 1) // two racks, so the pair crosses the aggregation layer
	r := NewRunner(sim, topo, DefaultCosts(), 1)
	a, b := &echoMachine{}, &echoMachine{}
	r.Register(0, a)
	r.Register(1, b)
	return sim, r, a, b
}

func TestPartitionCutsAndHeals(t *testing.T) {
	sim, r, a, b := faultPair(t)
	r.InstallFaults(FaultPlan{Partitions: []PartitionFault{{
		At: 10 * time.Millisecond, Heal: 30 * time.Millisecond,
		A: []wire.NodeID{0}, B: []wire.NodeID{1},
	}}}, nil)

	pingAt(sim, a, 5*time.Millisecond, 1)  // before the cut: delivered
	pingAt(sim, a, 15*time.Millisecond, 1) // during: dropped
	pingAt(sim, b, 20*time.Millisecond, 0) // both directions are cut
	pingAt(sim, a, 35*time.Millisecond, 1) // after heal: delivered

	sim.RunUntil(12 * time.Millisecond)
	if !r.Partitioned(0, 1) || !r.Partitioned(1, 0) {
		t.Fatal("partition not active at t=12ms")
	}
	sim.RunUntil(50 * time.Millisecond)
	if r.Partitioned(0, 1) {
		t.Fatal("partition did not heal")
	}
	if b.got != 2 {
		t.Fatalf("node 1 received %d messages, want 2 (pre-cut and post-heal)", b.got)
	}
	if a.got != 0 {
		t.Fatalf("node 0 received %d messages, want 0", a.got)
	}
}

func TestLatencySpikeDelaysDelivery(t *testing.T) {
	const extra = 40 * time.Millisecond
	sim, r, a, b := faultPair(t)
	r.InstallFaults(FaultPlan{Latencies: []LatencyFault{{
		At: 0, Until: 100 * time.Millisecond,
		From: []wire.NodeID{0}, To: []wire.NodeID{1}, Extra: extra,
	}}}, nil)
	pingAt(sim, a, time.Millisecond, 1)
	sim.RunUntil(extra - time.Millisecond)
	if b.got != 0 {
		t.Fatal("message arrived before the spike delay elapsed")
	}
	sim.RunUntil(extra + 10*time.Millisecond)
	if b.got != 1 {
		t.Fatalf("message never arrived: got=%d", b.got)
	}
	// Expired window: back to base latency.
	pingAt(sim, a, 110*time.Millisecond, 1)
	sim.RunUntil(115 * time.Millisecond)
	if b.got != 2 {
		t.Fatal("post-window message still delayed")
	}
}

func TestDropFaultIsProbabilisticAndDeterministic(t *testing.T) {
	run := func() int {
		sim := NewSim()
		topo := SingleDC(2, 1)
		r := NewRunner(sim, topo, DefaultCosts(), 7)
		a, b := &echoMachine{}, &echoMachine{}
		r.Register(0, a)
		r.Register(1, b)
		r.InstallFaults(FaultPlan{Drops: []DropFault{{
			At: 0, Until: 10 * time.Second,
			From: []wire.NodeID{0}, To: []wire.NodeID{1}, Prob: 0.5,
		}}}, nil)
		for i := 0; i < 200; i++ {
			pingAt(sim, a, time.Duration(i+1)*time.Millisecond, 1)
		}
		sim.RunUntil(time.Second)
		return b.got
	}
	got := run()
	if got < 50 || got > 150 {
		t.Fatalf("delivered %d of 200 at 50%% loss", got)
	}
	if again := run(); again != got {
		t.Fatalf("drop pattern not deterministic: %d vs %d", got, again)
	}
}

func TestCrashAndRestartViaPlan(t *testing.T) {
	sim, r, a, b := faultPair(t)
	var b2 *echoMachine
	r.InstallFaults(FaultPlan{Crashes: []CrashFault{{
		At: 10 * time.Millisecond, Node: 1, RestartAt: 30 * time.Millisecond,
	}}}, func(id wire.NodeID) engine.Machine {
		b2 = &echoMachine{}
		return b2
	})
	pingAt(sim, a, 15*time.Millisecond, 1) // while down: dropped
	pingAt(sim, a, 40*time.Millisecond, 1) // after restart: fresh machine receives
	sim.RunUntil(100 * time.Millisecond)
	if b.got != 0 {
		t.Fatalf("crashed machine received %d messages", b.got)
	}
	if b2 == nil || b2.got != 1 {
		t.Fatalf("restarted machine state: %+v", b2)
	}
	if !r.Alive(1) {
		t.Fatal("node 1 should be alive after restart")
	}
}

func TestEmpty(t *testing.T) {
	p := FaultPlan{Crashes: []CrashFault{{At: time.Second, Node: 2}}}
	if p.Empty() || !(&FaultPlan{}).Empty() {
		t.Fatal("Empty misclassifies")
	}
}

func TestLeafPartitionKeepsIntraLeafLinks(t *testing.T) {
	sim := NewSim()
	topo := SingleDC(2, 2) // racks {0,1} and {2,3}
	r := NewRunner(sim, topo, DefaultCosts(), 1)
	ms := make([]*echoMachine, 4)
	for i := range ms {
		ms[i] = &echoMachine{}
		r.Register(wire.NodeID(i), ms[i])
	}
	leaf, rest := []wire.NodeID{0, 1}, []wire.NodeID{2, 3}
	r.InstallFaults(FaultPlan{Partitions: []PartitionFault{
		LeafPartition(10*time.Millisecond, 30*time.Millisecond, leaf, rest),
	}}, nil)

	pingAt(sim, ms[0], 15*time.Millisecond, 1) // intra-leaf: stays up
	pingAt(sim, ms[0], 15*time.Millisecond, 2) // cross: cut
	pingAt(sim, ms[2], 15*time.Millisecond, 0) // cross, reverse: cut
	pingAt(sim, ms[2], 15*time.Millisecond, 3) // other leaf's intra: up
	pingAt(sim, ms[0], 35*time.Millisecond, 2) // post-heal: delivered

	sim.RunUntil(50 * time.Millisecond)
	if ms[1].got != 1 {
		t.Fatalf("intra-leaf delivery during cut: got %d, want 1", ms[1].got)
	}
	if ms[3].got != 1 {
		t.Fatalf("survivor-side intra delivery during cut: got %d, want 1", ms[3].got)
	}
	if ms[2].got != 1 {
		t.Fatalf("cross-leaf deliveries: got %d, want 1 (post-heal only)", ms[2].got)
	}
	if ms[0].got != 0 {
		t.Fatalf("reverse cross-leaf delivery during cut: got %d, want 0", ms[0].got)
	}
}

func TestLeafMajorityCrashPlanShape(t *testing.T) {
	members := []wire.NodeID{6, 7, 8}
	got := LeafMajorityCrash(2*time.Second, members, 4*time.Second)
	if len(got) != 2 {
		t.Fatalf("crashed %d of 3, want 2 (majority)", len(got))
	}
	for i, cf := range got {
		if cf.Node != members[i] {
			t.Fatalf("crash %d targets %v, want lowest IDs first (%v)", i, cf.Node, members[i])
		}
		if cf.At != 2*time.Second || cf.RestartAt != 4*time.Second {
			t.Fatalf("crash %d schedule (%v, %v), want (2s, 4s)", i, cf.At, cf.RestartAt)
		}
	}
	if n := len(LeafMajorityCrash(0, []wire.NodeID{0, 1, 2, 3, 4}, 0)); n != 3 {
		t.Fatalf("majority of 5 = %d, want 3", n)
	}
}

func TestLeafPowerLossPlanShape(t *testing.T) {
	members := []wire.NodeID{3, 4, 5}
	got := LeafPowerLoss(time.Second, members, 0)
	if len(got) != len(members) {
		t.Fatalf("crashed %d of %d, want the whole leaf", len(got), len(members))
	}
	for i, cf := range got {
		if cf.Node != members[i] || cf.At != time.Second || cf.RestartAt != 0 {
			t.Fatalf("crash %d = %+v, want node %v at 1s, no restart", i, cf, members[i])
		}
	}
}

func TestUniformWANDelayMatrix(t *testing.T) {
	m := UniformWANDelay(3, 10*time.Millisecond)
	if len(m) != 3 {
		t.Fatalf("%d rows, want 3", len(m))
	}
	for i := range m {
		for j := range m[i] {
			want := 10 * time.Millisecond
			if i == j {
				want = 0
			}
			if m[i][j] != want {
				t.Fatalf("m[%d][%d] = %v, want %v", i, j, m[i][j], want)
			}
		}
	}
}

func TestGeoWANDelayMatrix(t *testing.T) {
	class := []time.Duration{MetroOneWay, RegionalOneWay, IntercontinentalOneWay}
	m := GeoWANDelay(class)
	for i := range m {
		if m[i][i] != 0 {
			t.Fatalf("diagonal m[%d][%d] = %v, want 0", i, i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetric: m[%d][%d]=%v m[%d][%d]=%v", i, j, m[i][j], j, i, m[j][i])
			}
		}
	}
	if m[0][1] != RegionalOneWay {
		t.Fatalf("metro-regional = %v, want the larger class %v", m[0][1], RegionalOneWay)
	}
	if m[0][2] != IntercontinentalOneWay || m[1][2] != IntercontinentalOneWay {
		t.Fatalf("pairs with the transoceanic DC must pay its span: got %v, %v", m[0][2], m[1][2])
	}
}
