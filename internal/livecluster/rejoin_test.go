package livecluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// rejoinConfig is a three-node super-leaf with the chaos fabric and the
// admin gateways on, at a tick whose failAfter (100 ticks) is 200 ms.
func rejoinConfig() Config {
	return Config{
		Nodes: 3,
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
			FetchTimeout:  50 * time.Millisecond,
		},
		Seed:  41,
		Chaos: true,
		Admin: true,
	}
}

// cutMember partitions victim from every other node for one second, past
// failAfter, while writes go on through node 0, and heals. Its leaf-mates
// cut it; nothing but the replica itself may bring it back. It returns
// once the victim rejoined in place and every node holds one state
// digest.
func cutMember(t *testing.T, c *Cluster, victim int) {
	t.Helper()
	ctx := context.Background()
	var others []wire.NodeID
	for i := 0; i < c.NumNodes(); i++ {
		if i != victim {
			others = append(others, wire.NodeID(i))
		}
	}
	cut := c.Node(victim)
	cl := dialClient(t, c, 0)
	c.Chaos().Partition([]wire.NodeID{wire.NodeID(victim)}, others)
	for k, end := uint64(0), time.Now().Add(time.Second); time.Now().Before(end); k++ {
		if err := cl.Put(ctx, k, []byte("cut")); err != nil {
			t.Fatalf("put during the cut: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.Chaos().Heal()
	waitFor(t, 30*time.Second, fmt.Sprintf("node %d to rejoin", victim), func() bool {
		return c.Node(victim) != cut
	})
	waitFor(t, 30*time.Second, "one state digest on every node", func() bool {
		ref, err := admin.New(c.AdminAddr(0)).Digest(ctx)
		if err != nil {
			return false
		}
		for i := 1; i < c.NumNodes(); i++ {
			if d, err := admin.New(c.AdminAddr(i)).Digest(ctx); err != nil || d.State != ref.State {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond every 10 ms and fails the test if it does not hold
// within budget.
func waitFor(t *testing.T, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(budget); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", budget, what)
		}
	}
}

// TestRejoinedMetricsFollowStatus: after a member rejoins in place, the
// core series /metrics serves for it are the joiner's, not the frozen
// instruments of the node it replaced. Read between two /status reads,
// the scraped applied watermark lies between theirs.
func TestRejoinedMetricsFollowStatus(t *testing.T) {
	c, err := Start(rejoinConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	const victim = 2
	cut := c.Node(victim)
	cutMember(t, c, victim)

	ctx := context.Background()
	cl := dialClient(t, c, 0)
	for k := uint64(0); k < 50; k++ {
		if err := cl.Put(ctx, 1000+k, []byte("after")); err != nil {
			t.Fatalf("put after the rejoin: %v", err)
		}
	}
	gw := admin.New(c.AdminAddr(victim))
	lo, err := gw.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	series, err := gw.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := gw.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf(`canopus_core_cycle_applied{node="%d"}`, victim)
	applied, ok := series[key]
	if !ok {
		t.Fatalf("/metrics has no %s", key)
	}
	if old := cut.Committed(); lo.Applied <= old {
		t.Fatalf("/status applied %d has not passed the replaced node's %d; test premise broken", lo.Applied, old)
	}
	if applied < float64(lo.Applied) || applied > float64(hi.Applied) {
		t.Fatalf("/metrics applied %v, /status applied %d before and %d after the scrape", applied, lo.Applied, hi.Applied)
	}
}

// TestDurableReplicaRejoinsWithoutItsDisk: a member of a durable
// deployment that its leaf-mates cut rejoins by itself, without its
// disk, as Boot's joiners do. Every node reaches one digest, and the
// rejoined member's /status has no durability section.
func TestDurableReplicaRejoinsWithoutItsDisk(t *testing.T) {
	cfg := rejoinConfig()
	disks := []*wal.MemFS{wal.NewMemFS(), wal.NewMemFS(), wal.NewMemFS()}
	cfg.DataFS = func(i int) wal.FS { return disks[i] }
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	const victim = 1
	cutMember(t, c, victim)

	ctx := context.Background()
	for i := 0; i < c.NumNodes(); i++ {
		s, err := admin.New(c.AdminAddr(i)).Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Durability != nil; got != (i != victim) {
			t.Errorf("node %d: /status durability section present = %v, want %v", i, got, i != victim)
		}
	}
	if c.Durability(victim) != nil {
		t.Error("the rejoined member still holds its WAL")
	}
}
