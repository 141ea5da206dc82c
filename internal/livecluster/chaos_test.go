package livecluster

// Fault injection over real sockets via the chaosnet proxy fabric
// (Config.Chaos). The eviction and stall storylines are the live
// campaigns of internal/harness (TestLiveChaosCampaigns), which run on
// this package's clusters and on canopus-server processes alike.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"canopus/admin"
	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/metrics"
	"canopus/internal/wire"
)

// TestAdminGatewayUnderPartition drives the fabric through its Go API beside a
// live admin gateway: a cross-leaf partition wedges a write (the cycle
// cannot fetch the remote leaf's state), heal releases it. The cut runs
// between super-leaves — intra-leaf cuts are crash-stop for the minority
// member, not a heal-recoverable fault. The in-process gateway's POST
// /chaos answers 403: its faults come from Cluster.Chaos, not HTTP.
func TestAdminGatewayUnderPartition(t *testing.T) {
	c, err := Start(Config{
		SuperLeaves: [][]wire.NodeID{{0, 1}, {2, 3}},
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
			FetchTimeout:  50 * time.Millisecond,
		},
		Seed:  7,
		Chaos: true,
		Admin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	ctx := context.Background()
	ac := admin.New(c.AdminAddr(0))
	if err := ac.Chaos(ctx, "heal"); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("in-process POST /chaos = %v, want 403", err)
	}

	// Blackholing the inter-leaf links wedges every cycle at the fetch
	// step until heal.
	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	c.Chaos().Partition([]wire.NodeID{0, 1}, []wire.NodeID{2, 3})
	f := cl.PutAsync(2, []byte("b"))
	select {
	case <-f.Done():
		t.Fatal("write committed across a partition isolating the submit node")
	case <-time.After(300 * time.Millisecond):
	}
	c.Chaos().Heal()
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

// TestConnectionResetMidLoad resets inter-node connections while writes
// are in flight: whatever a socket held at that moment is lost — appends
// with entries, their replies (both followers' links to the leader go at
// once, so an entry can lose every ack it needs), commit notices, which
// nobody answers. Every broadcast must still commit: a lost append is
// re-sent on the follower's rejection, a lost ack is re-requested by the
// next heartbeat, which is answered while the entry is uncommitted. No
// member may be declared failed, every write is acknowledged, and the
// replicas end in the same state.
func TestConnectionResetMidLoad(t *testing.T) {
	c, err := Start(Config{
		SuperLeaves:  [][]wire.NodeID{{0, 1, 2}},
		Node:         core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:         17,
		LoggedStores: true,
		Chaos:        true,
		Metrics:      metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := dialClient(t, c, 0)

	const writes = 600
	resets := make(chan struct{})
	go func() {
		defer close(resets)
		all := []wire.NodeID{0, 1, 2}
		for i := 0; i < 6; i++ {
			time.Sleep(15 * time.Millisecond)
			if i%2 == 0 {
				c.Chaos().PartitionDirected([]wire.NodeID{1, 2}, []wire.NodeID{0})
			} else {
				c.Chaos().Partition(all[:1], all[1:])
			}
			c.Chaos().Heal()
		}
	}()
	futures := make([]*client.Future, 0, writes)
	for k := uint64(0); k < writes; k++ {
		futures = append(futures, cl.PutAsync(k%64, []byte(fmt.Sprintf("v%d", k))))
		if k%8 == 7 {
			time.Sleep(time.Millisecond) // spread the load over the resets
		}
	}
	for k, f := range futures {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	<-resets
	var lost float64
	c.Registry().Each(func(name string, _ []metrics.Label, v float64) {
		if name == "canopus_transport_peer_resets_total" {
			lost += v
		}
	})
	if lost == 0 {
		t.Fatal("no connection was lost under load; test premise broken")
	}

	digest := func(i int) (uint64, uint64, uint64) {
		return digest(c.Node(i), c.Store(i))
	}
	converged := func() bool {
		cyc, ref, _ := digest(0)
		for i := 1; i < 3; i++ {
			if ci, st, _ := digest(i); ci != cyc || st != ref {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !converged(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge to one state digest")
		}
	}
	for i := 0; i < 3; i++ {
		var members int
		var stalled bool
		nd := c.Node(i)
		c.Runner(i).Invoke(func() { members, stalled = len(nd.View().Members(0)), nd.Stalled() })
		if members != 3 || stalled {
			t.Fatalf("node %d: %d members in view, stalled=%v; a reset must not look like a failure", i, members, stalled)
		}
	}
}
