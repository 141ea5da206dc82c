package livecluster

// Live chaos-plane tests: fault injection over real sockets via the
// chaosnet proxy fabric (Config.Chaos). These are the live-mode ports of
// the simulator's eviction and stall scenarios — same protocol paths,
// wall clocks and TCP resets instead of the virtual clock.

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

// chaosEvictionCfg arms leaf eviction with timings suited to loopback
// TCP: LeafTimeout well above proxy round-trips, cycles fast enough to
// drive evictions promptly.
func chaosEvictionCfg() core.Config {
	return core.Config{
		CycleInterval: 2 * time.Millisecond,
		TickInterval:  2 * time.Millisecond,
		FetchTimeout:  50 * time.Millisecond,
		LeafTimeout:   250 * time.Millisecond,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestChaosLeafEvictionAndReadmission is the live port of the sim's
// partition→evict→heal→readmit scenario: a whole super-leaf is
// blackholed at the socket layer, the surviving leaf majority evicts it
// within the LeafTimeout budget, and after heal + RestartNode the
// evicted members rejoin through the join protocol and converge to the
// survivors' state digest.
func TestChaosLeafEvictionAndReadmission(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live chaos scenario")
	}
	evicted := make(chan int, 8)
	cfg := Config{
		SuperLeaves:  [][]wire.NodeID{{0, 1}, {2, 3}, {4, 5}},
		Node:         chaosEvictionCfg(),
		Seed:         11,
		LoggedStores: true,
		Chaos:        true,
		OnEvicted:    func(i int) { evicted <- i },
	}
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	if c.Chaos() == nil {
		t.Fatal("Chaos() = nil with Config.Chaos set")
	}

	ctx := context.Background()
	cl := dialClient(t, c, 0)
	for k := uint64(1); k <= 6; k++ {
		if err := cl.Put(ctx, k, []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}

	// Blackhole leaf 2 (nodes 4,5) away from the rest. The survivors'
	// fetches into the leaf now time out; with LeafTimeout armed the
	// majority of leaves evicts it and consensus resumes.
	c.Chaos().Partition([]wire.NodeID{0, 1, 2, 3}, []wire.NodeID{4, 5})
	start := time.Now()
	// Wedge one write inside the doomed leaf through its (unproxied)
	// client port: the cycle it starts keeps retrying cross-leaf fetches,
	// and the first retry to land after heal draws the dead-in-view
	// Evicted notice — how a partitioned member learns its fate (§6).
	// The writes themselves die with the eviction; ignore their futures.
	_ = dialClient(t, c, 4).PutAsync(200, []byte("doomed"))
	_ = dialClient(t, c, 5).PutAsync(201, []byte("doomed"))
	post := make([]chan error, 0, 5)
	for k := uint64(100); k < 105; k++ {
		f := cl.PutAsync(k, []byte("post"))
		ch := make(chan error, 1)
		go func() { _, err := f.Wait(ctx); ch <- err }()
		post = append(post, ch)
	}
	// LeafHealth reads the committed view — a machine-turn structure, so
	// go through the runner's serialization lock.
	leafHealth := func(i int) []core.LeafHealth {
		var lh []core.LeafHealth
		nd := c.Node(i)
		c.Runner(i).Invoke(func() { lh = nd.LeafHealth() })
		return lh
	}
	waitFor(t, 10*time.Second, "leaf 2 eviction at node 0", func() bool {
		lh := leafHealth(0)
		return len(lh) == 3 && lh[2].Evicted
	})
	if d := time.Since(start); d > 4*cfg.Node.LeafTimeout {
		t.Errorf("eviction took %v, want <= 4*LeafTimeout (%v)", d, 4*cfg.Node.LeafTimeout)
	}
	for i, ch := range post {
		if err := <-ch; err != nil {
			t.Fatalf("post-partition put %d: %v", i, err)
		}
	}

	// Heal, let the Evicted notices reach nodes 4 and 5, and restart each
	// in place as a joiner (the operator response OnEvicted asks for).
	c.Chaos().Heal()
	restarted := map[int]bool{}
	for len(restarted) < 2 {
		select {
		case i := <-evicted:
			if restarted[i] {
				continue
			}
			restarted[i] = true
			if err := c.RestartNode(i); err != nil {
				t.Fatal(err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("evicted notices reached only %d of 2 nodes", len(restarted))
		}
	}
	if !restarted[4] || !restarted[5] {
		t.Fatalf("unexpected eviction set: %v", restarted)
	}

	// Readmission: the survivors re-admit the leaf, and the joiners
	// converge to the exact survivor state digest.
	waitFor(t, 15*time.Second, "leaf 2 readmission at node 0", func() bool {
		lh := leafHealth(0)
		return len(lh) == 3 && !lh[2].Evicted && !lh[2].Failed
	})
	digest := func(i int) (uint64, uint64, uint64) {
		return digest(c.Node(i), c.Store(i))
	}
	waitFor(t, 15*time.Second, "state-digest convergence across all 6 nodes", func() bool {
		_, ref, _ := digest(0)
		for i := 1; i < 6; i++ {
			if _, st, _ := digest(i); st != ref {
				return false
			}
		}
		return true
	})

	// The rejoined node serves reads of pre- and post-partition writes.
	cl2 := dialClient(t, c, 4)
	if v, err := cl2.Get(ctx, 104); err != nil || string(v) != "post" {
		t.Fatalf("Get(104) via rejoined node = %q, %v", v, err)
	}
}

// TestChaosStallDetectionHealthz: an asymmetric partition (stock config,
// no eviction) wedges the cluster; a node with StallThreshold armed
// notices the missing commit progress and degrades its /healthz to 503
// "degraded: stalled", then recovers to ok after heal.
func TestChaosStallDetectionHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live chaos scenario")
	}
	threshold := 200 * time.Millisecond
	c, err := Start(Config{
		SuperLeaves: [][]wire.NodeID{{0, 1}, {2}},
		Node: core.Config{
			CycleInterval:  2 * time.Millisecond,
			TickInterval:   2 * time.Millisecond,
			FetchTimeout:   50 * time.Millisecond,
			StallThreshold: threshold,
		},
		Seed:  13,
		Chaos: true,
		Admin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	ctx := context.Background()
	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}

	ac := admin.New(c.AdminAddr(2))
	if h, err := ac.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("pre-fault health = %+v, %v", h, err)
	}

	// Cut node 2's leaf off, then hand it a write through its (unproxied)
	// client port: the node starts a cycle it cannot commit — its fetch
	// of the majority leaf's state falls into the blackhole — and the
	// armed detector flags the wedge once StallThreshold passes.
	c.Chaos().Isolate(2)
	f := cl.PutAsync(2, []byte("b"))
	cl2 := dialClient(t, c, 2)
	f2 := cl2.PutAsync(3, []byte("c"))
	waitFor(t, 10*threshold+5*time.Second, "node 2 /healthz degraded", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "degraded: stalled"
	})
	if s, err := ac.Status(ctx); err != nil || s.Degraded != "stalled" {
		t.Fatalf("/status degraded = %+v, %v", s, err)
	}

	c.Chaos().Heal()
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("write across heal: %v", err)
	}
	if _, err := f2.Wait(ctx); err != nil {
		t.Fatalf("minority write across heal: %v", err)
	}
	waitFor(t, 10*time.Second, "node 2 /healthz recovery", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "ok"
	})
	if s, err := ac.Status(ctx); err != nil || s.Degraded != "" {
		t.Fatalf("post-heal /status degraded = %+v, %v", s, err)
	}
}

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
	waitFor(t, 10*time.Second, "state-digest convergence", func() bool {
		cyc, ref, _ := digest(0)
		for i := 1; i < 3; i++ {
			if ci, st, _ := digest(i); ci != cyc || st != ref {
				return false
			}
		}
		return true
	})
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
