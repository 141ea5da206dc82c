package harness

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"canopus/admin"
	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/livecluster"
	"canopus/internal/metrics"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// LiveChaos runs the live chaos campaign catalog: the simulator
// scenarios' fault families re-enacted on a real loopback cluster, with
// faults injected at the socket layer by the chaosnet per-link proxy
// fabric instead of the virtual clock. Where the sim catalog proves the
// protocol logic, these campaigns prove the deployment surface around
// it — transport redial and peer-state tracking, the admin gateway's
// liveness reporting, in-place node restart, and the operator loop of
// evict → bounce → readmit — all under wall-clock timeouts.
//
//   - leaf-partition-evict-readmit: a whole super-leaf is blackholed;
//     the surviving leaf majority evicts it within the 4×LeafTimeout
//     budget and keeps committing; after the heal the evicted members
//     learn their fate, restart in place as joiners, and the cluster
//     converges to one state digest.
//   - geo-wan-evict-readmit: the same campaign across five emulated
//     datacenters at mixed WAN latency classes (metro to transoceanic,
//     injected per directed link from the netsim GeoWANDelay matrix),
//     so the eviction and readmission budgets ride real geo round
//     trips over real sockets.
//   - asymmetric-partition-stall: one node's inbound links are cut
//     while its outbound links flow — the half-open failure only a
//     per-directed-link fabric can produce. The node wedges, its armed
//     stall detector degrades /healthz within the threshold, and the
//     heal restores both the wedged write and the health report.
//
// Every campaign fails the process (exit 1) on a violated budget or
// assertion, making `canopus-bench -exp live-chaos` a CI gate; -quick
// shrinks the WAN classes so the geo campaign fits smoke timescales.
func LiveChaos(o *Options) {
	type liveScenario struct {
		name string
		run  func(o *Options) (string, error)
	}
	scenarios := []liveScenario{
		{"leaf-partition-evict-readmit", liveLeafEvictReadmit},
		{"geo-wan-evict-readmit", liveGeoWANEvictReadmit},
		{"asymmetric-partition-stall", liveAsymmetricStall},
	}
	tbl := &metrics.Table{Header: []string{"scenario", "outcome"}}
	for _, s := range scenarios {
		start := time.Now()
		line, err := s.run(o)
		if err != nil {
			fail("live-chaos: %s: %v", s.name, err)
		}
		tbl.Add(s.name, fmt.Sprintf("%s (%v)", line, time.Since(start).Round(10*time.Millisecond)))
	}
	fmt.Fprint(o.Out, tbl.String())
	fmt.Fprintln(o.Out, "live-chaos: all campaigns within budget")
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// waitLive polls cond at wall-clock granularity until it holds or the
// budget runs out.
func waitLive(budget time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", budget, what)
}

func liveDial(c *livecluster.Cluster, node int) (*client.Client, error) {
	return client.New(client.Config{Endpoints: []string{c.ClientAddr(node)}})
}

// evictCampaign parameterizes one partition→evict→heal→readmit run.
type evictCampaign struct {
	superLeaves [][]wire.NodeID
	node        core.Config
	victims     []wire.NodeID // the super-leaf to blackhole
	survivors   []wire.NodeID
	// delayClass, when set, is each super-leaf's WAN latency class: the
	// fabric injects the GeoWANDelay matrix before any load runs.
	delayClass []time.Duration
	seed       int64
}

// runEvictCampaign executes the shared eviction storyline and returns a
// one-line outcome summary.
func runEvictCampaign(o *Options, camp evictCampaign) (string, error) {
	// Evicted notices arrive on the machine turn; the buffered,
	// non-blocking relay keeps the callback from ever stalling a node.
	evicted := make(chan int, 64)
	c, err := livecluster.Start(livecluster.Config{
		SuperLeaves: camp.superLeaves,
		Node:        camp.node,
		Seed:        camp.seed,
		Chaos:       true,
		Admin:       true,
		Metrics:     metrics.NewRegistry(),
		OnEvicted: func(i int) {
			select {
			case evicted <- i:
			default:
			}
		},
	})
	if err != nil {
		return "", err
	}
	defer c.Stop(10 * time.Second)

	if camp.delayClass != nil {
		leafOf := make(map[wire.NodeID]int)
		for li, sl := range camp.superLeaves {
			for _, id := range sl {
				leafOf[id] = li
			}
		}
		c.Chaos().ApplyDelayMatrix(
			func(id wire.NodeID) int { return leafOf[id] },
			netsim.GeoWANDelay(camp.delayClass),
		)
	}

	ctx := context.Background()
	cl, err := liveDial(c, int(camp.survivors[0]))
	if err != nil {
		return "", err
	}
	defer cl.Close()
	for k := uint64(1); k <= 6; k++ {
		if err := cl.Put(ctx, k, []byte("pre")); err != nil {
			return "", fmt.Errorf("pre-partition put %d: %w", k, err)
		}
	}

	// Blackhole the victim leaf and immediately wedge one write inside
	// it through each member's (unproxied) client port: the cycles those
	// writes start keep retrying cross-leaf fetches, and the first retry
	// to land after the heal draws the dead-in-view Evicted notice — the
	// only way a partitioned member learns its fate (§6). The writes
	// themselves die with the eviction.
	c.Chaos().Partition(camp.survivors, camp.victims)
	cut := time.Now()
	for vi, v := range camp.victims {
		vcl, err := liveDial(c, int(v))
		if err != nil {
			return "", err
		}
		defer vcl.Close()
		_ = vcl.PutAsync(200+uint64(vi), []byte("doomed"))
	}
	post := make([]*client.Future, 0, 5)
	for k := uint64(100); k < 105; k++ {
		post = append(post, cl.PutAsync(k, []byte("post")))
	}

	// Eviction: the survivors' counters move once the leaf's slots
	// resolve to tombstones (atomic reads — safe off the machine turn).
	evictBudget := 4 * camp.node.LeafTimeout
	ref := int(camp.survivors[0])
	if err := waitLive(evictBudget+10*time.Second, "leaf eviction at the survivors", func() bool {
		return c.Node(ref).LeafEvictions() >= 1
	}); err != nil {
		return "", err
	}
	evictIn := time.Since(cut)
	if evictIn > evictBudget {
		return "", fmt.Errorf("eviction took %v, budget 4*LeafTimeout = %v", evictIn, evictBudget)
	}
	for i, f := range post {
		if _, err := f.Wait(ctx); err != nil {
			return "", fmt.Errorf("post-partition put %d: %w", i, err)
		}
	}

	// Heal; the wedged members' fetch retries now reach the survivors,
	// draw Evicted notices, and the operator hook bounces each back in
	// as an in-place joiner. The drain restarts ANY evicted node for the
	// rest of the campaign — under real wall clocks a healthy-but-slow
	// leaf can occasionally lose the eviction race too, and the operator
	// answer is the same bounce — but the cut leaf's members must be
	// among them.
	c.Chaos().Heal()
	healed := time.Now()
	var mu sync.Mutex
	restarted := map[int]bool{}
	var restartErr error
	drainDone := make(chan struct{})
	defer close(drainDone)
	go func() {
		for {
			select {
			case i := <-evicted:
				mu.Lock()
				if !restarted[i] && restartErr == nil {
					restarted[i] = true
					if err := c.RestartNode(i); err != nil {
						restartErr = fmt.Errorf("restart node %d: %w", i, err)
					}
				}
				mu.Unlock()
			case <-drainDone:
				return
			}
		}
	}()
	if err := waitLive(30*time.Second, "the cut leaf's members to learn their eviction", func() bool {
		mu.Lock()
		defer mu.Unlock()
		if restartErr != nil {
			return true
		}
		for _, v := range camp.victims {
			if !restarted[int(v)] {
				return false
			}
		}
		return true
	}); err != nil {
		return "", err
	}
	mu.Lock()
	err = restartErr
	extra := len(restarted) - len(camp.victims)
	mu.Unlock()
	if err != nil {
		return "", err
	}

	// Readmission and convergence, observed through the public admin
	// surface: every node's digest endpoint — including the restarted
	// joiners' — must agree on one non-zero state digest.
	if err := waitLive(30*time.Second, "leaf readmission at the survivors", func() bool {
		return c.Node(ref).LeafReadmissions() >= 1
	}); err != nil {
		return "", err
	}
	var state uint64
	if err := waitLive(30*time.Second, "state-digest convergence", func() bool {
		d, err := admin.New(c.AdminAddr(ref)).Digest(ctx)
		if err != nil || d.State == 0 {
			return false
		}
		for i := 0; i < c.NumNodes(); i++ {
			di, err := admin.New(c.AdminAddr(i)).Digest(ctx)
			if err != nil || di.State != d.State {
				return false
			}
		}
		state = d.State
		return true
	}); err != nil {
		return "", err
	}
	readmitIn := time.Since(healed)

	// The rejoined member serves a post-partition write.
	vcl, err := liveDial(c, int(camp.victims[0]))
	if err != nil {
		return "", err
	}
	defer vcl.Close()
	if v, err := vcl.Get(ctx, 104); err != nil || string(v) != "post" {
		return "", fmt.Errorf("Get(104) via rejoined node = %q, %v", v, err)
	}
	line := fmt.Sprintf("evicted in %v, readmitted in %v, digest %016x on all %d nodes",
		evictIn.Round(time.Millisecond), readmitIn.Round(time.Millisecond), state, c.NumNodes())
	if extra > 0 {
		line += fmt.Sprintf(" (+%d bystander evictions bounced)", extra)
	}
	return line, nil
}

// liveLeafEvictReadmit is the LAN-scale eviction campaign: three
// two-node super-leaves on loopback, leaf 2 blackholed.
func liveLeafEvictReadmit(o *Options) (string, error) {
	return runEvictCampaign(o, evictCampaign{
		superLeaves: [][]wire.NodeID{{0, 1}, {2, 3}, {4, 5}},
		node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
			FetchTimeout:  50 * time.Millisecond,
			LeafTimeout:   250 * time.Millisecond,
		},
		victims:   []wire.NodeID{4, 5},
		survivors: []wire.NodeID{0, 1, 2, 3},
		seed:      o.Seed + 21,
	})
}

// liveGeoWANEvictReadmit is the geo-scale campaign: five two-node
// super-leaves standing in for five datacenters spanning the WAN
// latency classes, the transoceanic DC blackholed. Timeout budgets
// scale with the worst one-way delay exactly as in the simulator's geo
// scenario: LeafTimeout must sit well above a pipelined cycle's few WAN
// round trips, FetchTimeout above the worst RTT. Quick mode divides the
// classes by ten so the campaign fits CI smoke timescales while keeping
// the same 150:1 spread between the nearest and farthest DC — but the
// timeout budgets shrink less than the latencies: wall-clock noise
// (scheduler jitter, GC, the proxy hop itself) does not shrink with
// them, and a LeafTimeout too close to a stalled cycle's resolution
// time can evict a healthy-but-slow leaf.
func liveGeoWANEvictReadmit(o *Options) (string, error) {
	node := core.Config{
		CycleInterval: 20 * time.Millisecond,
		TickInterval:  5 * time.Millisecond,
		FetchTimeout:  600 * time.Millisecond,
		LeafTimeout:   2 * time.Second,
	}
	div := time.Duration(1)
	if o.Quick {
		div = 10
		node.CycleInterval = 5 * time.Millisecond
		node.FetchTimeout = 100 * time.Millisecond
		node.LeafTimeout = 600 * time.Millisecond
	}
	classes := []time.Duration{
		netsim.MetroOneWay / div,
		netsim.MetroOneWay / div,
		netsim.RegionalOneWay / div,
		netsim.ContinentalOneWay / div,
		netsim.IntercontinentalOneWay / div,
	}
	return runEvictCampaign(o, evictCampaign{
		superLeaves: [][]wire.NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}},
		node:        node,
		victims:     []wire.NodeID{8, 9},
		survivors:   []wire.NodeID{0, 1, 2, 3, 4, 5, 6, 7},
		delayClass:  classes,
		seed:        o.Seed + 22,
	})
}

// liveAsymmetricStall cuts only the inbound direction of a minority
// node's links: its traffic still reaches the majority, but every fetch
// reply falls into the blackhole. The wedged node's armed stall
// detector must flip its /healthz to "degraded: stalled" within the
// threshold (plus detector granularity), and the heal must release both
// the wedged write and the health report — no restart anywhere.
func liveAsymmetricStall(o *Options) (string, error) {
	threshold := 200 * time.Millisecond
	c, err := livecluster.Start(livecluster.Config{
		SuperLeaves: [][]wire.NodeID{{0, 1}, {2}},
		Node: core.Config{
			CycleInterval:  2 * time.Millisecond,
			TickInterval:   2 * time.Millisecond,
			FetchTimeout:   50 * time.Millisecond,
			StallThreshold: threshold,
		},
		Seed:  o.Seed + 23,
		Chaos: true,
		Admin: true,
	})
	if err != nil {
		return "", err
	}
	defer c.Stop(10 * time.Second)

	ctx := context.Background()
	cl, err := liveDial(c, 0)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		return "", err
	}

	ac := admin.New(c.AdminAddr(2))
	if h, err := ac.Health(ctx); err != nil || h.Status != "ok" {
		return "", fmt.Errorf("pre-fault health = %+v, %v", h, err)
	}

	// Cut only majority→minority: node 2 keeps sending (so nothing
	// looks crashed from the outside) but hears no replies. A write
	// through its unproxied client port starts the cycle it can never
	// commit — the detector needs local evidence of wedged progress.
	c.Chaos().PartitionDirected([]wire.NodeID{0, 1}, []wire.NodeID{2})
	cut := time.Now()
	cl2, err := liveDial(c, 2)
	if err != nil {
		return "", err
	}
	defer cl2.Close()
	f := cl2.PutAsync(2, []byte("b"))
	if err := waitLive(10*threshold+5*time.Second, "node 2 /healthz degraded", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "degraded: stalled"
	}); err != nil {
		return "", err
	}
	detectIn := time.Since(cut)
	if s, err := ac.Status(ctx); err != nil || s.Degraded != "stalled" {
		return "", fmt.Errorf("degraded /status = %+v, %v", s, err)
	}

	c.Chaos().Heal()
	if _, err := f.Wait(ctx); err != nil {
		return "", fmt.Errorf("wedged write across heal: %w", err)
	}
	if err := waitLive(10*time.Second, "node 2 /healthz recovery", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "ok"
	}); err != nil {
		return "", err
	}
	return fmt.Sprintf("stall detected in %v (threshold %v), recovered after heal",
		detectIn.Round(time.Millisecond), threshold), nil
}
