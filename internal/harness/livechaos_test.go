package harness

import (
	"context"
	"fmt"
	"regexp"
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/livecluster"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// inProcess is the in-process Deployment: a livecluster with the chaos
// fabric and admin gateways on, OnEvicted relayed into a channel and
// Rejoin as RestartNode.
type inProcess struct {
	*livecluster.Cluster
	evicted chan int
}

func (p *inProcess) Evicted() <-chan int { return p.evicted }
func (p *inProcess) Rejoin(i int) error  { return p.RestartNode(i) }

func startInProcess(t *testing.T, superLeaves [][]wire.NodeID, node core.Config, seed int64) *inProcess {
	t.Helper()
	// Evicted notices arrive on the machine turn; the non-blocking relay
	// keeps the callback from ever stalling a node, and the buffer holds
	// the repeated notices every node of a cut leaf can draw.
	p := &inProcess{evicted: make(chan int, 64)}
	c, err := livecluster.Start(livecluster.Config{
		SuperLeaves: superLeaves,
		Node:        node,
		Seed:        seed,
		Chaos:       true,
		Admin:       true,
		OnEvicted: func(i int) {
			select {
			case p.evicted <- i:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(10 * time.Second) })
	p.Cluster = c
	return p
}

// lanNode is the loopback timing every LAN campaign runs: LeafTimeout
// well above proxy round trips, cycles fast enough to drive evictions
// promptly.
var lanNode = core.Config{
	CycleInterval: 2 * time.Millisecond,
	TickInterval:  2 * time.Millisecond,
	FetchTimeout:  50 * time.Millisecond,
}

// TestLiveChaosCampaigns runs the live campaigns on in-process clusters
// — real sockets, real clocks, the chaosnet fabric in the loop:
//
//   - leaf-partition-evict-readmit: three two-node super-leaves, leaf 2
//     blackholed, evicted within 4×LeafTimeout and readmitted.
//   - geo-wan-evict-readmit: the same campaign across five emulated
//     datacenters at the netsim WAN latency classes divided by ten
//     (GeoWANDelay injected per directed link), the farthest DC cut. The
//     classes keep their 150:1 spread; the timeouts shrink less than the
//     latencies, because scheduler jitter, GC and the proxy hop do not
//     shrink with them, and a LeafTimeout too close to a stalled cycle's
//     resolution time evicts a healthy-but-slow leaf.
//   - asymmetric-partition-stall: node 2, alone in its leaf with
//     StallThreshold armed, hears nothing from the majority.
//
// What canopus-server processes cannot run (cmd/chaos-smoke): the geo
// campaign needs FetchTimeout and CycleInterval values the server has
// no flag for.
func TestLiveChaosCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live chaos campaigns")
	}
	const wait = 30 * time.Second
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (string, error)
	}{
		{"leaf-partition-evict-readmit", func(t *testing.T) (string, error) {
			node := lanNode
			node.LeafTimeout = 250 * time.Millisecond
			p := startInProcess(t, [][]wire.NodeID{{0, 1}, {2, 3}, {4, 5}}, node, 22)
			return EvictReadmit(p, Eviction{
				LeafTimeout: node.LeafTimeout,
				Victims:     []wire.NodeID{4, 5},
				Survivors:   []wire.NodeID{0, 1, 2, 3},
				Wait:        wait,
			})
		}},
		{"geo-wan-evict-readmit", func(t *testing.T) (string, error) {
			node := core.Config{
				CycleInterval: 5 * time.Millisecond,
				TickInterval:  5 * time.Millisecond,
				FetchTimeout:  100 * time.Millisecond,
				LeafTimeout:   600 * time.Millisecond,
			}
			sls := [][]wire.NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
			p := startInProcess(t, sls, node, 23)
			classes := []time.Duration{
				netsim.MetroOneWay / 10,
				netsim.MetroOneWay / 10,
				netsim.RegionalOneWay / 10,
				netsim.ContinentalOneWay / 10,
				netsim.IntercontinentalOneWay / 10,
			}
			p.Chaos().ApplyDelayMatrix(func(id wire.NodeID) int { return int(id) / 2 }, netsim.GeoWANDelay(classes))
			return EvictReadmit(p, Eviction{
				LeafTimeout: node.LeafTimeout,
				Victims:     []wire.NodeID{8, 9},
				Survivors:   []wire.NodeID{0, 1, 2, 3, 4, 5, 6, 7},
				Wait:        wait,
			})
		}},
		{"asymmetric-partition-stall", func(t *testing.T) (string, error) {
			node := lanNode
			node.StallThreshold = 200 * time.Millisecond
			p := startInProcess(t, [][]wire.NodeID{{0, 1}, {2}}, node, 24)
			return StallDetect(p, Stall{
				Threshold: node.StallThreshold,
				Majority:  []wire.NodeID{0, 1},
				Wedged:    2,
				Wait:      wait,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			line, err := tc.run(t)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(line)
		})
	}
}

// TestLiveTimeoutQuotesStatus: a wait that runs out says where every
// node stood, from its /status.
func TestLiveTimeoutQuotesStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	p := startInProcess(t, [][]wire.NodeID{{0, 1, 2}}, lanNode, 25)
	cl, err := Dial(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(context.Background(), 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err = Await(p, 200*time.Millisecond, "a condition that never holds", func() bool { return false })
	if err == nil {
		t.Fatal("Await returned nil for a condition that never holds")
	}
	msg := err.Error()
	for i := 0; i < 3; i++ {
		line := regexp.MustCompile(fmt.Sprintf(`node %d: ok, started/ordered/applied \d+/\d+/[1-9]\d*, `, i))
		if !line.MatchString(msg) {
			t.Errorf("timeout error does not quote node %d's /status:\n%s", i, msg)
		}
	}
	t.Log(msg)
}
