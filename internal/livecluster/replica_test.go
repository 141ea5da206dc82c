package livecluster

import (
	"sync"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/kvstore"
)

// driveMixed pushes a seeded mixed workload (reads, writes, deletes,
// weak-consistency reads) through every node of the cluster and waits
// for every operation to complete.
func driveMixed(t *testing.T, c *Cluster, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	for n := 0; n < c.NumNodes(); n++ {
		cl := dialClient(t, c, n)
		defer cl.Close()
		wg.Add(1)
		go func(n int, cl *client.Client) {
			defer wg.Done()
			var inflight []*client.Future
			for i := 0; i < perClient; i++ {
				key := uint64((i*7 + n*13) % 64)
				var f *client.Future
				switch i % 5 {
				case 0, 1:
					f = cl.PutAsync(key, []byte{byte(n), byte(i), byte(i >> 8)})
				case 2:
					f = cl.DeleteAsync(key)
				case 3:
					f = cl.GetAsync(key)
				default:
					f = cl.GetAsync(key, client.WithConsistency(client.Stale))
				}
				inflight = append(inflight, f)
				if i%8 == 7 || i == perClient-1 { // keep a bounded pipeline
					for _, f := range inflight {
						if _, err := f.Wait(t.Context()); err != nil {
							t.Errorf("node %d op: %v", n, err)
						}
					}
					inflight = inflight[:0]
				}
			}
		}(n, cl)
	}
	wg.Wait()
}

// TestReplicaEquality is the live acceptance test for the commit path:
// a cluster whose apply stages run on their own goroutines serves a mixed
// workload from every node, and after a drain every replica holds an
// identical apply log and state.
func TestReplicaEquality(t *testing.T) {
	c, err := Start(Config{
		Nodes: 3,
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
		},
		Seed:         31,
		LoggedStores: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	driveMixed(t, c, 400)

	// Compare the replicas at one cycle. Each node's (cycle, digests) is a
	// consistent cut taken on its apply stage; the load has stopped, so the
	// cuts meet at one cycle once the last cycles in flight have landed
	// everywhere. (Comparing as soon as every node had applied the highest
	// cycle any had ordered — what this test did before — compares
	// different cycles whenever one node orders another cycle in between:
	// the divergence ROADMAP defect (4) saw 1 run in 30 under -race.)
	type cut struct {
		cycle, logLen, logDigest, stateDigest uint64
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cuts := make([]cut, c.NumNodes())
		for i := range cuts {
			node := c.Node(i)
			c.InspectStore(i, func(st *kvstore.Store) {
				cuts[i] = cut{node.Committed(), st.LogLen(), st.LogDigest(), st.StateDigest()}
			})
		}
		same := true
		for _, d := range cuts[1:] {
			same = same && d.cycle == cuts[0].cycle
		}
		if same {
			if cuts[0].logLen == 0 {
				t.Fatal("reference replica applied nothing")
			}
			for i, d := range cuts[1:] {
				if d != cuts[0] {
					t.Fatalf("replica %d diverged: %+v vs %+v", i+1, d, cuts[0])
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never met at one committed cycle: %+v", cuts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatermarks pins the ordered-vs-applied watermark contract under
// live load: Ordered() never trails Committed(), and a DrainApply
// converges them.
func TestWatermarks(t *testing.T) {
	c, err := Start(Config{
		Nodes: 3,
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
		},
		Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	stop := make(chan struct{})
	var violations int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < c.NumNodes(); i++ {
				n := c.Node(i)
				// Load order matters: a commit between the two loads can
				// only make Ordered read higher, never lower.
				applied := n.Committed()
				if n.Ordered() < applied {
					violations++
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	driveMixed(t, c, 1000) // fails the test on any failed op
	close(stop)
	wg.Wait()
	if violations != 0 {
		t.Fatalf("observed %d Ordered() < Committed() violations", violations)
	}
	for i := 0; i < c.NumNodes(); i++ {
		// DrainApply covers the cycles ordered before the call; a trailing
		// cycle may be ordered while it drains, so the bound is read first.
		o := c.Node(i).Ordered()
		c.Node(i).DrainApply()
		if a := c.Node(i).Committed(); a < o {
			t.Fatalf("node %d: applied %d trails ordered %d (read before the drain)", i, a, o)
		}
	}
}
