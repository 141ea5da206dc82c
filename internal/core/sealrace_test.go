package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// holdState keeps one vnode state of one cycle from a node of the leaf
// under test until released, and hands the first copy to the test.
type holdState struct {
	*Node
	cycle   uint64
	vnode   string
	release *bool
	caught  func(p *wire.Proposal)
}

func (h *holdState) Recv(from wire.NodeID, m wire.Message) {
	if p, ok := m.(*wire.Proposal); ok && !*h.release && p.Cycle == h.cycle && p.VNode == h.vnode {
		h.caught(p)
		return
	}
	h.Node.Recv(from, m)
}

// TestSealRacingStateDecidesAlike: in one instant, one member of a leaf
// of three broadcasts the seal of branch u for cycle K (the start of an
// eviction round) and another re-broadcasts u's real state for K. Which
// of the two lands first decides whether u is sealed or filled, and
// every member must decide alike: they end with one decision and commit
// K with one order. Per-origin broadcast delivered the pair in different
// orders on different members, so one member filled the slot while
// another sealed it and waited for a resolution that never came.
func TestSealRacingStateDecidesAlike(t *testing.T) {
	const k = 6
	var released bool
	var state *wire.Proposal
	var tc *testCluster
	var u string
	wrap := func(n *Node) engine.Machine {
		u = n.tree.Ancestor(1, 1) // leaf 1's branch, as leaf 0 fetches it
		if n.tree.SuperLeafOf(n.cfg.Self) != 0 {
			return n
		}
		return &holdState{Node: n, cycle: k, vnode: u, release: &released, caught: func(p *wire.Proposal) {
			if state != nil {
				return
			}
			state = p
			tc.sim.After(20*time.Millisecond, func() {
				c1, c2 := tc.nodes[1].cycles[k], tc.nodes[2].cycles[k]
				if c1 == nil || c2 == nil || c1.child[u] != nil || c2.child[u] != nil {
					t.Errorf("cycle %d is not waiting for %s on nodes 1 and 2", k, u)
					return
				}
				released = true
				tc.nodes[1].driveEviction(c1, u, tc.sim.Now()) // the seal
				tc.nodes[2].onFetchResponse(state)             // the state
			})
		}}
	}
	tc = newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: evictionCfg(), wrap: wrap, trace: true})
	digests := map[wire.NodeID]uint64{}
	tc.onCommit = func(id wire.NodeID, c *Commit) {
		if c.Cycle != k || tc.tree.SuperLeafOf(id) != 0 {
			return
		}
		h := fnv.New64a()
		for _, b := range c.Order {
			fmt.Fprintf(h, "%d:%d:%d;", b.Origin, b.NumRead, b.NumWrite)
			for _, r := range b.Reqs {
				fmt.Fprintf(h, "%d.%d.%d,", r.Client, r.Seq, r.Key)
			}
		}
		digests[id] = h.Sum64()
	}
	for i := 0; i < 40; i++ {
		tc.submitAt(time.Duration(i+1)*time.Millisecond, wire.NodeID(i%9), wr(uint64(i%9+1), uint64(i/9+1), uint64(i), uint64(i)))
	}
	tc.run(3 * time.Second)
	if state == nil {
		t.Fatalf("no state of %s for cycle %d reached the leaf", u, k)
	}
	sealed := map[wire.NodeID]bool{}
	for _, e := range tc.trace.evs {
		if e.event == "seal" && e.cycle == k && e.detail == u {
			sealed[e.self] = true
		}
	}
	for _, id := range []wire.NodeID{1, 2} {
		if sealed[id] != sealed[0] {
			t.Errorf("node %d sealed %s in cycle %d: %v, node 0: %v", id, u, k, sealed[id], sealed[0])
		}
	}
	for _, id := range []wire.NodeID{0, 1, 2} {
		if _, ok := digests[id]; !ok {
			t.Fatalf("node %d never committed cycle %d (committed %d)", id, k, tc.nodes[id].Ordered())
		}
		if digests[id] != digests[0] {
			t.Fatalf("node %d committed cycle %d with another order than node 0", id, k)
		}
	}
}
