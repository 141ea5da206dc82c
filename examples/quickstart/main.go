// Quickstart: the paper's Figure 2 scenario — six nodes in two
// super-leaves reaching consensus in two rounds — on the in-process
// simulator (virtual time, deterministic, no sockets), driven from its
// event loop: At schedules work, Submit completes each operation with
// its own callback, RunUntil advances time.
package main

import (
	"fmt"
	"time"

	"canopus"
)

func main() {
	cluster := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	fmt.Printf("LOT height %d, %d super-leaves\n\n", cluster.Tree.Height, cluster.Tree.NumSuperLeaves())

	// Two clients at different nodes write concurrently; one then reads.
	// Submit completes each operation with its own callback when the
	// ordering cycle commits.
	cluster.At(time.Millisecond, func() {
		cluster.Submit(0, canopus.OpWrite, 42, []byte("from node 0"), func(_ []byte, ok bool) {
			fmt.Printf("node 0: write key 42 committed (ok=%v)\n", ok)
		})
		cluster.Submit(4, canopus.OpWrite, 43, []byte("from node 4"), func(_ []byte, ok bool) {
			fmt.Printf("node 4: write key 43 committed (ok=%v)\n", ok)
		})
	})
	// A read after the writes: linearizable without going on the wire.
	cluster.At(100*time.Millisecond, func() {
		cluster.Submit(0, canopus.OpRead, 43, nil, func(val []byte, ok bool) {
			fmt.Printf("node 0: read key 43 -> %q\n", val)
		})
	})
	cluster.RunUntil(time.Second)

	// Every replica holds both writes.
	for id := canopus.NodeID(0); int(id) < cluster.NumNodes(); id++ {
		v42 := cluster.StoreOf(id).Read(42)
		v43 := cluster.StoreOf(id).Read(43)
		fmt.Printf("node %v: 42=%q 43=%q (committed cycle %d)\n",
			id, v42, v43, cluster.Node(id).Committed())
	}
}
