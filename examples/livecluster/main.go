// Livecluster: six real Canopus nodes over TCP on localhost — the same
// protocol engines the simulator drives, behind real sockets — driven
// through the public client package: typed sync/async operations,
// multi-op batches, read-consistency levels, and failover across the
// cluster's endpoints.
package main

import (
	"context"
	"fmt"
	"log"

	"canopus"
	"canopus/client"
)

func main() {
	// Two super-leaves of three on loopback TCP.
	cluster, err := canopus.StartLiveCluster(canopus.LiveOptions{
		SuperLeaves: [][]canopus.NodeID{{0, 1, 2}, {3, 4, 5}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// A client over every endpoint: it connects to the first and fails
	// over along the list if that node dies.
	endpoints := make([]string, cluster.NumNodes())
	for i := range endpoints {
		endpoints[i] = cluster.ClientAddr(i)
	}
	cl, err := client.New(client.Config{Endpoints: endpoints})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Synchronous: a committed write, then a linearizable read.
	if err := cl.Put(ctx, 7, []byte("live!")); err != nil {
		log.Fatal(err)
	}
	val, err := cl.Get(ctx, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearizable read: key 7 = %q\n", val)

	// Weaker consistency: served from the connected replica's committed
	// state without entering a consensus cycle. The result carries the
	// commit cycle that served it (the read timestamp).
	res, err := cl.Do(ctx, client.Op{Kind: client.OpGet, Key: 7, Consistency: client.Stale})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stale read: key 7 = %q (cycle %d)\n", res.Val, res.Cycle)

	// Asynchronous: pipeline writes, then collect the futures.
	futs := make([]*client.Future, 5)
	for i := range futs {
		futs[i] = cl.PutAsync(uint64(100+i), []byte(fmt.Sprintf("entry-%d", i)))
	}
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			log.Fatalf("async put %d: %v", i, err)
		}
	}
	fmt.Println("5 pipelined writes committed")

	// A multi-op batch, submitted to the serving node in one turn.
	results, err := cl.Batch(ctx, []client.Op{
		{Kind: client.OpGet, Key: 100},
		{Kind: client.OpDelete, Key: 101},
		{Kind: client.OpGet, Key: 101},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: key 100 = %q; key 101 after delete found=%v\n",
		results[0].Val, results[2].Found)

	fmt.Printf("session observed commit cycle %d across %d endpoints\n",
		cl.LastCycle(), len(endpoints))
}
