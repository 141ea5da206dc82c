// Coordination: the classic lock-service workload built on
// canopus/recipes — distributed mutexes, counters, leader election and
// barriers assembled from the event plane's primitives (guarded
// transactions, ordered watches, replicated sessions). The cluster here
// is six live nodes on loopback TCP, and every participant is a
// canopus/client.Client: the same code drives canopus-server processes.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"canopus"
	"canopus/client"
	"canopus/recipes"
)

func main() {
	cluster, err := canopus.StartLiveCluster(canopus.LiveOptions{
		SuperLeaves: [][]canopus.NodeID{{0, 1, 2}, {3, 4, 5}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Each participant is a client of its own node, with its own
	// replicated session: the identity that holds a lock or a post.
	var clients []*client.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	at := func(node int) *client.Client {
		cl, err := client.New(client.Config{Endpoints: []string{cluster.ClientAddr(node)}})
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, cl)
		return cl
	}

	const (
		lockKey    = 1 // the mutex everyone contends on
		counterKey = 2 // bumped only inside the critical section
		leaderKey  = 3 // the election post
		doneKey    = 4 // the finishing barrier
	)
	nodes := []int{0, 2, 4}

	// Mutual exclusion: each contender takes the lock, bumps a
	// replicated counter in its critical section, and releases. The
	// guarded CAS admits one holder per vacancy, so no increment is
	// ever lost.
	var wg sync.WaitGroup
	for _, node := range nodes {
		cl := at(node)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := recipes.NewMutex(cl, lockKey)
			if err := m.Lock(ctx); err != nil {
				panic(err)
			}
			turn, err := recipes.NewCounter(cl, counterKey).Add(ctx, 1)
			if err != nil {
				panic(err)
			}
			fmt.Printf("node %d took the lock (turn %d)\n", node, turn)
			if err := m.Unlock(ctx); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	total, err := recipes.NewCounter(at(5), counterKey).Value(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("critical-section turns: %d (must be %d)\n", total, len(nodes))

	// Leader election: alice wins the vacant post, bob campaigns and
	// blocks, and alice's resignation hands over. A crashed leader hands
	// over the same way — its ephemeral claim dies with its session.
	alice := recipes.NewElection(at(0), leaderKey, []byte("alice"))
	bob := recipes.NewElection(at(3), leaderKey, []byte("bob"))
	if err := alice.Campaign(ctx); err != nil {
		panic(err)
	}
	fmt.Println("alice leads")
	elected := make(chan error, 1)
	go func() { elected <- bob.Campaign(ctx) }()
	if err := alice.Resign(ctx); err != nil {
		panic(err)
	}
	if err := <-elected; err != nil {
		panic(err)
	}
	fmt.Println("alice resigned; bob leads")

	// Barrier: three parties rendezvous; nobody proceeds until the last
	// one arrives.
	done := make(chan struct{})
	for i, node := range nodes {
		bar := recipes.NewBarrier(at(node), doneKey, len(nodes))
		delay := time.Duration(i) * 10 * time.Millisecond
		go func() {
			time.Sleep(delay)
			if err := bar.Arrive(ctx); err != nil {
				panic(err)
			}
			done <- struct{}{}
		}()
	}
	for range nodes {
		<-done
	}
	fmt.Println("all parties passed the barrier")
}
