package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/livecluster"
	"canopus/internal/metrics"
	"canopus/internal/netsim"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// deployment is one booted cluster with the benchmark's client
// connections attached and every key preloaded.
type deployment struct {
	w       *workload
	seed    int64
	cluster *livecluster.Cluster
	reg     *metrics.Registry
	clients []*client.Client
	// connNode[c] is the node connection c is attached to.
	connNode []int
	// disks are the per-node sync-tracking filesystems (durable
	// workloads only); dataDir is their parent, removed by close.
	disks   []*syncFS
	dataDir string
	down    []atomic.Bool // crashed nodes
	keys    *keyState
	stopped bool
	settled []float64 // ms each settle took

	// The trickle, see startTrickle.
	trickleStop   chan struct{}
	trickleDone   sync.WaitGroup
	trickleSent   atomic.Int64
	trickleFailed atomic.Int64
}

// keyState is the benchmark's record of what it wrote: per key, the
// counter of the last write issued and of the last write acknowledged.
// A key is written over one connection only, so each entry has one
// writer at a time: issued by that connection's generator, acked by its
// client's reader goroutine. The gate reads both after the drain.
type keyState struct {
	valueBytes int
	issued     []uint32
	acked      []uint32
}

// connCount is the number of client connections (and generator
// goroutines): one per processor, and never one to the highest-numbered
// node, which the crash tail takes down.
func connCount(nodes int) int {
	n := runtime.NumCPU()
	if n > nodes-1 {
		n = nodes - 1
	}
	if n < 1 {
		n = 1
	}
	return n
}

// attachNodes spreads conns connections round-robin across super-leaves:
// connection c goes to member c/len(sls) of super-leaf c%len(sls).
func attachNodes(sls [][]wire.NodeID, conns int) []int {
	out := make([]int, conns)
	for c := range out {
		sl := sls[c%len(sls)]
		out[c] = int(sl[(c/len(sls))%len(sl)])
	}
	return out
}

func clusterConfig(w *workload, seed int64, reg *metrics.Registry, disks []*syncFS) livecluster.Config {
	cfg := livecluster.Config{
		SuperLeaves: w.superLeaves,
		Node: core.Config{
			CycleInterval: w.cycle,
			TickInterval:  2 * time.Millisecond,
			MaxBatch:      4096,
		},
		Seed:    seed,
		Logf:    debugf,
		Metrics: reg,
		Chaos:   w.wanOneWay > 0,
	}
	if disks != nil {
		cfg.DataFS = func(i int) wal.FS { return disks[i] }
	}
	return cfg
}

// openDisks creates one sync-tracking real-disk filesystem per node under
// dir.
func openDisks(dir string, nodes int, clock *fsClock) ([]*syncFS, error) {
	disks := make([]*syncFS, nodes)
	for i := range disks {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", i))
		inner, err := wal.DirFS(nodeDir)
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		disks[i] = newSyncFS(inner, func(name string, n int64) error {
			return os.Truncate(filepath.Join(nodeDir, name), n)
		}, clock)
	}
	return disks, nil
}

// boot starts the cluster of w, injects its WAN delay and dials the
// client connections. Preloading is separate so that a restart on used
// disks (recovered) can skip it.
func boot(w *workload, seed int64, disks []*syncFS, dataDir string, recovered bool) (*deployment, error) {
	reg := metrics.NewRegistry()
	cl, err := livecluster.Start(clusterConfig(w, seed, reg, disks))
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	d := &deployment{
		w: w, seed: seed, cluster: cl, reg: reg, disks: disks, dataDir: dataDir,
		down: make([]atomic.Bool, w.nodes()),
	}
	if w.wanOneWay > 0 {
		cl.Chaos().ApplyDelayMatrix(
			func(id wire.NodeID) int { return cl.Tree.SuperLeafOf(id) },
			netsim.UniformWANDelay(len(w.superLeaves), w.wanOneWay))
	}
	d.connNode = attachNodes(w.superLeaves, connCount(w.nodes()))
	d.startTrickle()
	if recovered {
		if err := d.awaitCaughtUp(10 * time.Second); err != nil {
			d.close()
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, node := range d.connNode {
		c, err := client.New(client.Config{Endpoints: []string{cl.ClientAddr(node)}})
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
		if _, err := c.EnsureSession(ctx); err != nil {
			d.debugNodes()
			d.close()
			return nil, fmt.Errorf("register session at node %d: %w", node, err)
		}
	}
	return d, nil
}

// awaitCaughtUp waits, after a restart from disk, until every node has
// committed past the highest watermark any node recovered to. The nodes'
// disks end at different cycles (the group-commit lag), and a node that is
// behind closes the gap by installing its peers' committed roots. What it
// had proposed into such a cycle itself is then dropped without a reply:
// the first requests after a restart, a session registration among them,
// were lost in one restart in ten and their clients waited for ever. The
// trickle's reads drive the cycles that close the gap; they may be lost
// too, which nobody waits for.
func (d *deployment) awaitCaughtUp(timeout time.Duration) error {
	var target uint64
	for i := 0; i < d.cluster.NumNodes(); i++ {
		if c := d.cluster.Node(i).Committed(); c > target {
			target = c
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		behind := false
		for i := 0; i < d.cluster.NumNodes(); i++ {
			if d.cluster.Node(i).Committed() <= target {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			d.debugNodes()
			return fmt.Errorf("restart: not every node committed past cycle %d within %v", target, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// trickleEvery is the gap between two trickle reads at one node.
const trickleEvery = 100 * time.Millisecond

// startTrickle gives every node one linearizable read every
// trickleEvery, submitted in-process, on top of whatever the benchmark's
// connections send.
//
// It is here because of a liveness bug in internal/core that this
// benchmark found and may not fix (it changes only its own directory): a
// node whose apply stage lags 2 x MaxInFlight cycles behind ordering
// refuses to start the next cycle (Node.canStart, "apply backpressure"),
// and nothing starts it later unless the node has client requests
// pending or cycles in flight (Node.onCycleTimer). A node without any
// client request pending at that moment therefore stays silent once its
// apply stage has caught up, its super-leaf peers wait for its Round 1
// proposal for ever, and the whole cluster stops committing. A snapshot
// or a slow fsync is enough. A node without a client connection is
// exposed all the time (durable_3n wedged in one run in eight), a node
// with one whenever its clients pause, as between two phases. With the
// trickle every node has a request pending within trickleEvery and starts
// the cycle; the stall shows as latency, not as a wedged cluster. Failed
// trickle reads count as failed requests.
func (d *deployment) startTrickle() {
	nodes := d.cluster.NumNodes()
	d.trickleStop = make(chan struct{})
	d.trickleDone.Add(1)
	go func() {
		defer d.trickleDone.Done()
		tick := time.NewTicker(trickleEvery)
		defer tick.Stop()
		for key := uint64(0); ; key++ {
			select {
			case <-d.trickleStop:
				return
			case <-tick.C:
			}
			for n := 0; n < nodes; n++ {
				if d.down[n].Load() {
					continue
				}
				n := n
				d.trickleSent.Add(1)
				d.cluster.Submit(n, wire.OpRead, key%keySpace, nil, func(_ []byte, ok bool) {
					if !ok && !d.down[n].Load() {
						d.trickleFailed.Add(1)
					}
				})
			}
		}
	}()
}

// settle is called after every slice of a durable workload: it makes
// every node take its snapshot now and waits until all have, so that the
// periodic snapshot (every 4096 cycles, 4 to 8 s of load) does not fall
// into whichever slice happens to be running. A snapshot stops a node's
// commits for tens of milliseconds, which a slice would report or not
// depending on where it fell. How long the snapshots took is kept in
// d.settled.
func (d *deployment) settle() error {
	if d.disks == nil {
		return nil
	}
	start := time.Now()
	before := make([]uint64, d.cluster.NumNodes())
	for i := range before {
		if !d.down[i].Load() {
			before[i] = d.cluster.Durability(i).Stats().Snapshots
			d.cluster.Durability(i).RequestSnapshot()
		}
	}
	// The request is honoured at the next group commit, so commit
	// something: one write outside the measured key space per client.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for c, cl := range d.clients {
			if err := cl.Put(ctx, uint64(keySpace+c), []byte("settle")); err != nil {
				d.debugNodes()
				return fmt.Errorf("settle: %w", err)
			}
		}
		done := true
		for i := range before {
			if !d.down[i].Load() && d.cluster.Durability(i).Stats().Snapshots == before[i] {
				done = false
			}
		}
		if done {
			d.settled = append(d.settled, time.Since(start).Seconds()*1000)
			return nil
		}
		if time.Now().After(deadline) {
			d.debugNodes()
			return fmt.Errorf("settle: snapshots not taken within 10 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setup boots w on fresh disks, preloads every key and waits until all
// replicas agree. dir is where a durable workload keeps its disks.
func setup(w *workload, seed int64, dir string, clock *fsClock) (*deployment, error) {
	var disks []*syncFS
	dataDir := ""
	if w.durable {
		var err error
		if dataDir, err = os.MkdirTemp(dir, "data-"+w.name+"-"); err != nil {
			return nil, err
		}
		if disks, err = openDisks(dataDir, w.nodes(), clock); err != nil {
			return nil, err
		}
	}
	d, err := boot(w, seed, disks, dataDir, false)
	if err != nil {
		if dataDir != "" {
			os.RemoveAll(dataDir)
		}
		return nil, err
	}
	d.keys = &keyState{
		valueBytes: w.valueBytes,
		issued:     make([]uint32, keySpace),
		acked:      make([]uint32, keySpace),
	}
	if err := d.preload(); err != nil {
		d.close()
		return nil, err
	}
	if _, err := d.awaitAgreement(20 * time.Second); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// preload writes counter 1 to every key, each over the connection that
// owns it, at most preloadWindow writes outstanding per connection.
func (d *deployment) preload() error {
	const preloadWindow = 4096
	conns := len(d.clients)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// sem holds one token per outstanding write; done never
			// blocks because its token is already in the channel.
			sem := make(chan struct{}, preloadWindow)
			done := func(ok bool) {
				if !ok {
					failed.Add(1)
				}
				<-sem
			}
			for key := c; key < keySpace; key += conns {
				val := make([]byte, d.keys.valueBytes)
				putValue(val, uint32(key), 1)
				d.keys.issued[key] = 1
				sem <- struct{}{}
				d.clients[c].AsyncOk(client.Op{Kind: client.OpPut, Key: uint64(key), Val: val}, done)
			}
			for i := 0; i < preloadWindow; i++ {
				sem <- struct{}{}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		return fmt.Errorf("preload: %d writes failed", n)
	}
	copy(d.keys.acked, d.keys.issued)
	return nil
}

// awaitAgreement polls every live replica's StateDigest until all are
// equal and returns the digest.
func (d *deployment) awaitAgreement(timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	for {
		var digests []uint64
		for i := 0; i < d.cluster.NumNodes(); i++ {
			if d.down[i].Load() {
				continue
			}
			d.cluster.InspectStore(i, func(st *kvstore.Store) {
				digests = append(digests, st.StateDigest())
			})
		}
		equal := true
		for _, x := range digests[1:] {
			if x != digests[0] {
				equal = false
			}
		}
		if equal {
			return digests[0], nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replicas disagree after %v: state digests %x", timeout, digests)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// debugNodes prints every node's protocol watermarks when BENCH_DEBUG is
// set: what one needs to see which node a wedged cluster is waiting for.
func (d *deployment) debugNodes() {
	if !debug {
		return
	}
	for i := 0; i < d.cluster.NumNodes(); i++ {
		n := d.cluster.Node(i)
		debugf("node %d: started %d ordered %d committed %d stalled %v durability error %v; next cycle: %s", i,
			n.Started(), n.Ordered(), n.Committed(), n.Stalled(), n.DurabilityError(), n.DebugCycle(n.Committed()+1))
	}
}

// gateSamples is the number of keys the correctness gate reads back.
const gateSamples = 1024

// gate is the correctness check: every live replica holds the same state,
// and for gateSamples keys drawn from the seed a linearizable read
// returns a value this benchmark wrote whose counter is at least that of
// the last acknowledged write and at most that of the last write issued.
func (d *deployment) gate(stage string) (err error) {
	defer func() {
		if err != nil {
			d.debugNodes()
		}
	}()
	if _, err := d.awaitAgreement(20 * time.Second); err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	rng := rand.New(rand.NewSource(phaseSeed(d.seed, "gate", 0)))
	keys := make([]uint32, gateSamples)
	futs := make([]*client.Future, gateSamples)
	for i := range keys {
		keys[i] = uint32(rng.Intn(keySpace))
		futs[i] = d.clients[i%len(d.clients)].GetAsync(uint64(keys[i]))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, f := range futs {
		key := keys[i]
		res, err := f.Wait(ctx)
		if err != nil {
			return fmt.Errorf("%s: read of key %d: %w", stage, key, err)
		}
		ctr, ok := valueCounter(res.Val, key, d.keys.valueBytes)
		if !ok {
			return fmt.Errorf("%s: key %d holds %d bytes this benchmark never wrote", stage, key, len(res.Val))
		}
		if acked := d.keys.acked[key]; ctr < acked {
			return fmt.Errorf("%s: acknowledged write lost: key %d reads counter %d, write %d was acknowledged", stage, key, ctr, acked)
		}
		if issued := d.keys.issued[key]; ctr > issued {
			return fmt.Errorf("%s: key %d reads counter %d, beyond the last write issued (%d)", stage, key, ctr, issued)
		}
	}
	return nil
}

// crash takes node i down crash-stop.
func (d *deployment) crash(i int) {
	debugf("crashing node %d", i)
	d.down[i].Store(true)
	d.cluster.Crash(i)
}

// stop closes the clients and stops the cluster, leaving the disks.
func (d *deployment) stop() {
	if d.trickleStop != nil {
		close(d.trickleStop)
		d.trickleDone.Wait()
		d.trickleStop = nil
	}
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = nil
	if !d.stopped {
		d.stopped = true
		d.cluster.Stop(5 * time.Second)
	}
}

// close stops everything the deployment started and removes its disks.
func (d *deployment) close() {
	d.stop()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}
