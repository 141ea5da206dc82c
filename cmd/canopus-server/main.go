// Command canopus-server runs one live Canopus node over TCP: the same
// protocol engine the simulator drives, behind real sockets, plus a
// client port speaking the pipelined binary client protocol (see
// internal/wire/client.go and the README) — canopus/client is its
// library, canopus-client its command line and REPL.
//
// A three-node super-leaf on localhost:
//
//	canopus-server -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -superleaves 0,1,2 -client 127.0.0.1:8000 &
//	canopus-server -id 1 -peers ...same... -client 127.0.0.1:8001 &
//	canopus-server -id 2 -peers ...same... -client 127.0.0.1:8002 &
//	canopus-client -addr 127.0.0.1:8000
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting client requests, waits for in-flight requests to be
// answered (bounded by -drain), flushes its peers' transport queues and
// only then closes the sockets — clients never see torn frames.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"canopus/internal/core"
	"canopus/internal/livecluster"
	"canopus/internal/lot"
	"canopus/internal/metrics"
	"canopus/internal/pprofutil"
	"canopus/internal/transport"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

func main() {
	id := flag.Int("id", 0, "this node's ID (index into -peers)")
	peersFlag := flag.String("peers", "", "comma-separated peer addresses, index = node ID")
	slFlag := flag.String("superleaves", "", "semicolon-separated super-leaves of comma-separated node IDs (default: all in one)")
	clientAddr := flag.String("client", "", "client-facing listen address (default: none)")
	adminAddr := flag.String("admin-addr", "", "HTTP admin gateway listen address: /metrics, /healthz, /status, POST /snapshot (default: none)")
	adminChaos := flag.Bool("admin-chaos", false, "enable the gateway's POST /chaos fault-injection verb (game-days only)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain bound for in-flight client requests")
	join := flag.Bool("join", false, "enter through the join protocol (§4.6) instead of participating from cycle 1 — how an evicted node re-enters a live cluster")
	leafTimeout := flag.Duration("leaf-timeout", 0, "arm super-leaf eviction: a leaf silent for this long is evicted so the rest keeps committing (0 = stall forever, §6; same value on every node)")
	stallThreshold := flag.Duration("stall-threshold", 0, "arm the liveness detector: /healthz degrades after this much commit-free wedge with cycles outstanding (0 = off)")
	exitOnEvict := flag.Bool("exit-on-evict", false, "exit with status 3 when told this node's super-leaf was evicted, so a supervisor can restart it with -join")
	dataDir := flag.String("data-dir", "", "durable storage directory: group-commit WAL + snapshots, recovered at boot (default: in-memory only)")
	snapshotCycles := flag.Int("snapshot-cycles", 0, "snapshot cadence in committed cycles (0 = default, <0 = disable periodic snapshots)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path (stopped at graceful shutdown)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this path at graceful shutdown")
	flag.Parse()

	addrs := strings.Split(*peersFlag, ",")
	if len(addrs) < 1 || addrs[0] == "" {
		log.Fatal("canopus-server: -peers is required")
	}
	peers := make(map[wire.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[wire.NodeID(i)] = strings.TrimSpace(a)
	}

	var sls [][]wire.NodeID
	if *slFlag == "" {
		var all []wire.NodeID
		for i := range addrs {
			all = append(all, wire.NodeID(i))
		}
		sls = [][]wire.NodeID{all}
	} else {
		for _, group := range strings.Split(*slFlag, ";") {
			var members []wire.NodeID
			for _, tok := range strings.Split(group, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					log.Fatalf("canopus-server: bad -superleaves entry %q", tok)
				}
				members = append(members, wire.NodeID(v))
			}
			sls = append(sls, members)
		}
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls})
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}

	stopProfiles, err := pprofutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}
	defer stopProfiles()

	self := wire.NodeID(*id)
	runner, err := transport.NewRunner(self, peers[self], peers, 42)
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}
	rc := livecluster.ReplicaConfig{
		Runner: runner,
		Node: core.Config{
			Tree:           tree,
			LeafTimeout:    *leafTimeout,
			StallThreshold: *stallThreshold,
		},
		Join:           *join,
		SnapshotCycles: *snapshotCycles,
		ClientAddr:     *clientAddr,
		AdminAddr:      *adminAddr,
		FaultVerbs:     *adminChaos,
	}
	if *dataDir != "" {
		if rc.Disk, err = wal.DirFS(*dataDir); err != nil {
			log.Fatal("canopus-server: ", err)
		}
	}
	if *adminAddr != "" {
		rc.Registry = metrics.NewRegistry()
	}
	if *exitOnEvict {
		// Fires on the machine turn when an Evicted notice proves the
		// rest of the cluster committed this node's Leave: this
		// incarnation can never make progress again. The short delay
		// lets the log line and any in-flight admin replies out first.
		rc.OnEvicted = func() {
			log.Printf("node %v: super-leaf evicted by the cluster; exiting for a -join restart", self)
			time.AfterFunc(100*time.Millisecond, func() { os.Exit(3) })
		}
	}
	rep, err := livecluster.Boot(rc)
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}
	defer rep.Close()
	runner.Attach(rep.Node())
	rep.Start()
	if *adminAddr != "" {
		log.Printf("node %v: admin gateway on %s (chaos %v)", self, *adminAddr, *adminChaos)
	}
	port := rep.Port()
	if port != nil {
		log.Printf("node %v: client API on %s", self, port.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("node %v: %v: draining...", self, sig)
		if port != nil {
			if port.Stop(*drain) {
				log.Printf("node %v: client port drained", self)
			} else {
				log.Printf("node %v: drain timed out after %v; %d requests unanswered",
					self, *drain, port.Outstanding())
			}
		}
		runner.Drain(2 * time.Second)
		runner.Close()
		// Serve returns once the listener closes; nothing more to do here.
	}()

	log.Printf("node %v: consensus on %s (super-leaf %d of %d, LOT height %d)",
		self, peers[self], tree.SuperLeafOf(self), tree.NumSuperLeaves(), tree.Height)
	runner.Serve(nil)
	log.Printf("node %v: shut down", self)
}
