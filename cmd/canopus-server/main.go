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
//
// When the cluster drops the node (its leaf-mates cut it, or its
// super-leaf was evicted), the process stays up and the node rejoins in
// place through the join protocol (§4.6), on the same ports and without
// its -data-dir (livecluster.Replica).
package main

import (
	"errors"
	"flag"
	"fmt"
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
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain bound for in-flight client requests")
	join := flag.Bool("join", false, "enter through the join protocol (§4.6) instead of participating from cycle 1 — how a node replaced after the cluster dropped it re-enters; a running node rejoins in place by itself")
	leafTimeout := flag.Duration("leaf-timeout", 0, "arm super-leaf eviction: a leaf silent for this long is evicted so the rest keeps committing (0 = stall forever, §6; same value on every node)")
	dataDir := flag.String("data-dir", "", "durable storage directory: group-commit WAL + snapshots, recovered at boot (default: in-memory only)")
	snapshotCycles := flag.Int("snapshot-cycles", 0, "snapshot cadence in committed cycles (0 = default, <0 = disable periodic snapshots)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path (stopped at graceful shutdown)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this path at graceful shutdown")
	flag.Parse()

	peers, sls, err := topology(*id, *peersFlag, *slFlag)
	if err != nil {
		log.Fatal("canopus-server: ", err)
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
	// Seeded per start: a restarted process must not repeat its
	// predecessor's random draws, the join request's nonce among them
	// (internal/core join.go).
	runner, err := transport.NewRunner(self, peers[self], peers, time.Now().UnixNano())
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}
	rc := livecluster.ReplicaConfig{
		Runner: runner,
		Node: core.Config{
			Tree:        tree,
			LeafTimeout: *leafTimeout,
		},
		Join:           *join,
		SnapshotCycles: *snapshotCycles,
		ClientAddr:     *clientAddr,
		AdminAddr:      *adminAddr,
	}
	if *dataDir != "" {
		if rc.Disk, err = wal.DirFS(*dataDir); err != nil {
			log.Fatal("canopus-server: ", err)
		}
	}
	if *adminAddr != "" {
		rc.Registry = metrics.NewRegistry()
	}
	rep, err := livecluster.Boot(rc)
	if err != nil {
		log.Fatal("canopus-server: ", err)
	}
	defer rep.Close()
	runner.Attach(rep.Node())
	rep.Start()
	if *adminAddr != "" {
		log.Printf("node %v: admin gateway on %s", self, *adminAddr)
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

// topology parses -id, -peers and -superleaves into the peer addresses
// and the super-leaves. It rejects an -id with no address, an empty
// address, and super-leaves that name a node beyond -peers, name one
// twice or leave a peer out: each would bind the wrong socket or build a
// tree the node is not in.
func topology(id int, peersFlag, slFlag string) (map[wire.NodeID]string, [][]wire.NodeID, error) {
	if peersFlag == "" {
		return nil, nil, errors.New("-peers is required")
	}
	addrs := strings.Split(peersFlag, ",")
	peers := make(map[wire.NodeID]string, len(addrs))
	for i, a := range addrs {
		if a = strings.TrimSpace(a); a == "" {
			return nil, nil, fmt.Errorf("-peers: address %d is empty", i)
		}
		peers[wire.NodeID(i)] = a
	}
	if id < 0 || id >= len(addrs) {
		return nil, nil, fmt.Errorf("-id %d: want 0..%d, an index into -peers", id, len(addrs)-1)
	}
	if slFlag == "" {
		all := make([]wire.NodeID, len(addrs))
		for i := range all {
			all[i] = wire.NodeID(i)
		}
		return peers, [][]wire.NodeID{all}, nil
	}
	var sls [][]wire.NodeID
	seen := make(map[int]bool, len(addrs))
	for _, group := range strings.Split(slFlag, ";") {
		var members []wire.NodeID
		for _, tok := range strings.Split(group, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			switch {
			case err != nil:
				return nil, nil, fmt.Errorf("-superleaves: bad entry %q", tok)
			case v < 0 || v >= len(addrs):
				return nil, nil, fmt.Errorf("-superleaves: node %d has no address in -peers (%d given)", v, len(addrs))
			case seen[v]:
				return nil, nil, fmt.Errorf("-superleaves: node %d appears twice", v)
			}
			seen[v] = true
			members = append(members, wire.NodeID(v))
		}
		sls = append(sls, members)
	}
	for i := range addrs {
		if !seen[i] {
			return nil, nil, fmt.Errorf("-superleaves: node %d of -peers is in no super-leaf", i)
		}
	}
	return peers, sls, nil
}
