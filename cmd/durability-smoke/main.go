// Command durability-smoke is the CI crash-recovery gate for the
// durable storage engine. It boots a three-node loopback cluster of real
// canopus-server processes with -data-dir and -admin-addr, drives client
// load through canopus/client, captures the replicas' agreed state
// digest through the admin gateway, SIGKILLs every process (no drain, no
// graceful close — a power cut), restarts the cluster from the same data
// directories, and fails unless the recovered replicas converge to the
// exact pre-kill digest.
//
// Along the way it doubles as the operations-plane gate: before the kill
// it scrapes every node's /metrics and /status (full instrument
// inventory, fsyncs observed, durable watermark advancing), and after
// recovery it asserts the applied watermarks re-converge at or above the
// pre-kill durable cycle.
//
//	durability-smoke -server ./bin/canopus-server [-ops 300] [-timeout 60s]
//
// Exit status 0 means the durable state survived the kill bit-exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"canopus/admin"
	"canopus/client"
)

const nodes = 3

func main() {
	server := flag.String("server", "", "path to the canopus-server binary (required)")
	ops := flag.Int("ops", 300, "PUTs to drive before the kill")
	snapshotCycles := flag.Int("snapshot-cycles", 16, "snapshot cadence handed to the servers")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline for each phase")
	keep := flag.Bool("keep", false, "keep the data directories on exit (for debugging)")
	flag.Parse()
	if *server == "" {
		log.Fatal("durability-smoke: -server is required")
	}

	root, err := os.MkdirTemp("", "canopus-durability-smoke-")
	if err != nil {
		log.Fatal("durability-smoke: ", err)
	}
	if !*keep {
		defer os.RemoveAll(root)
	}

	peerAddrs := reservePorts(nodes)
	clientAddrs := reservePorts(nodes)
	adminAddrs := reservePorts(nodes)
	peers := peerAddrs[0]
	for _, a := range peerAddrs[1:] {
		peers += "," + a
	}
	admins := make([]*admin.Client, nodes)
	for i := range admins {
		admins[i] = admin.New(adminAddrs[i])
	}

	start := func(i int) *exec.Cmd {
		cmd := exec.Command(*server,
			"-id", strconv.Itoa(i),
			"-peers", peers,
			"-client", clientAddrs[i],
			"-admin-addr", adminAddrs[i],
			"-data-dir", filepath.Join(root, fmt.Sprintf("node-%d", i)),
			"-snapshot-cycles", strconv.Itoa(*snapshotCycles),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("durability-smoke: start node %d: %v", i, err)
		}
		return cmd
	}
	procs := make([]*exec.Cmd, nodes)
	for i := range procs {
		procs[i] = start(i)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	waitAllHealthy(admins, *timeout)
	log.Printf("durability-smoke: cluster up, driving %d PUTs", *ops)

	// Drive pipelined load, spread across all three nodes. Every reply is
	// awaited: an ack is fsync-gated by the server, so everything acked
	// here is durable by contract — exactly what the kill below must not
	// lose.
	for i := 0; i < nodes; i++ {
		if err := drive(clientAddrs[i], i, *ops/nodes); err != nil {
			log.Fatalf("durability-smoke: load via node %d: %v", i, err)
		}
	}

	// The replicas quiesce to one identity (laggards finish the last
	// cycles); capture it through the admin gateway.
	before, err := converge(admins, *timeout)
	if err != nil {
		log.Fatal("durability-smoke: pre-kill digests: ", err)
	}
	log.Printf("durability-smoke: pre-kill state digest %016x", before.State)
	if before.State == 0 {
		log.Fatal("durability-smoke: pre-kill digest is zero; load did not apply")
	}

	// Operations-plane gate: every node's /metrics must expose the full
	// instrument inventory, and /status must show durable progress.
	if err := scrapeCheck(admins); err != nil {
		log.Fatal("durability-smoke: pre-kill metrics scrape: ", err)
	}
	preDurable, err := minDurableCycle(admins)
	if err != nil {
		log.Fatal("durability-smoke: pre-kill status: ", err)
	}
	if preDurable == 0 {
		log.Fatal("durability-smoke: fsync-gated load left durable cycle at 0")
	}
	log.Printf("durability-smoke: metrics + status healthy, min durable cycle %d", preDurable)

	// Power cut: SIGKILL, no warning. Buffered WAL bytes past the last
	// fsync are gone; acked writes must not be.
	for i, p := range procs {
		if err := p.Process.Kill(); err != nil {
			log.Fatalf("durability-smoke: kill node %d: %v", i, err)
		}
		p.Wait()
	}
	log.Print("durability-smoke: all nodes SIGKILLed; restarting from disk")

	for i := range procs {
		procs[i] = start(i)
	}
	waitAllHealthy(admins, *timeout)

	after, err := converge(admins, *timeout)
	if err != nil {
		log.Fatal("durability-smoke: post-restart digests: ", err)
	}
	if after.State != before.State {
		log.Fatalf("durability-smoke: FAIL: recovered state digest %016x != pre-kill %016x", after.State, before.State)
	}

	// Recovery replays the WAL to at least the pre-kill durable cycle, so
	// every replica's applied watermark must come back at or above it —
	// and, at quiesce, within one convergence window of each other.
	if err := watermarksConverged(admins, preDurable, *timeout); err != nil {
		log.Fatal("durability-smoke: post-recovery watermarks: ", err)
	}
	log.Printf("durability-smoke: PASS: recovered state digest %016x matches pre-kill; watermarks re-converged", after.State)
}

// reservePorts binds n loopback listeners to pick free ports, then
// releases them for the servers to claim.
func reservePorts(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal("durability-smoke: ", err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// waitAllHealthy polls every admin gateway until /healthz reports ok.
// The gateway binds before WAL replay starts, so during recovery this
// sees 503 "recovering" rather than connection-refused — and "ok" means
// the client port is accepting too.
func waitAllHealthy(admins []*admin.Client, timeout time.Duration) {
	for i, cl := range admins {
		deadline := time.Now().Add(timeout)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			h, err := cl.Health(ctx)
			cancel()
			if err == nil && h.Status == "ok" {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("durability-smoke: node %d not healthy after %v (status %q, err %v)", i, timeout, h.Status, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// drive sends n pipelined PUTs to one node and requires an ack for each.
func drive(addr string, node, n int) error {
	cl, err := client.New(client.Config{Endpoints: []string{addr}, RequestTimeout: 30 * time.Second})
	if err != nil {
		return err
	}
	defer cl.Close()
	puts := make([]*client.Future, n)
	for i := range puts {
		puts[i] = cl.PutAsync(uint64(node*1_000_000+i), fmt.Appendf(nil, "smoke-%d-%d", node, i))
	}
	for i, f := range puts {
		if _, err := f.Wait(context.Background()); err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
	}
	return nil
}

// converge polls every node until all report the same state digest, and
// returns it.
func converge(admins []*admin.Client, timeout time.Duration) (admin.Digest, error) {
	deadline := time.Now().Add(timeout)
	for {
		digests := make([]admin.Digest, len(admins))
		ok := true
		for i, cl := range admins {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			d, err := cl.Digest(ctx)
			cancel()
			if err != nil {
				ok = false
				break
			}
			digests[i] = d
		}
		if ok {
			same := true
			for _, d := range digests[1:] {
				if d.State != digests[0].State {
					same = false
					break
				}
			}
			if same {
				return digests[0], nil
			}
		}
		if time.Now().After(deadline) {
			return admin.Digest{}, fmt.Errorf("replicas did not converge in %v (%+v)", timeout, digests)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// instrumentPrefixes are the four subsystems the gateway must cover.
var instrumentPrefixes = []string{
	"canopus_core_", "canopus_transport_", "canopus_wal_", "canopus_client_",
}

// scrapeCheck asserts each node's /metrics exposes the operations-plane
// inventory: at least 12 distinct instrument families spanning all four
// subsystem prefixes, with WAL fsyncs actually observed.
func scrapeCheck(admins []*admin.Client) error {
	for i, cl := range admins {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		series, err := cl.Metrics(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		families := map[string]bool{}
		covered := map[string]bool{}
		var fsyncs float64
		for key, v := range series {
			name := key
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			if !strings.HasPrefix(name, "canopus_") {
				continue
			}
			families[name] = true
			for _, p := range instrumentPrefixes {
				if strings.HasPrefix(name, p) {
					covered[p] = true
				}
			}
			if name == "canopus_wal_fsyncs_total" {
				fsyncs += v
			}
		}
		if len(families) < 12 {
			return fmt.Errorf("node %d: only %d instrument families exposed, want >= 12", i, len(families))
		}
		if len(covered) != len(instrumentPrefixes) {
			return fmt.Errorf("node %d: instrument families cover %d/%d subsystems", i, len(covered), len(instrumentPrefixes))
		}
		if fsyncs == 0 {
			return fmt.Errorf("node %d: canopus_wal_fsyncs_total is 0 after fsync-gated load", i)
		}
	}
	return nil
}

// minDurableCycle reads /status on every node and returns the smallest
// durable cycle.
func minDurableCycle(admins []*admin.Client) (uint64, error) {
	min := ^uint64(0)
	for i, cl := range admins {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := cl.Status(ctx)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		if st.Durability == nil {
			return 0, fmt.Errorf("node %d: /status has no durability section", i)
		}
		if st.Durability.DurableCycle < min {
			min = st.Durability.DurableCycle
		}
	}
	return min, nil
}

// watermarksConverged polls the canopus_core_cycle_applied gauge on
// every node until each is at or above floor and all sit within one
// convergence window (cycles advance continuously, so exact equality at
// a sampled instant is not expected).
func watermarksConverged(admins []*admin.Client, floor uint64, timeout time.Duration) error {
	const window = 64
	deadline := time.Now().Add(timeout)
	var last []float64
	for {
		applied := make([]float64, len(admins))
		ok := true
		for i, cl := range admins {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			series, err := cl.Metrics(ctx)
			cancel()
			if err != nil {
				ok = false
				break
			}
			found := false
			for key, v := range series {
				name := key
				if j := strings.IndexByte(name, '{'); j >= 0 {
					name = name[:j]
				}
				if name == "canopus_core_cycle_applied" {
					applied[i] = v
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("node %d: canopus_core_cycle_applied missing from /metrics", i)
			}
		}
		if ok {
			last = applied
			lo, hi := applied[0], applied[0]
			for _, v := range applied[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if lo >= float64(floor) && hi-lo <= window {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("applied watermarks did not re-converge above cycle %d in %v (last %v)", floor, timeout, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
