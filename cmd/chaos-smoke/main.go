// Command chaos-smoke runs the live chaos campaigns across real process
// boundaries: three canopus-server processes per campaign, every
// inter-node byte routed through a chaosnet proxy fabric owned by this
// orchestrator, client and admin ports direct. The eviction and stall
// storylines and every wait are internal/harness's, the same ones
// TestLiveChaosCampaigns runs on in-process clusters; only the power
// cut, which processes alone can run, is written here.
//
//   - power-cut: one super-leaf with -data-dir. 300 acked PUTs, digest
//     convergence, a /metrics inventory and /status durability check,
//     SIGKILL of every process, a restart from the same directories, the
//     exact pre-kill digest and the applied watermarks back at or above
//     the pre-kill durable cycle. In-process clusters cannot run it: a
//     SIGKILL leaves the process no shutdown path to run.
//   - evict-readmit: three single-node super-leaves, -leaf-timeout 500ms.
//     The evicted process stays up and its node rejoins in place
//     (harness.EvictReadmit).
//   - stall: super-leaves {0,1};{2}, no extra flags: the stall
//     detector is always on and trips after 4 × FetchTimeout, 200ms at
//     the server's 50ms (harness.StallDetect).
//
// Usage:
//
//	chaos-smoke -server ./bin/canopus-server [-timeout 60s]
//
// Exit status 0 means every campaign held end to end. A failed wait
// quotes every node's /status.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"canopus/admin"
	"canopus/client"
	"canopus/internal/chaosnet"
	"canopus/internal/harness"
	"canopus/internal/wire"
)

const nodes = 3

func main() {
	server := flag.String("server", "", "path to the canopus-server binary (required)")
	timeout := flag.Duration("timeout", 60*time.Second, "deadline for each wait of a campaign")
	flag.Parse()
	if *server == "" {
		log.Fatal("chaos-smoke: -server is required")
	}
	for _, c := range []struct {
		name string
		run  func(server string, wait time.Duration) (string, error)
	}{
		{"power-cut", powerCut},
		{"evict-readmit", evictReadmit},
		{"stall", stall},
	} {
		start := time.Now()
		line, err := c.run(*server, *timeout)
		if err != nil {
			log.Fatalf("chaos-smoke: %s: FAIL: %v", c.name, err)
		}
		log.Printf("chaos-smoke: %s: PASS in %v: %s", c.name, time.Since(start).Round(10*time.Millisecond), line)
	}
}

func evictReadmit(server string, wait time.Duration) (string, error) {
	const leafTimeout = 500 * time.Millisecond
	flags := func(int) []string { return []string{"-leaf-timeout", leafTimeout.String()} }
	return campaign(server, "0;1;2", flags, wait, func(p *procs) (string, error) {
		return harness.EvictReadmit(p, harness.Eviction{
			LeafTimeout: leafTimeout,
			Victims:     []wire.NodeID{2},
			Survivors:   []wire.NodeID{0, 1},
			Wait:        wait,
		})
	})
}

func stall(server string, wait time.Duration) (string, error) {
	// 4 × canopus-server's FetchTimeout (core.Config's 50ms default).
	const threshold = 4 * 50 * time.Millisecond
	flags := func(int) []string { return nil }
	return campaign(server, "0,1;2", flags, wait, func(p *procs) (string, error) {
		return harness.StallDetect(p, harness.Stall{
			Threshold: threshold,
			Majority:  []wire.NodeID{0, 1},
			Wedged:    2,
			Wait:      wait,
		})
	})
}

// powerCut is the crash-recovery campaign: everything acked before a
// SIGKILL of every process (an ack is fsync-gated) must come back, bit
// for bit, from the data directories.
func powerCut(server string, wait time.Duration) (string, error) {
	const puts = 300
	root, err := os.MkdirTemp("", "canopus-chaos-smoke-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(root)
	flags := func(i int) []string {
		return []string{"-data-dir", filepath.Join(root, fmt.Sprintf("node-%d", i)), "-snapshot-cycles", "16"}
	}
	return campaign(server, "", flags, wait, func(p *procs) (string, error) {
		for i := 0; i < nodes; i++ {
			if err := drive(p, i, puts/nodes); err != nil {
				return "", fmt.Errorf("load via node %d: %w", i, err)
			}
		}
		before, err := harness.Converge(p, wait)
		if err != nil {
			return "", err
		}
		if err := scrapeCheck(p); err != nil {
			return "", fmt.Errorf("pre-kill metrics scrape: %w", err)
		}
		durable, err := minDurableCycle(p)
		if err != nil {
			return "", err
		}
		if durable == 0 {
			return "", errors.New("fsync-gated load left the durable cycle at 0")
		}

		// Power cut: SIGKILL, no warning. Buffered WAL bytes past the
		// last fsync are gone; acked writes must not be.
		p.kill()
		for i := 0; i < nodes; i++ {
			if err := p.start(i); err != nil {
				return "", err
			}
		}
		if err := harness.AwaitHealthy(p, wait); err != nil {
			return "", err
		}
		after, err := harness.Converge(p, wait)
		if err != nil {
			return "", err
		}
		if after != before {
			return "", fmt.Errorf("recovered state digest %016x != pre-kill %016x", after, before)
		}
		// Recovery replays the WAL to at least the pre-kill durable
		// cycle, so every applied watermark comes back at or above it
		// and, at quiesce, within one convergence window of the others
		// (cycles advance continuously, so exact equality is not
		// expected).
		const window = 64
		what := fmt.Sprintf("applied watermarks re-converged at or above cycle %d", durable)
		if err := harness.Await(p, wait, what, func() bool {
			lo, hi := ^uint64(0), uint64(0)
			for i := 0; i < nodes; i++ {
				s, err := admin.New(p.AdminAddr(i)).Status(context.Background())
				if err != nil {
					return false
				}
				lo, hi = min(lo, s.Applied), max(hi, s.Applied)
			}
			return lo >= durable && hi-lo <= window
		}); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d acked PUTs, digest %016x recovered on all %d nodes from durable cycle %d",
			puts, after, nodes, durable), nil
	})
}

// campaign boots three processes, node i with extra(i) on top of the
// wiring flags, waits until all serve, runs the storyline and requires
// a clean graceful shutdown.
func campaign(server, superLeaves string, extra func(i int) []string, wait time.Duration, run func(p *procs) (string, error)) (string, error) {
	p, err := boot(server, superLeaves, extra)
	if err != nil {
		return "", err
	}
	defer p.close()
	if err := harness.AwaitHealthy(p, wait); err != nil {
		return "", err
	}
	line, err := run(p)
	if err != nil {
		return "", err
	}
	return line, p.stop()
}

// drive sends n pipelined PUTs to one node and requires an ack for each.
func drive(p *procs, node, n int) error {
	cl, err := harness.Dial(p, node)
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

// instrumentPrefixes are the four subsystems a gateway must cover.
var instrumentPrefixes = []string{
	"canopus_core_", "canopus_transport_", "canopus_wal_", "canopus_client_",
}

// scrapeCheck asserts each node's /metrics exposes the operations-plane
// inventory: at least 12 instrument families spanning all four subsystem
// prefixes, with WAL fsyncs actually observed.
func scrapeCheck(p *procs) error {
	for i := 0; i < nodes; i++ {
		series, err := admin.New(p.AdminAddr(i)).Metrics(context.Background())
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		families := map[string]bool{}
		covered := map[string]bool{}
		var fsyncs float64
		for key, v := range series {
			name, _, _ := strings.Cut(key, "{")
			if !strings.HasPrefix(name, "canopus_") {
				continue
			}
			families[name] = true
			for _, pre := range instrumentPrefixes {
				if strings.HasPrefix(name, pre) {
					covered[pre] = true
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

// minDurableCycle reads every node's /status durability block and
// returns the smallest durable cycle.
func minDurableCycle(p *procs) (uint64, error) {
	lo := ^uint64(0)
	for i := 0; i < nodes; i++ {
		s, err := admin.New(p.AdminAddr(i)).Status(context.Background())
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		if s.Durability == nil {
			return 0, fmt.Errorf("node %d: /status has no durability section", i)
		}
		lo = min(lo, s.Durability.DurableCycle)
	}
	return lo, nil
}

// procs is the process Deployment: three canopus-server processes whose
// -peers entries for every other node are the fabric's proxies.
type procs struct {
	server      string
	superLeaves string
	extra       func(i int) []string
	fabric      *chaosnet.Net
	peers       [][]string // peers[i][j]: node i's address for node j
	client      []string
	admin       []string
	proc        [nodes]*proc
}

// proc is one process; done closes once it has exited.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// boot starts the three processes; extra(i) is node i's campaign flags.
func boot(server, superLeaves string, extra func(i int) []string) (*procs, error) {
	p := &procs{
		server:      server,
		superLeaves: superLeaves,
		extra:       extra,
		fabric:      chaosnet.New(chaosnet.Config{Logf: log.Printf, Seed: 42}),
		peers:       make([][]string, nodes),
		client:      reservePorts(nodes),
		admin:       reservePorts(nodes),
	}
	listen := reservePorts(nodes)
	for i := range p.peers {
		p.peers[i] = make([]string, nodes)
		for j := range p.peers[i] {
			if i == j {
				p.peers[i][j] = listen[i]
				continue
			}
			addr, err := p.fabric.AddLink(wire.NodeID(i), wire.NodeID(j), listen[j])
			if err != nil {
				p.fabric.Close()
				return nil, err
			}
			p.peers[i][j] = addr
		}
	}
	for i := 0; i < nodes; i++ {
		if err := p.start(i); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *procs) Chaos() *chaosnet.Net    { return p.fabric }
func (p *procs) NumNodes() int           { return nodes }
func (p *procs) ClientAddr(i int) string { return p.client[i] }
func (p *procs) AdminAddr(i int) string  { return p.admin[i] }

// start launches node i.
func (p *procs) start(i int) error {
	args := []string{
		"-id", strconv.Itoa(i),
		"-peers", strings.Join(p.peers[i], ","),
		"-client", p.client[i],
		"-admin-addr", p.admin[i],
	}
	if p.superLeaves != "" {
		args = append(args, "-superleaves", p.superLeaves)
	}
	cmd := exec.Command(p.server, append(args, p.extra(i)...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", i, err)
	}
	pr := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(pr.done)
		if code := cmd.ProcessState.ExitCode(); code > 0 {
			log.Printf("chaos-smoke: node %d exited %d", i, code)
		}
	}()
	p.proc[i] = pr
	return nil
}

// signal sends sig to every process and waits for all to exit.
func (p *procs) signal(sig os.Signal) [nodes]*proc {
	running := p.proc
	for _, pr := range running {
		if pr != nil {
			pr.cmd.Process.Signal(sig)
		}
	}
	for _, pr := range running {
		if pr != nil {
			<-pr.done
		}
	}
	return running
}

// kill SIGKILLs every process: the power cut. The fabric stays up for
// the restart.
func (p *procs) kill() { p.signal(syscall.SIGKILL) }

// close kills every process and the fabric: a campaign's cleanup.
func (p *procs) close() {
	p.kill()
	p.fabric.Close()
}

// stop shuts every process down gracefully and requires a clean exit.
func (p *procs) stop() error {
	for i, pr := range p.signal(os.Interrupt) {
		if !pr.cmd.ProcessState.Success() {
			return fmt.Errorf("node %d graceful shutdown: %v", i, pr.cmd.ProcessState)
		}
	}
	return nil
}

// reservePorts binds n loopback listeners to pick free ports, then
// releases them for the servers to claim.
func reservePorts(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal("chaos-smoke: ", err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}
