package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"canopus/admin"
	"canopus/client"
	"canopus/internal/chaosnet"
	"canopus/internal/wire"
)

// Deployment is what a live chaos campaign may touch of a running
// cluster: what an operator has. The campaigns below are written once
// against it and run by two backends — an in-process livecluster
// (TestLiveChaosCampaigns) and real canopus-server processes
// (cmd/chaos-smoke). They observe the nodes only through canopus/client
// and canopus/admin, and act on them only through the fabric and Rejoin.
type Deployment interface {
	// Chaos is the fabric every inter-node byte crosses.
	Chaos() *chaosnet.Net
	NumNodes() int
	ClientAddr(i int) string
	AdminAddr(i int) string
	// Evicted streams the nodes that learned the cluster evicted them.
	Evicted() <-chan int
	// Rejoin restarts node i as a joiner (§4.6).
	Rejoin(i int) error
}

// Await polls cond every 10 ms until it holds or budget runs out. The
// timeout error quotes every node's /status, one line each, so a failed
// wait says where the cluster stood.
func Await(d Deployment, budget time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s:\n%s", budget, what, statusDump(d))
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// statusDump renders one line per node from its /status: phase, cycle
// watermarks, liveness verdict and every super-leaf's state.
func statusDump(d Deployment) string {
	var b strings.Builder
	for i := 0; i < d.NumNodes(); i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s, err := admin.New(d.AdminAddr(i)).Status(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(&b, "  node %d: unreachable (%v)\n", i, err)
			continue
		}
		fmt.Fprintf(&b, "  node %d: %s, started/ordered/applied %d/%d/%d, degraded %q, leaves",
			i, s.Phase, s.Started, s.Ordered, s.Applied, s.Degraded)
		for _, sl := range s.Membership {
			fmt.Fprintf(&b, " %d:alive%v", sl.Index, sl.Alive)
			if sl.Evicted {
				fmt.Fprintf(&b, "/evicted@%d", sl.EvictedAt)
			}
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// AwaitHealthy waits until every node's /healthz reports ok — past WAL
// recovery, with its client port accepting.
func AwaitHealthy(d Deployment, budget time.Duration) error {
	return Await(d, budget, "every node healthy", func() bool {
		for i := 0; i < d.NumNodes(); i++ {
			if h, err := admin.New(d.AdminAddr(i)).Health(context.Background()); err != nil || h.Status != "ok" {
				return false
			}
		}
		return true
	})
}

// Converge waits until every node reports one non-zero state digest and
// returns it.
func Converge(d Deployment, budget time.Duration) (uint64, error) {
	var state uint64
	err := Await(d, budget, "state-digest convergence", func() bool {
		ref, err := admin.New(d.AdminAddr(0)).Digest(context.Background())
		if err != nil || ref.State == 0 {
			return false
		}
		for i := 1; i < d.NumNodes(); i++ {
			if di, err := admin.New(d.AdminAddr(i)).Digest(context.Background()); err != nil || di.State != ref.State {
				return false
			}
		}
		state = ref.State
		return true
	})
	return state, err
}

// Dial opens a client on node i's client port.
func Dial(d Deployment, i int) (*client.Client, error) {
	return client.New(client.Config{Endpoints: []string{d.ClientAddr(i)}})
}

// leafAt reads node i's /status and returns the super-leaf holding id.
func leafAt(d Deployment, i int, id wire.NodeID) (admin.SuperLeaf, bool) {
	s, err := admin.New(d.AdminAddr(i)).Status(context.Background())
	if err != nil {
		return admin.SuperLeaf{}, false
	}
	for _, sl := range s.Membership {
		for _, m := range sl.Members {
			if m == int32(id) {
				return sl, true
			}
		}
	}
	return admin.SuperLeaf{}, false
}

// Eviction parameterizes the partition → evict → heal → readmit
// campaign. Victims are one whole super-leaf; Wait bounds every phase
// after the eviction, whose budget is 4×LeafTimeout.
type Eviction struct {
	LeafTimeout        time.Duration
	Victims, Survivors []wire.NodeID
	Wait               time.Duration
}

// EvictReadmit runs the super-leaf outage storyline (§6 and RCanopus'
// answer to it): blackhole the victims' leaf, require the survivors to
// evict it within 4×LeafTimeout and keep committing, heal, restart every
// node that learns it was evicted as a joiner, and require the leaf's
// readmission and one state digest on every node. It returns a one-line
// outcome summary.
func EvictReadmit(d Deployment, e Eviction) (string, error) {
	ctx := context.Background()
	ref := int(e.Survivors[0])
	cl, err := Dial(d, ref)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	for k := uint64(1); k <= 6; k++ {
		if err := cl.Put(ctx, k, []byte("pre")); err != nil {
			return "", fmt.Errorf("pre-partition put %d: %w", k, err)
		}
	}

	// Blackhole the victim leaf and immediately wedge one write inside
	// it through each member's (unproxied) client port: the cycles those
	// writes start keep retrying cross-leaf fetches, and the first retry
	// to land after the heal draws the dead-in-view Evicted notice — the
	// only way a partitioned member learns its fate (§6). The writes
	// themselves die with the eviction.
	d.Chaos().Partition(e.Survivors, e.Victims)
	cut := time.Now()
	for vi, v := range e.Victims {
		vcl, err := Dial(d, int(v))
		if err != nil {
			return "", err
		}
		defer vcl.Close()
		_ = vcl.PutAsync(200+uint64(vi), []byte("doomed"))
	}
	// The post-partition writes go in right away: eviction rounds are
	// driven by cycles wedged on the dead leaf's missing state, so the
	// survivors need in-flight load to notice the silence. They must
	// complete once the leaf is evicted.
	post := make([]*client.Future, 0, 5)
	for k := uint64(100); k < 105; k++ {
		post = append(post, cl.PutAsync(k, []byte("post")))
	}

	// Eviction, as a survivor's /status shows it.
	evictBudget := 4 * e.LeafTimeout
	if err := Await(d, evictBudget+e.Wait, "the victims' leaf evicted at a survivor", func() bool {
		sl, ok := leafAt(d, ref, e.Victims[0])
		return ok && sl.Evicted
	}); err != nil {
		return "", err
	}
	evictIn := time.Since(cut)
	if evictIn > evictBudget {
		return "", fmt.Errorf("eviction took %v, budget 4*LeafTimeout = %v", evictIn, evictBudget)
	}
	for i, f := range post {
		if _, err := f.Wait(ctx); err != nil {
			return "", fmt.Errorf("post-partition put %d: %w", i, err)
		}
	}

	// Heal; the wedged members' fetch retries now reach the survivors,
	// draw Evicted notices, and each is bounced back in as a joiner. The
	// drain restarts ANY evicted node for the rest of the campaign —
	// under real wall clocks a healthy-but-slow leaf can occasionally
	// lose the eviction race too, and the operator answer is the same
	// bounce — but the cut leaf's members must be among them.
	d.Chaos().Heal()
	healed := time.Now()
	var mu sync.Mutex
	restarted := map[int]bool{}
	var restartErr error
	drainDone, drained := make(chan struct{}), make(chan struct{})
	defer func() {
		close(drainDone)
		<-drained // no Rejoin may outlive the campaign
	}()
	go func() {
		defer close(drained)
		for {
			select {
			case i := <-d.Evicted():
				mu.Lock()
				again := restarted[i]
				restarted[i] = true
				mu.Unlock()
				if again {
					continue
				}
				if err := d.Rejoin(i); err != nil {
					mu.Lock()
					restartErr = errors.Join(restartErr, fmt.Errorf("rejoin node %d: %w", i, err))
					mu.Unlock()
				}
			case <-drainDone:
				return
			}
		}
	}()
	if err := Await(d, e.Wait, "the cut leaf's members to learn their eviction", func() bool {
		mu.Lock()
		defer mu.Unlock()
		if restartErr != nil {
			return true
		}
		for _, v := range e.Victims {
			if !restarted[int(v)] {
				return false
			}
		}
		return true
	}); err != nil {
		return "", err
	}
	mu.Lock()
	err = restartErr
	mu.Unlock()
	if err != nil {
		return "", err
	}

	// Readmission at a survivor, then one state digest everywhere —
	// the rejoined joiners' included.
	if err := Await(d, e.Wait, "the victims' leaf alive again at a survivor", func() bool {
		sl, ok := leafAt(d, ref, e.Victims[0])
		return ok && !sl.Evicted && len(sl.Alive) > 0
	}); err != nil {
		return "", err
	}
	state, err := Converge(d, e.Wait)
	if err != nil {
		return "", err
	}
	readmitIn := time.Since(healed)

	// The rejoined member serves a post-partition write.
	vcl, err := Dial(d, int(e.Victims[0]))
	if err != nil {
		return "", err
	}
	defer vcl.Close()
	if v, err := vcl.Get(ctx, 104); err != nil || string(v) != "post" {
		return "", fmt.Errorf("Get(104) via rejoined node = %q, %v", v, err)
	}
	mu.Lock()
	extra := len(restarted) - len(e.Victims)
	mu.Unlock()
	line := fmt.Sprintf("evicted in %v, readmitted in %v, digest %016x on all %d nodes",
		evictIn.Round(time.Millisecond), readmitIn.Round(time.Millisecond), state, d.NumNodes())
	if extra > 0 {
		line += fmt.Sprintf(" (+%d bystander evictions bounced)", extra)
	}
	return line, nil
}

// Stall parameterizes the asymmetric-partition stall campaign: Wedged is
// a node alone in its super-leaf with StallThreshold armed, Majority the
// rest of the cluster.
type Stall struct {
	Threshold time.Duration
	Majority  []wire.NodeID
	Wedged    wire.NodeID
	Wait      time.Duration
}

// StallDetect cuts only the inbound direction of the wedged node's links
// (majority → wedged): its traffic still reaches the majority, but every
// fetch reply falls into the blackhole — the half-open failure only a
// per-directed-link fabric can produce. Its stall detector must flip
// /healthz to "degraded: stalled", and the heal must release both the
// write wedged at it and the health report, with no restart anywhere.
func StallDetect(d Deployment, s Stall) (string, error) {
	ctx := context.Background()
	cl, err := Dial(d, int(s.Majority[0]))
	if err != nil {
		return "", err
	}
	defer cl.Close()
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		return "", err
	}
	ac := admin.New(d.AdminAddr(int(s.Wedged)))
	if h, err := ac.Health(ctx); err != nil || h.Status != "ok" {
		return "", fmt.Errorf("pre-fault health = %+v, %v", h, err)
	}

	// The write through the wedged node's unproxied client port starts
	// the cycle it can never commit: the detector needs local evidence
	// of wedged progress.
	d.Chaos().PartitionDirected(s.Majority, []wire.NodeID{s.Wedged})
	cut := time.Now()
	wcl, err := Dial(d, int(s.Wedged))
	if err != nil {
		return "", err
	}
	defer wcl.Close()
	f := wcl.PutAsync(2, []byte("b"))
	if err := Await(d, 10*s.Threshold+s.Wait, "the wedged node's /healthz degraded", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "degraded: stalled"
	}); err != nil {
		return "", err
	}
	detectIn := time.Since(cut)
	if st, err := ac.Status(ctx); err != nil || st.Degraded != "stalled" {
		return "", fmt.Errorf("degraded /status = %+v, %v", st, err)
	}

	d.Chaos().Heal()
	if _, err := f.Wait(ctx); err != nil {
		return "", fmt.Errorf("write wedged at node %d across the heal: %w", s.Wedged, err)
	}
	if err := Await(d, s.Wait, "the wedged node's /healthz ok again", func() bool {
		h, err := ac.Health(ctx)
		return err == nil && h.Status == "ok"
	}); err != nil {
		return "", err
	}
	if st, err := ac.Status(ctx); err != nil || st.Degraded != "" {
		return "", fmt.Errorf("post-heal /status = %+v, %v", st, err)
	}
	return fmt.Sprintf("stall detected in %v (threshold %v), recovered after heal",
		detectIn.Round(time.Millisecond), s.Threshold), nil
}
