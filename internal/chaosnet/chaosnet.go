// Package chaosnet is the live chaos plane: a per-link TCP proxy fabric
// for injecting faults between real cluster processes.
//
// The fabric holds one proxy per *directed* peer pair (i→j): node i's
// transport dials proxy(i→j) instead of j's real listener, and the proxy
// forwards to j. Because every inter-node byte crosses its own proxy,
// impairments can be asymmetric (i→j broken while j→i flows) and
// per-link (one WAN span slow, the rest fast) — the failure shapes
// Canopus §6 and the RCanopus geo model care about, produced on real
// sockets instead of the simulator's virtual clock.
//
// Impairments, all runtime-switchable while connections are live:
//
//   - latency: one-way store-and-forward delay per link, or a DC-pair
//     delay matrix built from netsim's WAN classes (ApplyDelayMatrix).
//   - drop: probability per forwarded chunk of a hard connection reset
//     (TCP cannot lose bytes mid-stream without corrupting framing, so
//     loss manifests as resets — which is exactly what exercises the
//     transport's redial/backoff path).
//   - partition: blackhole. Existing connections are killed; new ones
//     are accepted but nothing is forwarded and inbound bytes are
//     discarded, so the victim sees silence (the failure LeafTimeout
//     detects), not errors. Heal closes the blackholed zombies so
//     senders redial through the now-healthy path within one backoff.
//
// The fabric is a Go API with no text form: livecluster.Config.Chaos
// routes an in-process cluster's transport through one (Cluster.Chaos),
// and cmd/chaos-smoke builds one around canopus-server processes; both,
// the harness's live campaigns and the benchmark call Net's methods.
package chaosnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"canopus/internal/wire"
)

// Config configures a fabric.
type Config struct {
	// Logf, when set, receives per-fault log lines.
	Logf func(format string, args ...any)
	// Seed seeds the drop-decision RNG (0 means 1). Drop timing over
	// real sockets is inherently nondeterministic; the seed only pins
	// the decision sequence.
	Seed int64
}

// Net is a fabric of directed-link proxies. All methods are safe for
// concurrent use.
type Net struct {
	logf func(format string, args ...any)

	mu     sync.Mutex
	links  map[linkKey]*link
	rng    *rand.Rand
	closed bool
}

type linkKey struct{ from, to wire.NodeID }

// New creates an empty fabric.
func New(cfg Config) *Net {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Net{
		logf:  logf,
		links: make(map[linkKey]*link),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// AddLink creates the directed proxy from→to forwarding to upstream
// (to's real transport address) and returns the proxy's listen address,
// which belongs in from's peer table as the address "of" to.
func (n *Net) AddLink(from, to wire.NodeID, upstream string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("chaosnet: listen for link %d->%d: %w", from, to, err)
	}
	l := &link{
		net:      n,
		from:     from,
		to:       to,
		upstream: upstream,
		ln:       ln,
		conns:    make(map[*linkConn]struct{}),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return "", errors.New("chaosnet: fabric closed")
	}
	if _, dup := n.links[linkKey{from, to}]; dup {
		n.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("chaosnet: duplicate link %d->%d", from, to)
	}
	n.links[linkKey{from, to}] = l
	n.mu.Unlock()
	go l.serve()
	return ln.Addr().String(), nil
}

func (n *Net) forEachLink(fn func(*link)) {
	n.mu.Lock()
	ls := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		ls = append(ls, l)
	}
	n.mu.Unlock()
	for _, l := range ls {
		fn(l)
	}
}

// SetLatency sets the one-way delay applied to bytes flowing from→to.
func (n *Net) SetLatency(from, to wire.NodeID, oneWay time.Duration) {
	if l := n.link(from, to); l != nil {
		l.latency.Store(int64(oneWay))
	}
}

// SetDrop sets the probability, per forwarded chunk on the from→to
// link, of a forced connection reset. p is clamped to [0,1].
func (n *Net) SetDrop(from, to wire.NodeID, p float64) {
	if l := n.link(from, to); l != nil {
		l.dropPerMillion.Store(perMillion(p))
	}
}

// ApplyDelayMatrix sets per-link latency from a DC-pair delay matrix
// (e.g. netsim.GeoWANDelay output): link i→j gets m[dc(i)][dc(j)].
func (n *Net) ApplyDelayMatrix(dc func(wire.NodeID) int, m [][]time.Duration) {
	n.forEachLink(func(l *link) {
		i, j := dc(l.from), dc(l.to)
		if i >= 0 && i < len(m) && j >= 0 && j < len(m[i]) {
			l.latency.Store(int64(m[i][j]))
		}
	})
	n.logf("chaosnet: applied %d-DC delay matrix", len(m))
}

// Partition blackholes every link between group a and group b, in both
// directions. Existing connections are reset; new ones are silently
// discarded until Heal.
func (n *Net) Partition(a, b []wire.NodeID) {
	inA, inB := idSet(a), idSet(b)
	n.forEachLink(func(l *link) {
		if (inA[l.from] && inB[l.to]) || (inB[l.from] && inA[l.to]) {
			l.block()
		}
	})
	n.logf("chaosnet: partition %v | %v", a, b)
}

// PartitionDirected blackholes only the links from group a to group b —
// an asymmetric partition: a's traffic to b vanishes while b can still
// reach a.
func (n *Net) PartitionDirected(a, b []wire.NodeID) {
	inA, inB := idSet(a), idSet(b)
	n.forEachLink(func(l *link) {
		if inA[l.from] && inB[l.to] {
			l.block()
		}
	})
	n.logf("chaosnet: partition (directed) %v -> %v", a, b)
}

// Heal lifts every partition. Blackholed zombie connections are closed
// so senders redial through the healthy path; latency and drop
// settings are left in place.
func (n *Net) Heal() {
	n.forEachLink(func(l *link) { l.unblock() })
	n.logf("chaosnet: heal")
}

// Close shuts down every proxy and connection. The fabric cannot be
// reused.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ls := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		ls = append(ls, l)
	}
	n.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
}

func (n *Net) link(from, to wire.NodeID) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[linkKey{from, to}]
}

func (n *Net) dropNow(pm int64) bool {
	if pm <= 0 {
		return false
	}
	n.mu.Lock()
	v := n.rng.Int63n(1_000_000)
	n.mu.Unlock()
	return v < pm
}

func perMillion(p float64) int64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1_000_000
	}
	return int64(p * 1_000_000)
}

func idSet(ids []wire.NodeID) map[wire.NodeID]bool {
	m := make(map[wire.NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// link is one directed proxy.
type link struct {
	net      *Net
	from, to wire.NodeID
	upstream string
	ln       net.Listener

	latency        atomic.Int64 // one-way delay, ns
	dropPerMillion atomic.Int64 // reset probability per chunk, in 1e-6
	blocked        atomic.Bool
	closed         atomic.Bool

	connMu sync.Mutex
	conns  map[*linkConn]struct{}
}

type linkConn struct {
	mu   sync.Mutex
	down net.Conn
	up   net.Conn
}

func (c *linkConn) setUp(up net.Conn) {
	c.mu.Lock()
	c.up = up
	c.mu.Unlock()
}

func (c *linkConn) close() {
	c.mu.Lock()
	down, up := c.down, c.up
	c.mu.Unlock()
	if down != nil {
		down.Close()
	}
	if up != nil {
		up.Close()
	}
}

func (l *link) serve() {
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		go l.handle(c)
	}
}

func (l *link) handle(down net.Conn) {
	lc := &linkConn{down: down}
	l.track(lc)
	defer l.untrack(lc)
	defer lc.close()

	if l.blocked.Load() {
		// Blackhole: swallow inbound bytes so the sender's writes keep
		// "succeeding" into silence. Heal/close kills the conn.
		io.Copy(io.Discard, down)
		return
	}
	up, err := net.DialTimeout("tcp", l.upstream, 2*time.Second)
	if err != nil {
		return
	}
	lc.setUp(up)
	done := make(chan struct{}, 1)
	go func() {
		// Return path (to→from replies on the same TCP stream): plain
		// forwarding; directed impairments live on the to→from link's
		// own proxy.
		io.Copy(down, up)
		lc.close()
		done <- struct{}{}
	}()
	l.forward(lc)
	<-done
}

// forward pumps down→up applying the link's impairments. Latency is
// store-and-forward through a delay queue so a burst of chunks shares
// one propagation delay instead of summing per-chunk sleeps.
func (l *link) forward(lc *linkConn) {
	type chunk struct {
		b   []byte
		due time.Time
	}
	ch := make(chan chunk, 256)
	go func() {
		defer close(ch)
		buf := make([]byte, 32*1024)
		for {
			n, err := lc.down.Read(buf)
			if n > 0 {
				if l.net.dropNow(l.dropPerMillion.Load()) {
					l.net.logf("chaosnet: reset link %d->%d", l.from, l.to)
					lc.close()
					return
				}
				b := make([]byte, n)
				copy(b, buf[:n])
				ch <- chunk{b, time.Now().Add(time.Duration(l.latency.Load()))}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := lc.up.Write(c.b); err != nil {
			lc.close()
			break
		}
	}
	for range ch { // unblock the reader if we bailed early
	}
}

func (l *link) track(lc *linkConn) {
	l.connMu.Lock()
	l.conns[lc] = struct{}{}
	l.connMu.Unlock()
}

func (l *link) untrack(lc *linkConn) {
	l.connMu.Lock()
	delete(l.conns, lc)
	l.connMu.Unlock()
}

func (l *link) closeConns() {
	l.connMu.Lock()
	cs := make([]*linkConn, 0, len(l.conns))
	for lc := range l.conns {
		cs = append(cs, lc)
	}
	l.connMu.Unlock()
	for _, lc := range cs {
		lc.close()
	}
}

func (l *link) block() {
	if !l.blocked.Swap(true) {
		l.closeConns()
	}
}

func (l *link) unblock() {
	if l.blocked.Swap(false) {
		// Any surviving conns on a blocked link are blackholed zombies;
		// kill them so the sender redials through the healthy proxy.
		l.closeConns()
	}
}

func (l *link) close() {
	if l.closed.Swap(true) {
		return
	}
	l.ln.Close()
	l.closeConns()
}
