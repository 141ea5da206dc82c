package harness

import (
	"errors"
	"math/rand"
	"time"

	"canopus/internal/clientio"
	"canopus/internal/livecluster"
	"canopus/internal/wire"
)

// linkDelay is a simulated client link's one-way delay, the same to every
// node: a link follows neither the topology's WAN latencies nor the fault
// plan's partitions, so a client of a cut leaf fails over at LAN latency.
const linkDelay = 100 * time.Microsecond

var errLink = errors.New("harness: connection refused or reset")

// clientEnv is one simulated client's clientio.Env: the simulator's
// clock, a Rand of its own drawn from the run's seed, and links to the
// nodes in its endpoint order — endpoint i is node (home+i) mod n.
type clientEnv struct {
	r    *chaosRun
	rng  *rand.Rand
	home int
}

func (e *clientEnv) Rand() *rand.Rand                { return e.rng }
func (e *clientEnv) After(d time.Duration, f func()) { e.r.sim.After(d, f) }

// Dial connects after one link delay to the node's serving incarnation,
// or is refused by a node that is down.
func (e *clientEnv) Dial(i int, c clientio.Conn) {
	node := wire.NodeID((e.home + i) % len(e.r.nodes))
	e.r.sim.After(linkDelay, func() {
		if !e.r.runner.Alive(node) {
			c.Down(errLink)
			return
		}
		l := &simLink{r: e.r, node: node, c: c, port: e.r.ports[node]}
		l.cc = l.port.Connect(l.answered, nil)
		e.r.links = append(e.r.links, l)
		c.Up(l)
	})
}

// simLink is one client connection over the simulated network: a fixed
// one-way delay each way, FIFO, resettable. Frames cross it as the bytes
// the socket drivers would write, into the node's port rules and back.
type simLink struct {
	r    *chaosRun
	node wire.NodeID
	c    clientio.Conn // the client machine's side
	port *livecluster.ClientPort
	cc   *livecluster.Conn // the port's side
	dead bool
}

// Write carries request frames to the port.
func (l *simLink) Write(b []byte) {
	b = append([]byte(nil), b...)
	l.r.sim.After(linkDelay, func() {
		if !l.dead && l.cc.Serve(b) != nil {
			l.reset()
		}
	})
}

// answered is the port's wake: it carries the answers buffered so far.
func (l *simLink) answered() {
	if buf, _ := l.cc.Take(); len(buf) > 0 {
		l.r.sim.After(linkDelay, func() {
			if !l.dead && wire.EachClientFrame(buf, l.c.Frame) != nil {
				l.reset()
			}
			wire.EncodePool.Put(buf)
		})
	}
}

// Close is the client hanging up. reset cuts the link under both ends:
// the port forgets the connection at once, the client learns one delay
// later, and what is in flight is lost.
func (l *simLink) Close() { l.cut() }
func (l *simLink) reset() {
	if l.cut() {
		l.r.sim.After(linkDelay, func() { l.c.Down(errLink) })
	}
}

func (l *simLink) cut() bool {
	if l.dead {
		return false
	}
	l.dead = true
	l.port.Disconnect(l.cc)
	return true
}

// resetLinks resets every open client link to node id, or to every node
// when id < 0.
func (r *chaosRun) resetLinks(id int) {
	open := r.links[:0]
	for _, l := range r.links {
		if !l.dead && (id < 0 || l.node == wire.NodeID(id)) {
			l.reset()
		}
		if !l.dead {
			open = append(open, l)
		}
	}
	clear(r.links[len(open):])
	r.links = open
}
