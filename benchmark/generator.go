package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"canopus/client"
)

// minSleep is the shortest sleep of an open-loop generator. Sleeping
// until each request's exact due time would wake a goroutine per request;
// with this floor a generator wakes at most 10 000 times a second and
// hands over everything that has come due, at the cost of up to 100 µs of
// lateness, which is reported as gen.late_p99_us. See pacer for how it
// sleeps.
const minSleep = 100 * time.Microsecond

// sendGrace is how long after the end of a phase a late generator may
// still hand over requests; what is left after that counts as unsent.
const sendGrace = 100 * time.Millisecond

// gen is one generator goroutine and the client connection it drives.
type gen struct {
	conn, conns int
	cl          *client.Client
	keys        *keyState
	pacer       *pacer
	inflight    atomic.Int64

	// mu guards the free list and, through slot.complete, the latency
	// slices of the running phase: the generator pops slots, the client's
	// reader goroutine records a reply and pushes the slot back.
	mu   sync.Mutex
	free []*slot

	issueMu sync.Mutex // closed loop only, see issueNext
}

// slot carries one outstanding request. Slots are recycled so that the
// generator allocates nothing per request: the completion callback is
// bound once, when the slot is made.
type slot struct {
	g     *gen
	ph    *phaseRun
	idx   int32
	key   uint32
	ctr   uint32
	write bool
	val   []byte
	done  func(ok bool)
}

// phaseRun is one connection's share of one slice of a phase.
type phaseRun struct {
	base  time.Time
	durNs int64
	sched []op // open loop only

	// Per request of sched; see the lat* states in recorder.go.
	lat  []int32 // µs from due to reply
	late []int32 // µs from due to hand-over to the client
	// callNs, when non-nil (traced runs), is the time inside AsyncOk.
	callNs []int32

	// Closed loop only.
	closed    bool
	rng       *rand.Rand
	writeFrac float64
	completed atomic.Int64 // replies that arrived inside the phase
	failed    atomic.Int64
}

func newGen(conn, conns int, cl *client.Client, keys *keyState) *gen {
	return &gen{conn: conn, conns: conns, cl: cl, keys: keys, pacer: newPacer()}
}

func (g *gen) getSlot() *slot {
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		s := g.free[n-1]
		g.free = g.free[:n-1]
		g.mu.Unlock()
		return s
	}
	g.mu.Unlock()
	s := &slot{g: g, val: make([]byte, g.keys.valueBytes)}
	s.done = s.complete
	return s
}

// prepare fills the slot's operation in; a write takes the key's next
// counter. The caller is the only goroutine touching g.keys.issued: the
// generator in an open loop, whoever holds g.issueMu in a closed loop.
func (g *gen) prepare(s *slot, key uint32, write bool) {
	s.key, s.write = key, write
	if write {
		s.ctr = g.keys.issued[key] + 1
		g.keys.issued[key] = s.ctr
	}
}

// issueNext sends the closed loop's next operation in the slot. While the
// window fills, the generator and the client's reader goroutine both
// issue; issueMu keeps drawing a counter and putting it on the wire one
// step, so that writes to a key reach the connection in counter order.
func (g *gen) issueNext(s *slot, ph *phaseRun) {
	g.issueMu.Lock()
	g.prepare(s, keyFor(ph.rng, g.conn, g.conns), ph.rng.Float64() < ph.writeFrac)
	g.send(s)
	g.issueMu.Unlock()
}

// send hands the prepared slot to the client.
func (g *gen) send(s *slot) {
	o := client.Op{Kind: client.OpGet, Key: uint64(s.key)}
	if s.write {
		putValue(s.val, s.key, s.ctr)
		o.Kind, o.Val = client.OpPut, s.val
	}
	g.inflight.Add(1)
	g.cl.AsyncOk(o, s.done)
}

// runOpen hands over ph.sched on schedule and returns when the last
// request is handed over or the phase is over.
func (g *gen) runOpen(ph *phaseRun) {
	for i := 0; i < len(ph.sched); {
		now := int64(time.Since(ph.base))
		due := ph.sched[i].dueNs
		if now < due {
			d := time.Duration(due - now)
			if d < minSleep {
				d = minSleep
			}
			g.pacer.sleep(d)
			continue
		}
		if now > ph.durNs+int64(sendGrace) {
			return // the rest stays latUnsent
		}
		s := g.getSlot()
		s.ph, s.idx = ph, int32(i)
		ph.late[i] = int32((now - due) / 1000)
		ph.lat[i] = latUnanswered
		g.prepare(s, ph.sched[i].key, ph.sched[i].write)
		if ph.callNs != nil {
			t := time.Now()
			g.send(s)
			ph.callNs[i] = int32(time.Since(t))
		} else {
			g.send(s)
		}
		i++
	}
}

// runClosed fills the window; from then on every reply issues the next
// request from the client's reader goroutine, until the phase is over.
func (g *gen) runClosed(ph *phaseRun) {
	for i := 0; i < satWindow; i++ {
		s := g.getSlot()
		s.ph = ph
		g.issueNext(s, ph)
	}
}

// complete is the reply callback. It runs on the client's reader
// goroutine (or inside AsyncOk when the request cannot be issued) and
// must not block.
func (s *slot) complete(ok bool) {
	g, ph := s.g, s.ph
	now := int64(time.Since(ph.base))
	if ok && s.write && s.ctr > g.keys.acked[s.key] {
		g.keys.acked[s.key] = s.ctr
	}
	if ph.closed {
		if !ok {
			// Do not re-issue: a refused request completes inside
			// AsyncOk, and answering it with another would recurse.
			ph.failed.Add(1)
		} else if now <= ph.durNs {
			ph.completed.Add(1)
			g.inflight.Add(-1)
			g.issueNext(s, ph)
			return
		}
		g.inflight.Add(-1)
		g.mu.Lock()
		g.free = append(g.free, s)
		g.mu.Unlock()
		return
	}
	g.mu.Lock()
	if ok {
		ph.lat[s.idx] = int32((now - ph.sched[s.idx].dueNs) / 1000)
	} else {
		ph.lat[s.idx] = latFailed
	}
	g.free = append(g.free, s)
	g.mu.Unlock()
	g.inflight.Add(-1)
}
