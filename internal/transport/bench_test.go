package transport

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// nullMachine is an inert machine for benchmark senders.
type nullMachine struct{}

func (nullMachine) Init(engine.Env)                {}
func (nullMachine) Timer(engine.TimerTag)          {}
func (nullMachine) Recv(wire.NodeID, wire.Message) {}

// discardSink accepts TCP connections and counts discarded bytes, so
// send-path benchmarks measure only sender-side allocations (a second
// Runner would add its decode allocations to the same process totals).
func discardSink(b *testing.B) (addr string, received *atomic.Int64) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	received = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64<<10)
				for {
					n, err := conn.Read(buf)
					received.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	b.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), received
}

func benchSender(b *testing.B) (*Runner, *atomic.Int64) {
	b.Helper()
	addr, received := discardSink(b)
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{1: addr}, 3)
	if err != nil {
		b.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	r.Attach(nullMachine{})
	go r.Serve(nil)
	b.Cleanup(func() { r.Close() })
	return r, received
}

// benchProposal is a realistic round-1 proposal: a 100-write batch of the
// paper's 16-byte key-value requests.
func benchProposal() *wire.Proposal {
	reqs := make([]wire.Request, 100)
	for i := range reqs {
		reqs[i] = wire.Request{
			Client: uint64(i % 10), Seq: uint64(i), Op: wire.OpWrite,
			Key: uint64(i), Val: []byte("12345678"),
		}
	}
	return &wire.Proposal{
		Cycle: 7, Round: 1, Origin: 0, Num: 42,
		Batches: []*wire.Batch{{Origin: 0, Reqs: reqs, NumWrite: 100}},
	}
}

// BenchmarkSendPath measures the transport send hot path: encode a
// realistic proposal inside one Invoke turn and write it to a live
// loopback socket. Run with -benchmem when touching this path; the
// end-to-end allocation budget (which includes this path) is
// benchmark/'s allocs_per_req, which CI's live-smoke job gates.
func BenchmarkSendPath(b *testing.B) {
	r, received := benchSender(b)
	msg := benchProposal()
	frameLen := int64(msg.WireSize() + 8)
	b.ReportAllocs()
	b.SetBytes(frameLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invoke(func() { r.Send(1, msg) })
	}
	// Drain so iterations measure steady-state sends, not queue growth.
	waitDrained(b, r, received, frameLen*int64(b.N))
}

// waitDrained blocks until the sink saw want bytes or the sender's queue
// is empty (under backpressure the transport may legally drop batches).
func waitDrained(b *testing.B, r *Runner, received *atomic.Int64, want int64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for received.Load() < want {
		if r.Drain(10*time.Millisecond) && received.Load() < want {
			// Queue empty yet bytes short: batches were dropped under
			// backpressure; nothing further will arrive.
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("drain stalled: %d of %d bytes", received.Load(), want)
		}
	}
}

// BenchmarkSendPathBurst sends 16 messages per Invoke turn: the shape of
// a Canopus node fanning a cycle's traffic out to its super-leaf. With
// write coalescing this is one buffer flush per turn, not sixteen
// per-frame syscalls.
func BenchmarkSendPathBurst(b *testing.B) {
	r, received := benchSender(b)
	msg := benchProposal()
	const burst = 16
	frameLen := int64(msg.WireSize() + 8)
	b.ReportAllocs()
	b.SetBytes(frameLen * burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invoke(func() {
			for j := 0; j < burst; j++ {
				r.Send(1, msg)
			}
		})
	}
	waitDrained(b, r, received, frameLen*int64(b.N)*burst)
}

// burstMachine signals every time it has received another full burst.
type burstMachine struct {
	burst, n int
	done     chan struct{}
}

func (m *burstMachine) Init(engine.Env)       {}
func (m *burstMachine) Timer(engine.TimerTag) {}
func (m *burstMachine) Recv(wire.NodeID, wire.Message) {
	if m.n++; m.n%m.burst == 0 {
		m.done <- struct{}{}
	}
}

// recvBurstAllocCeiling is the committed ceiling on what the receive path
// may allocate per frame of Raft control traffic. Steady state is zero;
// the slack absorbs the runtime's own background allocations.
const recvBurstAllocCeiling = 0.25

// BenchmarkRecvBurst measures the receive hot path over a loopback socket:
// per iteration, a peer writes 64 frames of Raft control traffic (the
// appends, replies and commit notices of a round-1 broadcast) in one
// segment and waits until the machine has seen them. frames/read is how
// many frames one read syscall — one machine turn — delivered; with a read
// per frame header and another per body it was 0.5. allocs/frame fails the
// benchmark above recvBurstAllocCeiling.
func BenchmarkRecvBurst(b *testing.B) {
	const burst = 64
	m := &burstMachine{burst: burst, done: make(chan struct{}, 1)}
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{}, 3)
	if err != nil {
		b.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	r.Attach(m)
	go r.Serve(nil)
	b.Cleanup(r.Close)
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })

	var segment []byte
	for i := 0; i < burst; i += 2 {
		segment = appendFrame(segment, 1, &wire.RaftAppend{Group: 1, Term: 1, Leader: 1, PrevIndex: uint64(i), PrevTerm: 1, Commit: uint64(i)})
		segment = appendFrame(segment, 1, &wire.RaftAppendReply{Group: 2, Term: 1, From: 1, Success: true, Match: uint64(i)})
	}
	send := func() {
		if _, err := conn.Write(segment); err != nil {
			b.Fatal(err)
		}
		<-m.done
	}
	for i := 0; i < 16; i++ {
		send() // grow the reader's scratch
	}
	// Measured over a fixed number of bursts of its own, so that
	// -benchtime=1x (the CI drift pass) reports the same thing.
	const measured = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reads := r.stats.reads.Load()
	for i := 0; i < measured; i++ {
		send()
	}
	reads = r.stats.reads.Load() - reads
	runtime.ReadMemStats(&after)
	allocsPerFrame := float64(after.Mallocs-before.Mallocs) / (measured * burst)

	b.SetBytes(int64(len(segment)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.ReportMetric(float64(measured*burst)/float64(reads), "frames/read")
	b.ReportMetric(allocsPerFrame, "allocs/frame")
	if allocsPerFrame > recvBurstAllocCeiling {
		b.Fatalf("receive path allocates %.2f objects per frame, ceiling %.2f", allocsPerFrame, recvBurstAllocCeiling)
	}
}

// rearmMachine is a node's tick: a timer whose handler arms the next.
type rearmMachine struct {
	env  engine.Env
	left int
	done chan struct{}
}

func (m *rearmMachine) Init(env engine.Env)            { m.env = env }
func (m *rearmMachine) Recv(wire.NodeID, wire.Message) {}
func (m *rearmMachine) Timer(tag engine.TimerTag) {
	if m.left--; m.left == 0 {
		m.done <- struct{}{}
		return
	}
	m.env.After(10*time.Microsecond, tag)
}

// timerRearmAllocCeiling is the committed ceiling on heap objects per
// Runner.After. Steady state is zero — the deadline goes into the runner's
// heap and its one time.Timer is reset; time.AfterFunc per call cost a
// timer and a closure. The slack absorbs the runtime's own background
// allocations.
const timerRearmAllocCeiling = 0.05

// BenchmarkTimerRearm measures a timer chain — every handler arms the next
// timer, as a node's tick and cycle timers do: allocs/After fails the
// benchmark above timerRearmAllocCeiling.
func BenchmarkTimerRearm(b *testing.B) {
	m := &rearmMachine{done: make(chan struct{}, 1)}
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{}, 3)
	if err != nil {
		b.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	r.Attach(m)
	b.Cleanup(r.Close)
	chain := func(n int) {
		r.Invoke(func() {
			m.left = n
			r.After(0, 1)
		})
		<-m.done
	}
	chain(64) // grow the heap
	// Measured over a fixed number of timers of its own, so that
	// -benchtime=1x (the CI drift pass) reports the same thing.
	const measured = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chain(measured)
	runtime.ReadMemStats(&after)
	allocsPerAfter := float64(after.Mallocs-before.Mallocs) / measured

	b.ResetTimer()
	chain(b.N)
	b.ReportMetric(allocsPerAfter, "allocs/After")
	if allocsPerAfter > timerRearmAllocCeiling {
		b.Fatalf("After allocates %.2f objects, ceiling %.2f", allocsPerAfter, timerRearmAllocCeiling)
	}
}
