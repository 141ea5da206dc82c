package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

type countMachine struct {
	mu   sync.Mutex
	env  engine.Env
	got  []wire.Message
	echo bool
}

func (m *countMachine) Init(env engine.Env)   { m.env = env }
func (m *countMachine) Timer(engine.TimerTag) {}
func (m *countMachine) Recv(from wire.NodeID, msg wire.Message) {
	m.got = append(m.got, msg)
	if m.echo {
		m.env.Send(from, &wire.JoinRequest{From: m.env.ID(), Nonce: 99})
	}
}

func TestTCPRoundTrip(t *testing.T) {
	peers := map[wire.NodeID]string{}
	var runners []*Runner
	for i := 0; i < 2; i++ {
		r, err := NewRunner(wire.NodeID(i), "127.0.0.1:0", peers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Logf = func(string, ...interface{}) {}
		peers[wire.NodeID(i)] = r.Addr().String()
		runners = append(runners, r)
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()
	a, b := &countMachine{}, &countMachine{echo: true}
	runners[0].Attach(a)
	runners[1].Attach(b)
	go runners[0].Serve(nil)
	go runners[1].Serve(nil)

	runners[0].Invoke(func() {
		a.env.Send(1, &wire.JoinRequest{From: 0, Nonce: 42})
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var done bool
		runners[0].Invoke(func() { done = len(a.got) == 1 })
		if done {
			p := a.got[0].(*wire.JoinRequest)
			if p.Nonce != 99 {
				t.Fatalf("echo seq = %d", p.Nonce)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("echo never arrived")
}

func TestFrameEncoding(t *testing.T) {
	msg := &wire.JoinRequest{From: 3, Nonce: 7}
	f := appendFrame(nil, 3, msg)
	if len(f) != 8+msg.WireSize() {
		t.Fatalf("frame length %d", len(f))
	}
	// Two frames appended to one buffer decode back to back.
	f = appendFrame(f, 3, &wire.JoinRequest{From: 3, Nonce: 8})
	if len(f) != 2*(8+msg.WireSize()) {
		t.Fatalf("coalesced length %d", len(f))
	}
	for i := 0; i < 2; i++ {
		m, n, err := wire.Decode(f[8 : 8+msg.WireSize()])
		if err != nil || n != msg.WireSize() {
			t.Fatalf("decode frame %d: %v (n=%d)", i, err, n)
		}
		if m.(*wire.JoinRequest).Nonce != uint64(7+i) {
			t.Fatalf("frame %d seq = %d", i, m.(*wire.JoinRequest).Nonce)
		}
		f = f[8+msg.WireSize():]
	}
}

// TestTurnCoalescing checks that many sends inside one Invoke turn all
// arrive, in order, at the peer (they travel as one coalesced buffer).
func TestTurnCoalescing(t *testing.T) {
	peers := map[wire.NodeID]string{}
	var runners []*Runner
	for i := 0; i < 2; i++ {
		r, err := NewRunner(wire.NodeID(i), "127.0.0.1:0", peers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Logf = func(string, ...interface{}) {}
		peers[wire.NodeID(i)] = r.Addr().String()
		runners = append(runners, r)
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()
	a, b := &countMachine{}, &countMachine{}
	runners[0].Attach(a)
	runners[1].Attach(b)
	go runners[0].Serve(nil)
	go runners[1].Serve(nil)

	const n = 500
	runners[0].Invoke(func() {
		for i := 0; i < n; i++ {
			a.env.Send(1, &wire.JoinRequest{From: 0, Nonce: uint64(i)})
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var got []wire.Message
		runners[1].Invoke(func() { got = append([]wire.Message(nil), b.got...) })
		if len(got) == n {
			for i, m := range got {
				if m.(*wire.JoinRequest).Nonce != uint64(i) {
					t.Fatalf("message %d has seq %d (reordered)", i, m.(*wire.JoinRequest).Nonce)
				}
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("coalesced turn never fully arrived")
}

// TestConcurrentSendersAndClose races the write-coalescing path: many
// goroutines Invoke sends and multicasts while timers fire and the
// runner eventually closes mid-traffic. Run under -race in CI.
func TestConcurrentSendersAndClose(t *testing.T) {
	peers := map[wire.NodeID]string{}
	var runners []*Runner
	for i := 0; i < 3; i++ {
		r, err := NewRunner(wire.NodeID(i), "127.0.0.1:0", peers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Logf = func(string, ...interface{}) {}
		peers[wire.NodeID(i)] = r.Addr().String()
		runners = append(runners, r)
	}
	machines := make([]*countMachine, 3)
	for i, r := range runners {
		machines[i] = &countMachine{}
		r.Attach(machines[i])
		go r.Serve(nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := machines[g%3]
			r := runners[g%3]
			for i := 0; i < 200; i++ {
				r.Invoke(func() {
					m.env.Send(wire.NodeID((g+1)%3), &wire.JoinRequest{From: wire.NodeID(g % 3), Nonce: uint64(i)})
					m.env.Multicast([]wire.NodeID{0, 1, 2}, &wire.JoinRequest{From: wire.NodeID(g % 3), Nonce: uint64(i)})
				})
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	runners[2].Close() // close one runner mid-traffic
	wg.Wait()
	runners[0].Drain(time.Second)
	runners[0].Close()
	runners[1].Close()
}

// TestDrain verifies Drain reports completion only after queued bytes
// reach the kernel.
func TestDrain(t *testing.T) {
	peers := map[wire.NodeID]string{}
	var runners []*Runner
	for i := 0; i < 2; i++ {
		r, err := NewRunner(wire.NodeID(i), "127.0.0.1:0", peers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Logf = func(string, ...interface{}) {}
		peers[wire.NodeID(i)] = r.Addr().String()
		runners = append(runners, r)
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()
	a, b := &countMachine{}, &countMachine{}
	runners[0].Attach(a)
	runners[1].Attach(b)
	go runners[0].Serve(nil)
	go runners[1].Serve(nil)
	const n = 100
	for i := 0; i < n; i++ {
		runners[0].Invoke(func() { a.env.Send(1, &wire.JoinRequest{From: 0, Nonce: 1}) })
	}
	if !runners[0].Drain(2 * time.Second) {
		t.Fatal("Drain timed out")
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Logf = func(string, ...interface{}) {}
	m := &countMachine{}
	r.Attach(m)
	// Must not panic or block.
	r.Invoke(func() { m.env.Send(9, &wire.JoinRequest{From: 0}) })
	time.Sleep(50 * time.Millisecond)
}

// sizeOnly has a modeled size and no encoding, like the simulator-only
// baselines' messages.
type sizeOnly struct{}

func (*sizeOnly) WireSize() int { return 1 }

// TestSendRefusesAMessageWithoutEncoding: a message with no encoding
// reaching Send is a program bug. Send panics naming its type, and queues
// nothing.
func TestSendRefusesAMessageWithoutEncoding(t *testing.T) {
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got any
	var pending int
	r.Invoke(func() {
		defer func() { got, pending = recover(), len(r.pending) }()
		r.Send(1, &sizeOnly{})
	})
	if msg, _ := got.(string); !strings.Contains(msg, "*transport.sizeOnly") {
		t.Fatalf("Send of a message without encoding: recovered %v, want a panic naming *transport.sizeOnly", got)
	}
	if pending != 0 {
		t.Fatalf("%d destinations have frames queued after the refusal, want 0", pending)
	}
}

func TestManyConcurrentFrames(t *testing.T) {
	peers := map[wire.NodeID]string{}
	var runners []*Runner
	for i := 0; i < 2; i++ {
		r, err := NewRunner(wire.NodeID(i), "127.0.0.1:0", peers, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Logf = func(string, ...interface{}) {}
		peers[wire.NodeID(i)] = r.Addr().String()
		runners = append(runners, r)
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()
	a, b := &countMachine{}, &countMachine{}
	runners[0].Attach(a)
	runners[1].Attach(b)
	go runners[0].Serve(nil)
	go runners[1].Serve(nil)
	const n = 200
	for i := 0; i < n; i++ {
		seq := uint64(i)
		runners[0].Invoke(func() { a.env.Send(1, &wire.JoinRequest{From: 0, Nonce: seq}) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var done bool
		runners[1].Invoke(func() { done = len(b.got) == n })
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var got int
	runners[1].Invoke(func() { got = len(b.got) })
	t.Fatalf("received %d of %d frames", got, n)
}

var _ = fmt.Sprintf // keep fmt for future debugging

// TestRedialAfterListenerRestart kills and restarts a peer's listener
// mid-stream: the sender must mark the peer down on the write error,
// reconnect within the dial-backoff envelope once the listener is back,
// and hand every turn buffer back to the encode pool (no leaks across
// the connection churn).
func TestRedialAfterListenerRestart(t *testing.T) {
	base := wire.EncodePool.Outstanding()

	peers := map[wire.NodeID]string{}
	b1, err := NewRunner(1, "127.0.0.1:0", peers, 5)
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr().String()
	peers[1] = addr
	a, err := NewRunner(0, "127.0.0.1:0", peers, 4)
	if err != nil {
		t.Fatal(err)
	}
	peers[0] = a.Addr().String()
	a.Logf = func(string, ...interface{}) {}
	b1.Logf = func(string, ...interface{}) {}

	var transMu sync.Mutex
	var transitions []bool
	a.OnPeerState = func(peer wire.NodeID, up bool) {
		if peer != 1 {
			t.Errorf("OnPeerState for unexpected peer %v", peer)
		}
		transMu.Lock()
		transitions = append(transitions, up)
		transMu.Unlock()
	}

	am, bm := &countMachine{}, &countMachine{}
	a.Attach(am)
	b1.Attach(bm)
	go a.Serve(nil)
	go b1.Serve(nil)
	defer a.Close()

	var seq uint64
	send := func() {
		seq++
		s := seq
		a.Invoke(func() { am.env.Send(1, &wire.JoinRequest{From: 0, Nonce: s}) })
	}
	received := func(r *Runner, m *countMachine) int {
		var n int
		r.Invoke(func() { n = len(m.got) })
		return n
	}
	waitFor := func(what string, d time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	send()
	waitFor("first delivery", 3*time.Second, func() bool { return received(b1, bm) >= 1 })
	if !a.PeerUp(1) {
		t.Fatal("peer not marked up after successful delivery")
	}

	// Kill the listener mid-stream; keep sending until the write error
	// surfaces and the peer is marked down.
	b1.Close()
	waitFor("peer down", 3*time.Second, func() bool { send(); return !a.PeerUp(1) })

	// Restart on the same address and require reconnection within the
	// backoff envelope (one dialBackoff window plus generous slack for
	// the dial itself and CI scheduling).
	var b2 *Runner
	for {
		b2, err = NewRunner(1, addr, peers, 6)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	b2.Logf = func(string, ...interface{}) {}
	bm2 := &countMachine{}
	b2.Attach(bm2)
	go b2.Serve(nil)
	defer b2.Close()

	restart := time.Now()
	waitFor("reconnect delivery", 5*time.Second, func() bool { send(); return received(b2, bm2) >= 1 })
	if el := time.Since(restart); el > dialBackoff+2*time.Second {
		t.Fatalf("reconnect took %v, beyond the backoff envelope (%v + slack)", el, dialBackoff)
	}
	if !a.PeerUp(1) {
		t.Fatal("peer not marked up after reconnect")
	}
	if c, rs := a.stats.connects.Load(), a.stats.resets.Load(); c < 2 || rs < 1 {
		t.Fatalf("transition counters: connects=%d resets=%d, want >=2/>=1", c, rs)
	}
	transMu.Lock()
	got := append([]bool(nil), transitions...)
	transMu.Unlock()
	if len(got) < 3 || !got[0] || got[0] == got[1] {
		t.Fatalf("OnPeerState transitions = %v, want up,down,up...", got)
	}

	// Pool balance: once the sender drains, every turn buffer taken for
	// the whole up/down/up episode must be back in the pool.
	if !a.Drain(3 * time.Second) {
		t.Fatal("drain timed out")
	}
	waitFor("pool balance", 3*time.Second, func() bool { return wire.EncodePool.Outstanding() == base })
}
