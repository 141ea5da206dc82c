package netsim

import (
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/epaxos"
	"canopus/internal/wire"
	"canopus/internal/zab"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.At(time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.At(2*time.Millisecond, func() { got = append(got, 22) }) // FIFO among equals
	s.RunUntilIdle()
	want := []int{1, 2, 22, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestRunUntilStopsOnTime(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(10*time.Millisecond, func() { fired = true })
	s.RunUntil(5 * time.Millisecond)
	if fired || s.Now() != 5*time.Millisecond {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
	s.RunUntil(20 * time.Millisecond)
	if !fired {
		t.Fatal("event never fired")
	}
}

func TestLinkSerialization(t *testing.T) {
	l := &Link{Bandwidth: 1000, Delay: time.Millisecond} // 1000 B/s
	// 100 bytes = 100ms serialization + 1ms propagation.
	a1 := l.Transmit(0, 100)
	if a1 != 101*time.Millisecond {
		t.Fatalf("first arrival %v", a1)
	}
	// Second message queues behind the first.
	a2 := l.Transmit(0, 100)
	if a2 != 201*time.Millisecond {
		t.Fatalf("queued arrival %v", a2)
	}
	if l.BytesCarried() != 200 {
		t.Fatalf("bytes = %d", l.BytesCarried())
	}
}

func TestPathsByTopology(t *testing.T) {
	topo := SingleDC(2, 2)
	if len(topo.path(0, 1)) != 2 {
		t.Fatalf("intra-rack path should be 2 links, got %d", len(topo.path(0, 1)))
	}
	if len(topo.path(0, 2)) != 4 {
		t.Fatalf("inter-rack path should be 4 links, got %d", len(topo.path(0, 2)))
	}
	wan := MultiDC(2, 2, [][]time.Duration{
		{0, 50 * time.Millisecond}, {50 * time.Millisecond, 0},
	})
	if len(wan.path(0, 2)) != 5 {
		t.Fatalf("WAN path should be 5 links, got %d", len(wan.path(0, 2)))
	}
	// WAN latency dominates the arrival time.
	at := wan.transmit(0, 0, 2, 100)
	if at < 50*time.Millisecond || at > 60*time.Millisecond {
		t.Fatalf("WAN arrival %v", at)
	}
}

// echoMachine replies to every message with one of its own.
type echoMachine struct {
	env   engine.Env
	got   int
	reply bool
}

func (m *echoMachine) Init(env engine.Env)   { m.env = env }
func (m *echoMachine) Timer(engine.TimerTag) {}
func (m *echoMachine) Recv(from wire.NodeID, msg wire.Message) {
	m.got++
	if m.reply {
		m.env.Send(from, &wire.JoinRequest{From: m.env.ID()})
	}
}

func TestRunnerDeliversWithCosts(t *testing.T) {
	sim := NewSim()
	topo := SingleDC(1, 2)
	r := NewRunner(sim, topo, DefaultCosts(), 1)
	a := &echoMachine{}
	b := &echoMachine{reply: true}
	r.Register(0, a)
	r.Register(1, b)
	sim.At(0, func() { a.env.Send(1, &wire.JoinRequest{From: 0}) })
	sim.RunUntil(10 * time.Millisecond)
	if b.got != 1 || a.got != 1 {
		t.Fatalf("ping-pong failed: a=%d b=%d", a.got, b.got)
	}
	st := r.Stats(0)
	if st.MsgsOut != 1 || st.MsgsIn != 1 || st.CPUBusy == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	sim := NewSim()
	topo := SingleDC(1, 2)
	r := NewRunner(sim, topo, DefaultCosts(), 1)
	a := &echoMachine{}
	b := &echoMachine{}
	r.Register(0, a)
	r.Register(1, b)
	r.Crash(1)
	sim.At(0, func() { a.env.Send(1, &wire.JoinRequest{From: 0}) })
	sim.RunUntil(10 * time.Millisecond)
	if b.got != 0 {
		t.Fatal("crashed node received a message")
	}
	// Restart with a fresh machine; new traffic flows.
	b2 := &echoMachine{}
	r.Restart(1, b2)
	sim.At(sim.Now(), func() { a.env.Send(1, &wire.JoinRequest{From: 0}) })
	sim.RunUntil(20 * time.Millisecond)
	if b2.got != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestUseCPUQueues(t *testing.T) {
	sim := NewSim()
	topo := SingleDC(1, 1)
	r := NewRunner(sim, topo, DefaultCosts(), 1)
	r.Register(0, &echoMachine{})
	r.UseCPU(0, 5*time.Millisecond)
	if got := r.CPUBacklog(0); got != 5*time.Millisecond {
		t.Fatalf("backlog = %v", got)
	}
	sim.RunUntil(10 * time.Millisecond)
	if got := r.CPUBacklog(0); got != 0 {
		t.Fatalf("backlog after drain = %v", got)
	}
}

func TestRequestsIn(t *testing.T) {
	b := &wire.Batch{NumRead: 3, NumWrite: 2}
	if got := RequestsIn(&wire.Proposal{Batches: []*wire.Batch{b, b}}); got != 10 {
		t.Fatalf("proposal requests = %d, want 10", got)
	}
	if got := RequestsIn(&wire.SeqAppend{Entries: []wire.SeqEntry{
		{Payload: &wire.Proposal{Batches: []*wire.Batch{b}}}, {},
	}}); got != 5 {
		t.Fatalf("nested requests = %d, want 5", got)
	}
	if got := RequestsIn(&wire.SeqForward{Payload: &wire.Proposal{Batches: []*wire.Batch{b}}}); got != 5 {
		t.Fatalf("nested requests = %d, want 5", got)
	}
	if RequestsIn(&wire.JoinRequest{}) != 0 {
		t.Fatal("ping has requests")
	}
	// The baselines' messages report their requests through
	// RequestCarrier; one without a batch, or of a batchless type, has none.
	three := &wire.Batch{Reqs: make([]wire.Request, 3), NumRead: 1, NumWrite: 2}
	for _, c := range []struct {
		m    wire.Message
		want int
	}{
		{&epaxos.PreAccept{Batch: three}, 3},
		{&epaxos.Commit{Batch: three}, 3},
		{&epaxos.Commit{}, 0},
		{&epaxos.PreAcceptReply{}, 0},
		{&zab.ZabForward{Batch: three}, 3},
		{&zab.ZabPropose{Batch: three}, 3},
		{&zab.ZabInform{Batch: three}, 3},
		{&zab.ZabInform{}, 0},
		{&zab.ZabAck{}, 0},
	} {
		if got := RequestsIn(c.m); got != c.want {
			t.Errorf("%T requests = %d, want %d", c.m, got, c.want)
		}
	}
}
