package broadcast

import (
	"slices"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// bcastHost adapts a Sequencer to engine.Machine for the simulator.
type bcastHost struct {
	mk        func(env engine.Env) *Sequencer
	b         *Sequencer
	env       engine.Env
	delivered []wire.Message
	origins   []wire.NodeID
	failed    []wire.NodeID
	tick      time.Duration
}

func (h *bcastHost) Init(env engine.Env) {
	h.env = env
	h.b = h.mk(env)
	env.After(h.tick, engine.Tag(1, 0))
}
func (h *bcastHost) Recv(from wire.NodeID, m wire.Message) { h.b.Handle(from, m) }
func (h *bcastHost) Timer(engine.TimerTag) {
	h.b.Tick()
	h.env.After(h.tick, engine.Tag(1, 0))
}

// runBroadcastTest runs a leaf of three on the simulated network, its
// fan-outs multicast through the switch or not.
func runBroadcastTest(t *testing.T, multicast bool) {
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, 3)
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 8)
	members := []wire.NodeID{0, 1, 2}
	hosts := make([]*bcastHost, 3)
	for i := 0; i < 3; i++ {
		h := &bcastHost{tick: 5 * time.Millisecond}
		h.mk = func(env engine.Env) *Sequencer {
			cfg := Config{Members: members, TickInterval: 5 * time.Millisecond, Multicast: multicast}
			cbs := Callbacks{
				Deliver: func(origin wire.NodeID, payload wire.Message) {
					h.delivered = append(h.delivered, payload)
					h.origins = append(h.origins, origin)
				},
				PeerFailed: func(p wire.NodeID) { h.failed = append(h.failed, p) },
			}
			return NewSequencer(env, cfg, cbs)
		}
		hosts[i] = h
		runner.Register(wire.NodeID(i), h)
	}
	// Node 0 broadcasts three messages; all members deliver them in order.
	sim.At(10*time.Millisecond, func() {
		hosts[0].b.Broadcast(&wire.JoinRequest{From: 0, Nonce: 1})
		hosts[0].b.Broadcast(&wire.JoinRequest{From: 0, Nonce: 2})
	})
	sim.At(20*time.Millisecond, func() { hosts[1].b.Broadcast(&wire.JoinRequest{From: 1, Nonce: 3}) })
	sim.RunUntil(300 * time.Millisecond)
	for i, h := range hosts {
		if len(h.delivered) != 3 {
			t.Fatalf("host %d delivered %d, want 3", i, len(h.delivered))
		}
		// Per-origin FIFO: seq 1 from node 0 precedes seq 2.
		var s1, s2 = -1, -1
		for idx, m := range h.delivered {
			p := m.(*wire.JoinRequest)
			if p.Nonce == 1 {
				s1 = idx
			}
			if p.Nonce == 2 {
				s2 = idx
			}
		}
		if s1 > s2 {
			t.Fatalf("host %d: per-origin order violated", i)
		}
		// One order across origins too.
		if !slices.Equal(h.delivered, hosts[0].delivered) {
			t.Fatalf("host %d delivered %v, host 0 %v", i, h.delivered, hosts[0].delivered)
		}
	}

	// Crash node 2: survivors report the failure exactly once.
	runner.Crash(2)
	sim.RunUntil(2 * time.Second)
	for i := 0; i < 2; i++ {
		if len(hosts[i].failed) != 1 || hosts[i].failed[0] != 2 {
			t.Fatalf("host %d failure reports = %v", i, hosts[i].failed)
		}
	}
	// Broadcast still works with 2 of 3.
	before := len(hosts[1].delivered)
	sim.At(sim.Now(), func() { hosts[0].b.Broadcast(&wire.JoinRequest{From: 0, Nonce: 9}) })
	sim.RunUntil(sim.Now() + 300*time.Millisecond)
	if len(hosts[1].delivered) != before+1 {
		t.Fatal("post-failure broadcast not delivered")
	}
}

func TestSequencerBroadcast(t *testing.T) { runBroadcastTest(t, false) }

// TestSwitchBroadcast is the hardware flavour: the same sequencer, whose
// forwards, acknowledgements to every member and log requests the switch
// replicates.
func TestSwitchBroadcast(t *testing.T) { runBroadcastTest(t, true) }
