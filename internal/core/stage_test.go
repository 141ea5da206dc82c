package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// TestStageReadsSerializeWithPlans drives the apply stage directly,
// through both drivers: a read submitted after a plan observes that plan's
// writes, a read parked on a future cycle is served the moment the cycle
// applies, FailLocalReads abandons only reads no submitted plan can
// satisfy, and a closed stage still applies a plan and fails a read it
// cannot serve.
func TestStageReadsSerializeWithPlans(t *testing.T) {
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range []string{"inline", "goroutine"} {
		t.Run(driver, func(t *testing.T) {
			n := NewNode(Config{Tree: tree, Self: 0}, kvstore.New(), Callbacks{})
			defer n.Close()
			if driver == "goroutine" {
				GoStage(n)
			}
			// Buffered: the inline driver answers inside submit.
			got := make(chan string, 1)
			submitPlan := func(cycle uint64, val string) {
				write := wire.Request{Op: wire.OpWrite, Key: 7, Val: []byte(val)}
				plan := n.newPlan(cycle)
				plan.root = &wire.Proposal{Cycle: cycle}
				plan.ops = append(plan.ops, planOp{req: &write, comp: -1})
				n.stage.submit(stageCmd{kind: cmdPlan, plan: plan})
			}
			submitRead := func(minCycle uint64) {
				n.stage.submit(stageCmd{kind: cmdRead, read: localRead{key: 7, minCycle: minCycle,
					fn: func(val []byte, cycle uint64, ok bool) { got <- fmt.Sprintf("%s/%d/%v", val, cycle, ok) }}})
			}

			// Submitted after the plan: must see its write and cycle 1.
			submitPlan(1, "cycle1")
			submitRead(0)
			if s := <-got; s != "cycle1/1/true" {
				t.Fatalf("read after plan = %q, want cycle1/1/true", s)
			}

			// Parked on cycle 2; served when the cycle-2 plan lands.
			submitRead(2)
			submitPlan(2, "cycle2")
			if s := <-got; s != "cycle2/2/true" {
				t.Fatalf("parked read = %q, want cycle2/2/true", s)
			}

			// Parked beyond any submitted plan: abandoned by FailLocalReads.
			submitRead(99)
			n.FailLocalReads()
			if s := <-got; s != "/2/false" {
				t.Fatalf("abandoned read = %q, want /2/false", s)
			}
			if o, c := n.Ordered(), n.Committed(); c != 2 {
				t.Fatalf("applied watermark = %d (ordered %d), want 2", c, o)
			}

			// One rule for a closed stage: the plan applies, the servable
			// read is served, the unservable one fails — all before submit
			// returns.
			n.Close()
			submitPlan(3, "cycle3")
			if c := n.Committed(); c != 3 {
				t.Fatalf("applied watermark after a plan on a closed stage = %d, want 3", c)
			}
			submitRead(3)
			if s := <-got; s != "cycle3/3/true" {
				t.Fatalf("read on a closed stage = %q, want cycle3/3/true", s)
			}
			submitRead(4)
			if s := <-got; s != "/3/false" {
				t.Fatalf("unservable read on a closed stage = %q, want /3/false", s)
			}
			ran := false
			n.InspectApplied(func() { ran = true })
			if !ran {
				t.Fatal("InspectApplied on a closed stage did not run fn")
			}
		})
	}
}

// TestStageReentrantDeliveryOnce: on the inline driver a consumer that
// submits from Committed starts the next cycle inside the delivery of the
// last, and a one-node leaf's sequencer commits its own round-1 proposal
// inside Broadcast, so every cycle commits at the instant it was
// submitted. Each cycle still reaches the consumer once, in cycle order,
// and none inside another's delivery: the sequencer hands out a delivery
// made during a delivery from its outer settle loop. The stage's nested
// drain stays for what commits outside a settle (a gap cycle's
// substitution on the tick, a root catch-up); this test does not reach it.
func TestStageReentrantDeliveryOnce(t *testing.T) {
	sim := netsim.NewSim()
	runner := netsim.NewRunner(sim, netsim.SingleDC(1, 1), netsim.DefaultCosts(), 1)
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	var n *Node
	var got []uint64
	var at []time.Duration
	depth := 0
	n = NewNode(Config{Tree: tree, Self: 0}, kvstore.New(), Callbacks{Consumers: []Consumer{
		ConsumerFunc(func(c *Commit) {
			if depth > 0 {
				t.Errorf("cycle %d delivered inside the delivery of another", c.Cycle)
			}
			depth++
			got, at = append(got, c.Cycle), append(at, sim.Now())
			if c.Cycle < 3 {
				n.Submit(wr(1, c.Cycle+1, 1, c.Cycle+1))
			}
			depth--
		}),
	}})
	runner.Register(0, n)
	sim.At(time.Millisecond, func() { n.Submit(wr(1, 1, 1, 1)) })
	sim.RunUntil(time.Second)
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("delivered cycles %v, want [1 2 3]", got)
	}
	if !slices.Equal(at, []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}) {
		t.Fatalf("cycles committed at %v, want each at 1ms, when it was submitted", at)
	}
}
